//! # bench — the experiment harness
//!
//! One binary, `bench`, driven by one table ([`table::TABLE`]): a row
//! per table/figure of the paper and per systems experiment, each
//! printing the paper's numbers next to the measured ones (absolute
//! agreement is a calibration outcome; the claims under test are the
//! *shapes* — who wins, by roughly what factor, and where the
//! crossovers fall).
//!
//! ```bash
//! cargo run --release -p bench -- list                  # the table
//! cargo run --release -p bench -- fig08_throughput_1k   # one row
//! cargo run --release -p bench -- ci                    # every reporting row, then the gate
//! cargo run --release -p bench -- gate --record         # re-record baselines/
//! ```
//!
//! Rows that emit a machine-readable report name its file and the
//! dotted paths held in it in the same table entry; [`gate`] checks the
//! fresh reports against the committed distillates in `baselines/` —
//! the simulation is virtual-clock-deterministic, so most metrics are
//! held to exact equality, and a path that no longer resolves fails
//! whatever its policy.
//!
//! Environment knobs: `ILP_VOLUME_MB` overrides the Fig. 13/14 transfer
//! volume (default 10.7, the paper's); `ILP_PACKETS` overrides the
//! per-point packet count of the timing experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exp;
pub mod gate;
pub mod measure;
pub mod paper;
pub mod report;
pub mod schema;
pub mod table;

pub use measure::{measure, MeasureCfg, Measurement, PathKind};
