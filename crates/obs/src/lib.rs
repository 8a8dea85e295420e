//! # obs — cross-layer tracing and metrics
//!
//! The paper's whole argument is about *where time and memory traffic
//! go* across layers, yet a reproduction that only reports per-run
//! totals cannot see which of the three processing stages (§2.1:
//! initial control operations, the integrated ILP loop, the final
//! stage) dominates, nor how the cost splits across layers
//! (marshalling, cipher, checksum, TCP control, kernel). This crate is
//! the measurement substrate the rest of the workspace hooks into:
//!
//! * [`hist::Histogram`] — log₂-bucketed value histograms with exact
//!   count/sum/min/max, mergeable, with percentile queries;
//! * [`ring::Ring`] — the one bounded ring (newest `capacity` entries,
//!   oldest overwritten, drops counted); [`trace::TraceRing`] is it over
//!   [`trace::TraceEvent`]s stamped with the server's virtual clock, and
//!   [`health::FlightRing`] is it over sender-state snapshots;
//! * [`tally::Tally`] — a value per counter and a histogram per metric:
//!   a recorder's run totals and the body of every series window;
//! * [`span`] — the label sets (each declared once: variant, doc and
//!   exposition name) and the [`span::SpanObserver`] hook trait, with a
//!   [`span::NoopObserver`] whose `ENABLED = false` lets every
//!   instrumentation site compile away. Its callers: the
//!   `ilp_core::three_stage` combinator (initial/integrated spans),
//!   the `utcp::KernelCtx` handle (`mark`/`span`/`seg`, through which
//!   `utcp::conn`'s parts and the data paths in `rpcapp::paths`
//!   report), and `server::harness` (handshake, scheduling and fault
//!   counters);
//! * [`recorder::Recorder`] — the everything-in-one observer: run
//!   totals, the per-(path, stage, layer) work matrix, the event trace,
//!   the series, the flight rings and the segment store;
//! * [`json`] — a hand-rolled, escape-correct JSON value, renderer and
//!   parser (no serde; the workspace carries no registry dependencies);
//! * [`timeseries`] — [`timeseries::SeriesRecorder`], the windowed
//!   view: every counter delta and sample also lands in a fixed-width
//!   virtual-clock window, with tiered 2× coarsening of old windows so
//!   arbitrarily long runs fit in bounded memory, window-aligned merge
//!   across shard recorders, and an ASCII sparkline renderer;
//! * [`health`] — the cross-layer health engine: per-connection flight
//!   recorders (tiny snapshot rings fed through the same compile-away
//!   hook), named anomaly detectors (retransmit storm, RTO spiral,
//!   stall, queue saturation, fairness collapse) run as pure functions
//!   over merged telemetry, and diagnostic-bundle assembly;
//! * [`segtrace`] — per-segment causal tracing: span chains keyed by
//!   (connection, chunk) with a virtual-clock timestamp at every
//!   lifecycle edge, out-of-band context propagation across the kernel
//!   part, deterministic sampling with loss-recovery promotion, and an
//!   exact critical-path latency decomposition
//!   (queueing/recovery/propagation/processing);
//! * [`expo`] — exposition: the Prometheus-style text dump (counters,
//!   work matrix, histograms, one verdict gauge per detector, the latest
//!   sealed window), Chrome `trace_event` lists for the trace ring, and
//!   the crash-safe run-report writer behind the `BENCH_*.json` files.
//!
//! The crate is deliberately zero-dependency (std only) and knows
//! nothing about `memsim` or the protocol crates: work is reported to it
//! as plain `(user, system)` counter deltas, so any memory
//! implementation that can count — or none — plugs in.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod expo;
pub mod health;
pub mod hist;
pub mod json;
pub mod recorder;
pub mod ring;
pub mod segtrace;
pub mod span;
pub mod tally;
pub mod timeseries;
pub mod trace;

pub use expo::{
    chrome_trace_doc, chrome_trace_events, prometheus_text,
    prometheus_text_with_health, write_report,
};
pub use health::{ConnView, Detector, FlightRing, QueueStat, Verdict};
pub use hist::Histogram;
pub use json::Json;
pub use recorder::Recorder;
pub use ring::Ring;
pub use segtrace::{Breakdown, ComponentTotals, Origin, SegEv, SegStore, SegTag, SegTrace, XmitKind};
pub use span::{
    Counter, EventKind, FlightEdge, FlightSnap, Layer, Metric, NoopObserver, PathLabel,
    SpanObserver, Stage, Work,
};
pub use tally::Tally;
pub use timeseries::{sparkline, SeriesConfig, SeriesRecorder};
pub use trace::{TraceEvent, TraceRing};
