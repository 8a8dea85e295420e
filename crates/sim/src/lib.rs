//! # sim — deterministic simulation testing for the ILP stack
//!
//! Property testing needs a registry crate this workspace cannot have;
//! this crate is the in-tree replacement, shaped after the
//! FoundationDB/TigerBeetle style of *deterministic simulation*:
//!
//! * one `u64` seed fully determines a run. [`Scenario::from_seed`]
//!   forks the workspace PRNG ([`utcp::rng::XorShift64::fork`]) into
//!   independent component streams — one for the workload shape, one
//!   for the fault plan — and the kernel part's seeded
//!   [`utcp::FaultPlan`] mode makes every drop/duplicate/reorder/
//!   corrupt/delay decision a pure function of the seed too;
//! * cross-layer **oracles** run while the simulation advances, not
//!   just at the end ([`oracle`]): a TCP reference model (delivered
//!   output must be a prefix-exact match of the sent file at every
//!   tick, sequence counters must advance monotonically, flight size
//!   must respect the advertised window and equal the retransmission
//!   ring's buffered bytes), [`utcp::SendRing`] structural invariants,
//!   ILP ≡ non-ILP behavioural equivalence per seed, and
//!   counter-vs-time-series conservation in the observability layer;
//! * on failure the runner **shrinks** ([`mod@shrink`]): it greedily
//!   simplifies the scenario (fewer connections, smaller file, calmer
//!   fault probabilities, simpler kind) while the failure reproduces,
//!   and prints a ready-to-paste `#[test]` reproducer
//!   ([`Scenario::to_test_case`]) whose seed replays deterministically.
//!
//! The same sweep doubles as the `exp_dst` bench experiment (seeds/sec,
//! fault mix, oracle pass counts → `BENCH_dst.json`), so CI both
//! exercises the sweep and tracks its throughput.
//!
//! The `inject_ring_bug` option re-introduces a real historical bug
//! (the send ring's saturated-tail wrap, fixed in PR 3) — the mutation
//! the sweep must catch to prove the oracles have teeth. The bug
//! switches compile only under the `mutation` feature, which only
//! dev-dependencies enable. See `tests/mutation.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Why a bug-injection request panics in a build without the switches.
#[cfg(not(feature = "mutation"))]
const NEEDS_MUTATION: &str = "bug injection needs sim's `mutation` feature (tests and examples \
     enable it through dev-dependencies; release code never carries the switches)";

pub mod health;
pub mod lifecycle;
pub mod oracle;
pub mod recovery;
pub mod runner;
pub mod scenario;
pub mod shrink;

pub use lifecycle::{
    run_churn, run_teardown, sweep_teardown, ChurnOutcome, ChurnSpec, TeardownSpec,
    TeardownSweepReport,
};
pub use runner::{
    run_caught, run_scenario, sweep, FailureReport, FaultTotals, RunOptions, ScenarioStats,
    SweepOpts, SweepReport,
};
pub use scenario::{Scenario, ScenarioKind};
pub use shrink::{caught, shrink};
