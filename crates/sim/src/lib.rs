//! # sim — deterministic simulation testing for the ILP stack
//!
//! Property testing needs a registry crate this workspace cannot have;
//! this crate is the in-tree replacement, shaped after the
//! FoundationDB/TigerBeetle style of *deterministic simulation*:
//!
//! * one `u64` seed fully determines a run. A [`Spec`]
//!   ([`Scenario`], [`TeardownSpec`]) forks the workspace PRNG
//!   ([`utcp::rng::XorShift64::fork`]) into independent component
//!   streams — one for the workload shape, one for the fault plan — and
//!   the kernel part's seeded [`utcp::FaultPlan`] mode makes every
//!   drop/duplicate/reorder/corrupt/delay decision a pure function of
//!   the seed too;
//! * cross-layer **oracles** run while the simulation advances, not
//!   just at the end ([`oracle`]): one [`ConnOracle`] per connection in
//!   every world (RFC 793 transitions, monotone sequence counters,
//!   flight = ring + SYN + FIN, the post-FIN freeze, cwnd), plus what each
//!   world kind adds — prefix-exact delivery at every tick in a
//!   [`World`], liveness in a raw teardown pair — and ILP ≡ non-ILP and
//!   observed ≡ unobserved equivalence per seed, and counter-vs-series
//!   conservation in the observability layer;
//! * one pipeline: [`sweep`] runs a seed block (after an optional
//!   prelude of pinned worlds), and on failure **shrinks**
//!   ([`mod@shrink`]) the spec — fewer connections, smaller file,
//!   calmer faults, simpler kind — while the failure reproduces, then
//!   prints a ready-to-paste `#[test]` reproducer
//!   ([`Spec::to_test_case`]) whose seed replays deterministically.
//!
//! The same sweeps double as the `exp_dst` and `exp_churn` bench
//! experiments (fault mix, oracle pass counts → `BENCH_dst.json`,
//! `BENCH_churn.json`), so CI both exercises them and tracks them.
//!
//! A [`Mutant`] re-introduces a real or representative bug in every
//! world a sweep builds — the saturated-tail ring wrap, a receiver that
//! accepts data after its FIN — to prove the oracles have teeth. The
//! bug switches compile only under the `mutation` feature, which only
//! dev-dependencies enable. See `tests/mutation.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod health;
pub mod lifecycle;
pub mod oracle;
pub mod recovery;
pub mod runner;
pub mod scenario;
pub mod shrink;
pub mod world;

pub use lifecycle::{run_churn, ChurnOutcome, ChurnSpec, Steps, TeardownSpec, PINNED_WORLDS};
pub use oracle::ConnOracle;
pub use runner::{
    sweep, FailureReport, FaultTotals, Mutant, PinnedWorld, ScenarioStats, Spec, SweepOpts,
    SweepReport,
};
pub use scenario::{Scenario, ScenarioKind};
pub use shrink::{caught, shrink};
pub use world::World;
