//! Scenario execution and the seed sweep.
//!
//! [`run_scenario`] drives one scenario against every applicable oracle
//! and returns `Err` (or panics, for assertion-class failures — the
//! sweep converts panics into failures too) when any property breaks.
//! [`sweep`] runs a contiguous block of seeds, accumulates the fault
//! mix and oracle pass counts for reporting, and on the first failure
//! invokes the shrinker and renders a ready-to-paste reproducer.

use memsim::layout::AddressSpace;
use memsim::NativeMem;
use obs::{Counter, Recorder, SeriesConfig};
use server::{
    AggregateReport, DeficitRoundRobin, Path, RoundRobin, ScaleHarness, SchedPolicy, Scheduler,
    ServerConfig,
};
use utcp::SendRing;

use crate::oracle::{check_conservation, check_segtrace, Tracker};
use crate::scenario::{Scenario, ScenarioKind};
use crate::shrink::{caught, shrink};

/// Knobs of a scenario run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions {
    /// Re-introduce the historical saturated-tail ring-wrap bug (see
    /// `SendRing::inject_legacy_wrap_bug`) — the mutation the sweep
    /// must catch.
    pub inject_ring_bug: bool,
}

/// Kernel-part fault totals accumulated over a run or sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultTotals {
    /// Datagrams dropped.
    pub dropped: u64,
    /// Datagrams duplicated.
    pub duplicated: u64,
    /// Datagrams swapped with a predecessor.
    pub reordered: u64,
    /// Datagrams bit-flipped.
    pub corrupted: u64,
    /// Datagrams held back by the delay fault.
    pub delayed: u64,
}

impl FaultTotals {
    /// Add another total into this one.
    pub fn absorb(&mut self, other: FaultTotals) {
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.reordered += other.reordered;
        self.corrupted += other.corrupted;
        self.delayed += other.delayed;
    }
}

/// What one passing scenario did.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScenarioStats {
    /// Fault mix the kernel part injected.
    pub faults: FaultTotals,
    /// Individual oracle evaluations that passed.
    pub oracle_checks: u64,
    /// Scheduling rounds (max across the runs a scenario performs).
    pub rounds: u64,
    /// Application payload bytes delivered.
    pub payload_bytes: u64,
    /// Retransmissions forced.
    pub retransmits: u64,
}

/// Run one scenario against its oracles.
///
/// `Err` carries the first violated property. Assertion-class failures
/// (protocol stalls, out-of-bounds ring extents reaching `Region::at`)
/// panic instead; [`sweep`] catches those and treats them as failures
/// with the panic message.
pub fn run_scenario(sc: &Scenario, opts: &RunOptions) -> Result<ScenarioStats, String> {
    match sc.kind {
        ScenarioKind::Ring => run_ring(sc, opts),
        ScenarioKind::Transfer => run_transfer(sc, opts),
        ScenarioKind::Sharded => run_sharded_scenario(sc),
    }
}

/// Direct alloc/ack fuzz of the send ring. Lens are divisors of the
/// capacity so the tail regularly lands exactly on `capacity` — the
/// corner the legacy wrap bug lived in.
fn run_ring(sc: &Scenario, opts: &RunOptions) -> Result<ScenarioStats, String> {
    let mut rng = sc.ring_ops_rng();
    let cap = sc.ring_capacity;
    let mut space = AddressSpace::new();
    let region = space.alloc_kind("sim_ring", cap, 64, memsim::RegionKind::Ring);
    let mut r = SendRing::new(region);
    if opts.inject_ring_bug {
        #[cfg(feature = "mutation")]
        r.inject_legacy_wrap_bug(true);
        #[cfg(not(feature = "mutation"))]
        panic!("{}", crate::NEEDS_MUTATION);
    }
    let lens = [(cap / 16).max(1), (cap / 8).max(1), cap / 4, cap / 2];
    let mut seq = rng.next_u32();
    let mut stats = ScenarioStats::default();
    for _ in 0..2000 {
        if rng.below(3) < 2 {
            let len = lens[rng.index(lens.len())];
            if let Some(e) = r.alloc(len, seq) {
                // Building the writer walks Region::at — with the bug
                // injected the out-of-range extent panics right here.
                let w = r.writer(e);
                debug_assert_eq!(w.len(), len);
                seq = seq.wrapping_add(len as u32);
            }
        } else if let Some(front) = r.oldest() {
            r.ack(front.end_seq());
        }
        r.check_invariants().map_err(|e| format!("ring fuzz (capacity {cap}): {e}"))?;
        stats.oracle_checks += 1;
    }
    Ok(stats)
}

/// The server config a transfer-class scenario builds its world from.
fn server_config(sc: &Scenario) -> ServerConfig {
    ServerConfig {
        n_conns: sc.n_conns,
        conn_base: 0,
        file_len: sc.file_len,
        chunk: sc.chunk,
        weights: Vec::new(),
        faults: sc.fault_plan(),
        ring_capacity: sc.ring_capacity,
        max_rounds: 500_000,
        loss_recovery: true,
        // Seed-derived sampling stride (1..=3): every scenario traces a
        // different subset of chunks, and the segtrace oracle demands a
        // complete causally-ordered chain for each one. Tracing rides
        // out of band, so the run itself is bit-identical at any stride.
        trace_every: 1 + (sc.seed % 3) as u32,
    }
}

/// Chunks each connection's transfer comprises.
fn chunks_per_conn(sc: &Scenario) -> usize {
    sc.file_len.div_ceil(sc.chunk)
}

/// Everything one observed single-threaded run yields.
struct TransferRun {
    report: AggregateReport,
    per_conn: Vec<(u64, u64, u64)>,
    faults: FaultTotals,
    checks: u64,
}

/// Drive one world to completion on `path` with per-tick oracles.
fn run_one_path(sc: &Scenario, opts: &RunOptions, path: Path) -> Result<TransferRun, String> {
    let cfg = server_config(sc);
    let mut space = AddressSpace::new();
    let mut h = ScaleHarness::simplified(&mut space, cfg);
    if opts.inject_ring_bug {
        #[cfg(feature = "mutation")]
        for sess in h.table.iter_mut() {
            sess.tx.inject_legacy_wrap_bug(true);
        }
        #[cfg(not(feature = "mutation"))]
        panic!("{}", crate::NEEDS_MUTATION);
    }
    let mut arena = space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    h.init_world(&mut m);
    let mut sched: Box<dyn Scheduler> = if sc.deficit {
        Box::new(DeficitRoundRobin::for_config(h.config(), sc.chunk as u32))
    } else {
        Box::new(RoundRobin::new())
    };
    // Small windows so a run seals many and the conservation oracle
    // exercises the coarsening fold, not just the open window.
    let mut rec = Recorder::with_series(128, SeriesConfig { window_ticks: 16, ring: 4 });
    let mut run = h.begin_run::<Recorder>();
    let mut tracker = Tracker::new(sc.n_conns);
    let mut ticks = 0u64;
    let mut more = true;
    while more {
        more = h.step(&mut m, sched.as_mut(), path, &mut rec, &mut run);
        ticks += 1;
        // Deep (prefix-reread) checks are sampled; the cheap
        // counter/ring oracles run on every tick.
        let deep = !more || ticks.is_multiple_of(32);
        tracker.check(&h, &mut m, deep).map_err(|e| format!("{path:?} tick {ticks}: {e}"))?;
    }
    let report = h.finish_run(&mut rec, sched.name());
    if let Some(i) = h.verify_outputs(&mut m) {
        return Err(format!("{path:?}: client {i} reassembled a corrupted file"));
    }
    let expected = (sc.n_conns * sc.file_len) as u64;
    if report.payload_bytes != expected {
        return Err(format!(
            "{path:?}: delivered {} bytes, expected {expected}",
            report.payload_bytes
        ));
    }
    let mut checks = tracker.checks + 2;
    checks += check_conservation(&rec).map_err(|e| format!("{path:?}: obs: {e}"))?;
    checks += check_segtrace(&rec, h.config().trace_every, sc.n_conns, chunks_per_conn(sc))
        .map_err(|e| format!("{path:?}: {e}"))?;
    if rec.counter(Counter::Retransmits) != report.retransmits {
        return Err(format!(
            "{path:?}: recorder counted {} retransmits, report says {}",
            rec.counter(Counter::Retransmits),
            report.retransmits
        ));
    }
    checks += 1;
    // Teardown totality: a completed run has already exchanged FINs
    // (the server closes each finished transfer); draining TIME_WAIT
    // must take every connection on both sides all the way to Closed.
    h.drain_to_closed(&mut m, path, &mut obs::NoopObserver);
    if !h.fully_closed() {
        return Err(format!("{path:?}: drain left live connections after a completed run"));
    }
    for (i, sess) in h.table.iter().enumerate() {
        if sess.tx.stats.fins_sent != 1 || sess.tx.stats.fins_received != 1 {
            return Err(format!(
                "{path:?}: conn {i} exchanged {}/{} FINs, want exactly one each way",
                sess.tx.stats.fins_sent, sess.tx.stats.fins_received
            ));
        }
    }
    checks += 1 + sc.n_conns as u64;
    Ok(TransferRun {
        per_conn: (0..sc.n_conns).map(|i| h.client_progress(i)).collect(),
        faults: FaultTotals {
            dropped: h.lb.dropped,
            duplicated: h.lb.duplicated,
            reordered: h.lb.reordered,
            corrupted: h.lb.corrupted,
            delayed: h.lb.delayed_count,
        },
        checks,
        report,
    })
}

/// Full transfer scenario: run the identical world on the ILP and the
/// non-ILP path, then require behavioural equivalence — the two
/// implementations differ in memory traffic, never in protocol
/// behaviour, so under the same fault seed they must drop, retransmit,
/// reject, and deliver identically.
fn run_transfer(sc: &Scenario, opts: &RunOptions) -> Result<ScenarioStats, String> {
    let ilp = run_one_path(sc, opts, Path::Ilp)?;
    let non = run_one_path(sc, opts, Path::NonIlp)?;
    let pairs = [
        ("payload_bytes", ilp.report.payload_bytes, non.report.payload_bytes),
        ("rejected", ilp.report.rejected, non.report.rejected),
        ("retransmits", ilp.report.retransmits, non.report.retransmits),
        ("corrupted", ilp.report.corrupted, non.report.corrupted),
        ("rounds", ilp.report.rounds, non.report.rounds),
    ];
    for (what, a, b) in pairs {
        if a != b {
            return Err(format!("ILP/non-ILP diverge on {what}: {a} vs {b}"));
        }
    }
    if ilp.per_conn != non.per_conn {
        return Err(format!(
            "ILP/non-ILP diverge per connection: {:?} vs {:?}",
            ilp.per_conn, non.per_conn
        ));
    }
    let mut stats = ScenarioStats {
        faults: ilp.faults,
        oracle_checks: ilp.checks + non.checks + pairs.len() as u64 + 1,
        rounds: ilp.report.rounds.max(non.report.rounds),
        payload_bytes: ilp.report.payload_bytes,
        retransmits: ilp.report.retransmits,
    };
    stats.faults.absorb(non.faults);
    Ok(stats)
}

/// Sharded scenario: post-run oracles over a multi-threaded run —
/// global delivery, zero cross-talk, and merged-recorder conservation
/// (merged counters must equal the per-shard sums, and the merged
/// series must conserve the merged counters).
fn run_sharded_scenario(sc: &Scenario) -> Result<ScenarioStats, String> {
    let cfg = server_config(sc);
    let shards = 2 + usize::from(sc.n_conns >= 4);
    let policy = if sc.deficit {
        SchedPolicy::Deficit { quantum: sc.chunk as u32 }
    } else {
        SchedPolicy::RoundRobin
    };
    let rep = server::run_sharded(&cfg, shards, Path::Ilp, policy, 128);
    let expected = (sc.n_conns * sc.file_len) as u64;
    if rep.payload_bytes() != expected {
        return Err(format!("sharded: delivered {} bytes, expected {expected}", rep.payload_bytes()));
    }
    if let Some((shard, conn)) = rep.corrupted_conn() {
        return Err(format!("sharded: shard {shard} corrupted connection {conn}"));
    }
    let mut checks = 2u64;
    for c in Counter::ALL {
        let sum: u64 = rep.shards.iter().map(|s| s.recorder.counter(c)).sum();
        if rep.merged.counter(c) != sum {
            return Err(format!(
                "sharded: merged counter {} = {} but shards sum to {sum}",
                c.name(),
                rep.merged.counter(c)
            ));
        }
        checks += 1;
    }
    checks += check_conservation(&rep.merged).map_err(|e| format!("sharded: obs: {e}"))?;
    // The merged store is a union of per-shard stores over disjoint
    // global connection slices; the same completeness bar applies.
    checks += check_segtrace(&rep.merged, cfg.trace_every, sc.n_conns, chunks_per_conn(sc))
        .map_err(|e| format!("sharded: {e}"))?;
    Ok(ScenarioStats {
        faults: FaultTotals {
            dropped: rep.merged.counter(Counter::FaultDrops),
            corrupted: rep.merged.counter(Counter::FaultCorruptions),
            ..Default::default()
        },
        oracle_checks: checks,
        rounds: rep.max_rounds(),
        payload_bytes: rep.payload_bytes(),
        retransmits: rep.retransmits(),
    })
}

/// Run a scenario, converting panics (stalls, out-of-bounds extents)
/// into `Err` with the panic message.
pub fn run_caught(sc: &Scenario, opts: &RunOptions) -> Result<ScenarioStats, String> {
    caught(|| run_scenario(sc, opts))
}

/// A seed sweep's shape.
#[derive(Debug, Clone, Copy)]
pub struct SweepOpts {
    /// First seed; seed `i` of the sweep is `base_seed + i`.
    pub base_seed: u64,
    /// Number of consecutive seeds to run.
    pub seeds: usize,
    /// Forwarded to every scenario (mutation testing).
    pub inject_ring_bug: bool,
}

/// A minimised failure, ready to paste into a test file.
#[derive(Debug, Clone)]
pub struct FailureReport {
    /// The scenario that first failed.
    pub scenario: Scenario,
    /// The shrunk (still-failing) scenario.
    pub shrunk: Scenario,
    /// What broke (for the shrunk scenario).
    pub message: String,
    /// `#[test]` source reproducing the shrunk scenario.
    pub test_case: String,
}

/// What a sweep did. The sweep stops at the first failing seed (after
/// shrinking it); `seeds_run` counts how far it got.
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    /// Seeds actually executed.
    pub seeds_run: usize,
    /// Seeds whose every oracle passed.
    pub passed: usize,
    /// Scenario-kind mix, indexed by [`ScenarioKind::index`].
    pub kind_counts: [usize; 3],
    /// Aggregate fault mix over the passing runs.
    pub faults: FaultTotals,
    /// Total individual oracle evaluations over the passing runs.
    pub oracle_checks: u64,
    /// Total scheduling rounds simulated.
    pub rounds: u64,
    /// Total payload bytes delivered.
    pub payload_bytes: u64,
    /// Total retransmissions observed.
    pub retransmits: u64,
    /// The first failure, minimised — `None` for an all-green sweep.
    pub failure: Option<FailureReport>,
}

/// Sweep `opts.seeds` consecutive seeds; on the first failure, shrink
/// it to a minimal reproducer and stop.
pub fn sweep(opts: &SweepOpts) -> SweepReport {
    let run_opts = RunOptions { inject_ring_bug: opts.inject_ring_bug };
    let mut rep = SweepReport::default();
    for i in 0..opts.seeds {
        let seed = opts.base_seed.wrapping_add(i as u64);
        let sc = Scenario::from_seed(seed);
        rep.kind_counts[sc.kind.index()] += 1;
        rep.seeds_run += 1;
        match run_caught(&sc, &run_opts) {
            Ok(stats) => {
                rep.passed += 1;
                rep.faults.absorb(stats.faults);
                rep.oracle_checks += stats.oracle_checks;
                rep.rounds += stats.rounds;
                rep.payload_bytes += stats.payload_bytes;
                rep.retransmits += stats.retransmits;
            }
            Err(_first_message) => {
                let (shrunk, message) =
                    shrink(&sc, Scenario::simpler, |s| run_scenario(s, &run_opts));
                let test_case = shrunk.to_test_case();
                rep.failure = Some(FailureReport { scenario: sc, shrunk, message, test_case });
                return rep;
            }
        }
    }
    rep
}
