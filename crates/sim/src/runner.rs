//! The one seeded pipeline: seed → spec → world → sweep → shrink →
//! reproducer, and the [`Scenario`] worlds it runs most.
//!
//! A [`Spec`] is a plain value a seed denotes — a [`Scenario`] for the
//! transfer-class worlds, a [`crate::TeardownSpec`] for raw-pair
//! teardowns. [`sweep`] runs an optional prelude of pinned worlds and
//! then a contiguous block of seeds with one [`Mutant`] armed in every
//! world, totals their [`ScenarioStats`], and on the first failure
//! shrinks the spec ([`crate::shrink()`]) and renders a ready-to-paste
//! `#[test]` whose seed replays it. Assertion-class failures (protocol
//! stalls, out-of-bounds ring extents reaching `Region::at`) panic; the
//! sweep turns panics into failures with the panic message.

use memsim::layout::AddressSpace;
use obs::Counter;
use server::{AggregateReport, DeficitRoundRobin, Path, RoundRobin, SchedPolicy, Scheduler, ServerConfig};
use utcp::{Connection, Loopback, SendRing};

use crate::oracle::{check_conservation, check_segtrace};
use crate::scenario::Scenario;
use crate::shrink::{caught, shrink};
use crate::world::{recorder, World};

/// Why arming a mutant panics in a build without the switches.
const NEEDS_MUTATION: &str = "arming a mutant needs sim's `mutation` feature (tests and examples \
     enable it through dev-dependencies; release code never carries the switches)";

/// A deliberate bug the sweep arms in every world it builds — the proof
/// that an oracle has teeth. Anything but `None` needs the `mutation`
/// feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mutant {
    /// The code as shipped.
    #[default]
    None,
    /// The send ring's historical saturated-tail wrap
    /// (`SendRing::inject_legacy_wrap_bug`).
    RingWrap,
    /// A receiver that accepts data after the FIN it processed
    /// (`Connection::inject_accept_after_fin_bug`).
    AcceptAfterFin,
}

impl Mutant {
    /// Arm this mutant in `_c`: the wrap in its send ring, the post-FIN
    /// accept in its receive gate.
    pub(crate) fn arm(self, _c: &mut Connection) {
        assert!(cfg!(feature = "mutation") || self == Mutant::None, "{NEEDS_MUTATION}");
        #[cfg(feature = "mutation")]
        {
            _c.inject_legacy_wrap_bug(self == Mutant::RingWrap);
            _c.inject_accept_after_fin_bug(self == Mutant::AcceptAfterFin);
        }
    }

    /// Arm this mutant in a bare send ring (the ring-fuzz world).
    fn arm_ring(self, _r: &mut SendRing) {
        assert!(cfg!(feature = "mutation") || self == Mutant::None, "{NEEDS_MUTATION}");
        #[cfg(feature = "mutation")]
        _r.inject_legacy_wrap_bug(self == Mutant::RingWrap);
    }
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
    /// What a loop-back has injected so far.
    pub(crate) fn of(lb: &Loopback) -> FaultTotals {
        FaultTotals {
            dropped: lb.dropped,
            duplicated: lb.duplicated,
            reordered: lb.reordered,
            corrupted: lb.corrupted,
            delayed: lb.delayed_count,
        }
    }

    /// Add another total into this one.
    pub fn absorb(&mut self, other: FaultTotals) {
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.reordered += other.reordered;
        self.corrupted += other.corrupted;
        self.delayed += other.delayed;
    }
}

/// What one passing world did (or a sweep's passing worlds, summed).
#[derive(Debug, Clone, Copy, Default)]
pub struct ScenarioStats {
    /// Fault mix the kernel part injected.
    pub faults: FaultTotals,
    /// Individual oracle evaluations that passed.
    pub oracle_checks: u64,
    /// Scheduling rounds (max across the runs a world performs).
    pub rounds: u64,
    /// Application payload bytes delivered.
    pub payload_bytes: u64,
    /// Retransmissions forced.
    pub retransmits: u64,
}

impl ScenarioStats {
    /// Add another world's stats into this total.
    pub fn absorb(&mut self, other: ScenarioStats) {
        self.faults.absorb(other.faults);
        self.oracle_checks += other.oracle_checks;
        self.rounds += other.rounds;
        self.payload_bytes += other.payload_bytes;
        self.retransmits += other.retransmits;
    }
}

/// A seeded world: what [`sweep`] generates, runs, shrinks and renders.
/// A spec *is* its field values plus its seed, so the shrinker may edit
/// fields and the result still replays deterministically.
pub trait Spec: Copy + std::fmt::Debug {
    /// The world a seed denotes.
    fn from_seed(seed: u64) -> Self;
    /// Run the world under every oracle that applies, `mutant` armed.
    /// `Err` carries the first violated property.
    fn run(&self, mutant: Mutant) -> Result<ScenarioStats, String>;
    /// The shrink ladder: strictly simpler candidates, simplest first in
    /// each dimension.
    fn simpler(&self) -> Vec<Self>;
    /// A ready-to-paste `#[test]` replaying this spec.
    fn to_test_case(&self) -> String;
}

/// A named world with nothing to shrink; returns its oracle evaluations.
pub type PinnedWorld = (&'static str, fn(Mutant) -> Result<u64, String>);

/// A sweep's shape.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepOpts {
    /// First seed; seed `i` of the sweep is `base_seed + i`.
    pub base_seed: u64,
    /// Number of consecutive seeds to run.
    pub seeds: usize,
    /// Armed in every world of the sweep.
    pub mutant: Mutant,
    /// Worlds run before the seeded ones.
    pub prelude: &'static [PinnedWorld],
}

/// A sweep's first failure, minimised.
#[derive(Debug, Clone)]
pub struct FailureReport<S> {
    /// The seeded spec that failed (`None`: a pinned world did — it has
    /// no spec to blame and already is a committed test).
    pub spec: Option<S>,
    /// Its shrunk, still-failing form.
    pub shrunk: Option<S>,
    /// What broke: the shrunk spec's failure, or the pinned world's,
    /// prefixed with its name.
    pub message: String,
    /// `#[test]` source reproducing the shrunk spec (empty for a pinned
    /// world).
    pub test_case: String,
}

/// What a sweep did. It stops at the first failure (after shrinking
/// it); `seeds_run` counts how far it got.
#[derive(Debug, Clone)]
pub struct SweepReport<S> {
    /// Seeded worlds executed.
    pub seeds_run: usize,
    /// Worlds (pinned and seeded) whose every oracle passed.
    pub passed: usize,
    /// The passing worlds' stats, summed.
    pub totals: ScenarioStats,
    /// The first failure, minimised — `None` for an all-green sweep.
    pub failure: Option<FailureReport<S>>,
}

/// Run `opts.prelude`, then `opts.seeds` consecutive seeds, with
/// `opts.mutant` armed; on the first failure, shrink it to a minimal
/// reproducer and stop.
pub fn sweep<S: Spec>(opts: &SweepOpts) -> SweepReport<S> {
    let mut rep =
        SweepReport { seeds_run: 0, passed: 0, totals: ScenarioStats::default(), failure: None };
    for &(name, world) in opts.prelude {
        match caught(|| world(opts.mutant)) {
            Ok(checks) => {
                rep.passed += 1;
                rep.totals.oracle_checks += checks;
            }
            Err(e) => {
                let message = format!("pinned world {name}: {e}");
                rep.failure =
                    Some(FailureReport { spec: None, shrunk: None, message, test_case: String::new() });
                return rep;
            }
        }
    }
    for i in 0..opts.seeds {
        let spec = S::from_seed(opts.base_seed.wrapping_add(i as u64));
        rep.seeds_run += 1;
        match caught(|| spec.run(opts.mutant)) {
            Ok(stats) => {
                rep.passed += 1;
                rep.totals.absorb(stats);
            }
            Err(_) => {
                let (shrunk, message) = shrink(&spec, opts.mutant);
                let test_case = shrunk.to_test_case();
                rep.failure =
                    Some(FailureReport { spec: Some(spec), shrunk: Some(shrunk), message, test_case });
                return rep;
            }
        }
    }
    rep
}

/// Direct alloc/ack fuzz of the send ring. Lens are divisors of the
/// capacity so the tail regularly lands exactly on `capacity` — the
/// corner the legacy wrap bug lived in.
pub(crate) fn run_ring(sc: &Scenario, mutant: Mutant) -> Result<ScenarioStats, String> {
    let mut rng = sc.ring_ops_rng();
    let cap = sc.ring_capacity;
    let mut space = AddressSpace::new();
    let region = space.alloc_kind("sim_ring", cap, 64, memsim::RegionKind::Ring);
    let mut r = SendRing::new(region);
    mutant.arm_ring(&mut r);
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
        file_len: sc.file_len,
        chunk: sc.chunk,
        faults: sc.fault_plan(),
        ring_capacity: sc.ring_capacity,
        max_rounds: 500_000,
        // Seed-derived sampling stride (1..=3): every scenario traces a
        // different subset of chunks, and the segtrace oracle demands a
        // complete causally-ordered chain for each one. Tracing rides
        // out of band, so the run itself is bit-identical at any stride.
        trace_every: 1 + (sc.seed % 3) as u32,
        ..Default::default()
    }
}

/// Everything one observed single-threaded run yields: its report, each
/// client's progress, the fault mix and the oracle evaluations.
type TransferRun = (AggregateReport, Vec<(u64, u64, u64)>, FaultTotals, u64);

/// Drive one world to completion on `path` with per-tick oracles.
fn run_one_path(sc: &Scenario, mutant: Mutant, path: Path) -> Result<TransferRun, String> {
    let mut w = World::new(server_config(sc));
    w.arm(mutant);
    let mut sched: Box<dyn Scheduler> = if sc.deficit {
        Box::new(DeficitRoundRobin::for_config(w.h.config(), sc.chunk as u32))
    } else {
        Box::new(RoundRobin::new())
    };
    let mut rec = recorder();
    let (_, ticked) =
        w.run_checked(sched.as_mut(), path, &mut rec).map_err(|e| format!("{path:?} {e}"))?;
    let (h, mut m) = w.parts();
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
    let mut checks = ticked + 2;
    checks += check_conservation(&rec).map_err(|e| format!("{path:?}: obs: {e}"))?;
    checks += check_segtrace(&rec, h.config().trace_every, sc.n_conns, sc.file_len.div_ceil(sc.chunk))
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
    let per_conn = (0..sc.n_conns).map(|i| h.client_progress(i)).collect();
    Ok((report, per_conn, FaultTotals::of(&h.lb), checks))
}

/// Full transfer scenario: run the identical world on the ILP and the
/// non-ILP path, then require behavioural equivalence — the two
/// implementations differ in memory traffic, never in protocol
/// behaviour, so under the same fault seed they must drop, retransmit,
/// reject, and deliver identically.
pub(crate) fn run_transfer(sc: &Scenario, mutant: Mutant) -> Result<ScenarioStats, String> {
    let (ilp, ilp_conns, ilp_faults, ilp_checks) = run_one_path(sc, mutant, Path::Ilp)?;
    let (non, non_conns, non_faults, non_checks) = run_one_path(sc, mutant, Path::NonIlp)?;
    let pairs = [
        ("payload_bytes", ilp.payload_bytes, non.payload_bytes),
        ("rejected", ilp.rejected, non.rejected),
        ("retransmits", ilp.retransmits, non.retransmits),
        ("corrupted", ilp.corrupted, non.corrupted),
        ("rounds", ilp.rounds, non.rounds),
    ];
    for (what, a, b) in pairs {
        if a != b {
            return Err(format!("ILP/non-ILP diverge on {what}: {a} vs {b}"));
        }
    }
    if ilp_conns != non_conns {
        return Err(format!("ILP/non-ILP diverge per connection: {ilp_conns:?} vs {non_conns:?}"));
    }
    let mut stats = ScenarioStats {
        faults: ilp_faults,
        oracle_checks: ilp_checks + non_checks + pairs.len() as u64 + 1,
        rounds: ilp.rounds.max(non.rounds),
        payload_bytes: ilp.payload_bytes,
        retransmits: ilp.retransmits,
    };
    stats.faults.absorb(non_faults);
    Ok(stats)
}

/// Sharded scenario: post-run oracles over a multi-threaded run —
/// global delivery, zero cross-talk, and merged-recorder conservation
/// (merged counters must equal the per-shard sums, and the merged
/// series must conserve the merged counters). `server::run_sharded`
/// builds its shards' worlds itself, so no mutant reaches them.
pub(crate) fn run_sharded_scenario(sc: &Scenario) -> Result<ScenarioStats, String> {
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
    checks += check_segtrace(&rep.merged, cfg.trace_every, sc.n_conns, sc.file_len.div_ceil(sc.chunk))
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
