//! The pick sequence is the program: every simulated baseline (the
//! 1 → 1 024-connection scale sweep, the DST sweep, churn, loss, health,
//! trace) is a function of which connection the scheduler names
//! at each pick. These tests pin that sequence for three shapes as
//! FNV-1a digests recorded on the commit *before* the harness stopped
//! rebuilding its ready set per pick, and check — at every pick — the
//! contract the harness now keeps towards [`Scheduler::pick`]: one
//! buffer, ascending, duplicate-free, and within a round changed only
//! by removing the connection that was just served.

use memsim::layout::AddressSpace;
use memsim::NativeMem;
use obs::NoopObserver;
use server::{
    ConnId, DeficitRoundRobin, Path, RoundRobin, ScaleHarness, Scheduler, ServerConfig,
};
use utcp::FaultPlan;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Folded into the digest when a round ends, so the digest also pins
/// *which round* each pick fell in.
const ROUND_MARK: u32 = u32::MAX;

/// A [`Scheduler`] that forwards to `inner`, digests what it picked and
/// checks the ready slice it was shown.
struct Recording<S> {
    inner: S,
    digest: u64,
    picks: u64,
    /// Address of the first ready slice of the run.
    buf: Option<usize>,
    /// The previous pick of this round: the slice shown and the id
    /// chosen from it. `None` at the start of a round.
    prev: Option<(Vec<usize>, usize)>,
}

impl<S: Scheduler> Recording<S> {
    fn new(inner: S) -> Self {
        Recording { inner, digest: FNV_OFFSET, picks: 0, buf: None, prev: None }
    }

    fn fold(&mut self, word: u32) {
        for b in word.to_le_bytes() {
            self.digest = (self.digest ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// The harness finished a scheduling round.
    fn end_round(&mut self) {
        self.fold(ROUND_MARK);
        self.prev = None;
    }
}

impl<S: Scheduler> Scheduler for Recording<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn pick(&mut self, ready: &[ConnId]) -> Option<ConnId> {
        let shown: Vec<usize> = ready.iter().map(|c| c.index()).collect();
        assert!(
            shown.windows(2).all(|w| w[0] < w[1]),
            "ready set must be ascending and duplicate-free: {shown:?}"
        );
        let addr = ready.as_ptr() as usize;
        assert_eq!(
            *self.buf.get_or_insert(addr),
            addr,
            "pick {}: the ready set moved — it is rebuilt, not maintained",
            self.picks
        );
        if let Some((before, served)) = self.prev.take() {
            let without: Vec<usize> = before.iter().copied().filter(|&c| c != served).collect();
            assert!(
                shown == before || shown == without,
                "within a round the ready set may only lose the connection just served \
                 ({served}): {before:?} -> {shown:?}"
            );
        }
        let picked = self.inner.pick(ready)?;
        assert!(shown.contains(&picked.index()), "picked {picked:?} outside the ready set");
        self.fold(picked.index() as u32);
        self.picks += 1;
        self.prev = Some((shown, picked.index()));
        Some(picked)
    }

    fn charge(&mut self, conn: ConnId, bytes: usize) {
        self.inner.charge(conn, bytes);
    }
}

/// Run `cfg` to completion on the ILP path under `sched`; returns
/// (digest, picks, rounds).
fn pick_digest<S: Scheduler>(cfg: ServerConfig, sched: S) -> (u64, u64, u64) {
    let mut space = AddressSpace::new();
    let mut h = ScaleHarness::simplified(&mut space, cfg);
    let mut arena = space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    h.init_world(&mut m);
    let mut rec = Recording::new(sched);
    let mut obs = NoopObserver;
    let mut run = h.begin_run::<NoopObserver>();
    loop {
        let more = h.step(&mut m, &mut rec, Path::Ilp, &mut obs, &mut run);
        rec.end_round();
        if !more {
            break;
        }
    }
    let report = h.finish_run(&mut obs, rec.name());
    assert_eq!(h.verify_outputs(&mut m), None, "every byte must still arrive");
    (rec.digest, rec.picks, report.rounds)
}

/// 64 connections × 16 KiB through a 4 KiB ring: every connection is
/// flow-controlled out of the ready set several times per transfer.
fn small_ring() -> ServerConfig {
    ServerConfig { n_conns: 64, file_len: 16 * 1024, ring_capacity: 4 * 1024, ..Default::default() }
}

#[test]
fn round_robin_pick_sequence_is_the_recorded_one() {
    let (digest, picks, rounds) = pick_digest(small_ring(), RoundRobin::new());
    assert_eq!((digest, picks, rounds), (0xE7CC_8612_7493_ECB1, 1024, 9));
}

#[test]
fn deficit_round_robin_pick_sequence_is_the_recorded_one() {
    let cfg = ServerConfig { weights: (1..=64).collect(), ..small_ring() };
    let sched = DeficitRoundRobin::for_config(&cfg, cfg.chunk as u32);
    let (digest, picks, rounds) = pick_digest(cfg, sched);
    assert_eq!((digest, picks, rounds), (0x1FF6_08F1_47B9_0031, 1024, 9));
}

#[test]
fn pick_sequence_under_drops_is_the_recorded_one() {
    // Retransmissions refill rings and reopen windows between rounds, so
    // connections leave and rejoin the ready set out of step. (Re-recorded
    // once, when receivers began to ACK a drained burst once: the
    // loop-back carries fewer ACK datagrams, so every 11th datagram is a
    // different segment. Picks and rounds did not move, and the two
    // fault-free digests above are the originals. Re-recorded again for
    // the three-datagram open of EXPERIMENTS E38; the fault-free digests
    // did not move.)
    let cfg = ServerConfig {
        n_conns: 256,
        file_len: 4 * 1024,
        faults: FaultPlan { drop_every: 11, ..Default::default() },
        ..Default::default()
    };
    let (digest, picks, rounds) = pick_digest(cfg, RoundRobin::new());
    assert_eq!((digest, picks, rounds), (0x12F8_DCB9_3FC5_56A1, 1024, 69));
}
