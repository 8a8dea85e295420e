//! Loss-recovery oracles: seeded worlds whose recovery *mechanism* is
//! pinned, not just their outcome.
//!
//! The transfer sweep already proves every faulted run delivers every
//! byte; these worlds additionally pin **how**:
//!
//! * a single mid-transfer drop must be repaired by exactly one fast
//!   retransmission — duplicate ACKs, not the retransmission timer, so
//!   zero RTO back-offs and no slow-start collapse;
//! * a burst drop opens a multi-segment hole that SACK + NewReno
//!   partial ACKs must fill with one resend per segment, again without
//!   the timer;
//! * reordering alone (the loop-back swaps adjacent datagrams) must
//!   *not* arm fast retransmit — the three-dup-ACK threshold exists
//!   precisely to ride out reordering (RFC 5681 §3.2);
//! * under seeded random drops the recovering stack must beat the
//!   RTO-only baseline (`loss_recovery: false`) on goodput — same
//!   seed, same drops, strictly fewer rounds for the same bytes.
//!
//! Every world runs the full per-tick oracle set ([`crate::oracle`]),
//! so the cwnd invariants are enforced *while* recovery happens, and
//! each asserts ILP and non-ILP agree. [`twins_agree`] is the one
//! observed ≡ unobserved comparison (the clean health sweep uses it
//! too).

use obs::{Counter, Recorder};
use server::{AggregateReport, Path, RoundRobin, Scheduler, ServerConfig};
use utcp::{FaultPlan, FaultProbs};

use crate::world::{recorder, World};

/// What a recovery world did, for assertions and reporting.
#[derive(Debug, Clone)]
pub struct RecoveryOutcome {
    /// The run's aggregate report.
    pub report: AggregateReport,
    /// `Counter::FastRetransmits` — dup-ACK/SACK-driven resends.
    pub fast_retransmits: u64,
    /// `Counter::RtoBackoffs` — timer firings.
    pub rto_backoffs: u64,
    /// `Counter::SackedBytes` — bytes the scoreboard learned from SACK.
    pub sacked_bytes: u64,
    /// Datagrams the kernel part swapped out of order.
    pub reordered: u64,
    /// Oracle evaluations performed.
    pub checks: u64,
}

/// One connection, four 512-byte chunks: dropping the first data TPDU
/// leaves exactly three later segments to clock dup ACKs back — the
/// fast-retransmit threshold, with every out-of-order segment held in
/// the receiver's three SACK slots, so recovery is a single resend.
fn recovery_config(faults: FaultPlan, loss_recovery: bool) -> ServerConfig {
    ServerConfig {
        n_conns: 1,
        file_len: 4 * 512,
        chunk: 512,
        faults,
        ring_capacity: 16 * 1024,
        max_rounds: 500_000,
        loss_recovery,
        trace_every: 1,
        ..Default::default()
    }
}

/// Drive one recovery world to completion under the per-tick oracles
/// and return its counters.
pub fn run_recovery_world(
    cfg: ServerConfig,
    path: Path,
) -> Result<RecoveryOutcome, String> {
    let expected = (cfg.n_conns * cfg.file_len) as u64;
    let mut w = World::new(cfg);
    let mut sched = RoundRobin::new();
    let mut rec = recorder();
    let (_, checks, _) =
        w.run_checked(&mut sched, path, &mut rec).map_err(|e| format!("{path:?} {e}"))?;
    let report = w.h.finish_run(&mut rec, sched.name());
    if let Some(i) = w.verify_outputs() {
        return Err(format!("{path:?}: client {i} reassembled a corrupted file"));
    }
    if report.payload_bytes != expected {
        return Err(format!(
            "{path:?}: delivered {} bytes, expected {expected}",
            report.payload_bytes
        ));
    }
    Ok(RecoveryOutcome {
        fast_retransmits: rec.counter(Counter::FastRetransmits),
        rto_backoffs: rec.counter(Counter::RtoBackoffs),
        sacked_bytes: rec.counter(Counter::SackedBytes),
        reordered: w.h.lb.reordered,
        checks: checks + 2,
        report,
    })
}

/// The kernel-part send index (1-based) of the first data TPDU in
/// [`recovery_config`]'s world — three handshake datagrams precede it.
/// Found by probing; pinned by the assertions below, so if the
/// handshake or ACK cadence ever shifts, the fast-retransmit count
/// changes and the oracle fails loudly rather than silently dropping
/// the wrong datagram.
const MID_TRANSFER_DATA: u64 = 4;

/// The single-drop world's config (public so the `dst_repro` example
/// and the observed/unobserved twin check replay the identical world).
pub fn single_drop_config() -> ServerConfig {
    let faults = FaultPlan { drop_at: MID_TRANSFER_DATA, drop_burst: 1, ..Default::default() };
    recovery_config(faults, true)
}

/// The burst-drop world's config: one more chunk than the single-drop
/// world, so three segments still arrive *behind* the two-segment hole
/// to reach the dup-ACK threshold.
pub fn burst_drop_config() -> ServerConfig {
    let faults = FaultPlan { drop_at: MID_TRANSFER_DATA, drop_burst: 2, ..Default::default() };
    let mut cfg = recovery_config(faults, true);
    cfg.file_len = 5 * 512;
    cfg
}

/// Single mid-transfer drop: repaired by exactly one fast retransmit,
/// zero RTO back-offs, with SACK evidence on the dup ACKs.
pub fn single_drop(path: Path) -> Result<RecoveryOutcome, String> {
    let out = run_recovery_world(single_drop_config(), path)?;
    if out.fast_retransmits != 1 {
        return Err(format!(
            "single drop: {} fast retransmits, want exactly 1",
            out.fast_retransmits
        ));
    }
    if out.rto_backoffs != 0 {
        return Err(format!(
            "single drop: {} RTO back-offs — the timer fired on a dup-ACK-repairable loss",
            out.rto_backoffs
        ));
    }
    if out.sacked_bytes == 0 {
        return Err("single drop: dup ACKs carried no SACK blocks".into());
    }
    if out.report.retransmits != 1 {
        return Err(format!("single drop: {} total retransmits, want 1", out.report.retransmits));
    }
    Ok(out)
}

/// Burst drop: two consecutive data segments vanish; the hole spans
/// two segments and SACK + NewReno partial ACKs fill it with exactly
/// one resend each, still without the timer.
pub fn burst_drop(path: Path) -> Result<RecoveryOutcome, String> {
    let out = run_recovery_world(burst_drop_config(), path)?;
    if out.fast_retransmits != 2 {
        return Err(format!(
            "burst drop: {} fast retransmits, want exactly 2 (one per lost segment)",
            out.fast_retransmits
        ));
    }
    if out.rto_backoffs != 0 {
        return Err(format!("burst drop: {} RTO back-offs, want none", out.rto_backoffs));
    }
    if out.report.retransmits != 2 {
        return Err(format!("burst drop: {} total retransmits, want 2", out.report.retransmits));
    }
    Ok(out)
}

/// Reordering alone: adjacent swaps shuffle delivery but lose nothing.
/// At most one or two dup ACKs per swap — never the three that arm
/// fast retransmit, and never an RTO.
pub fn reorder_only(path: Path) -> Result<RecoveryOutcome, String> {
    let faults = FaultPlan { reorder_every: 3, ..Default::default() };
    let out = run_recovery_world(recovery_config(faults, true), path)?;
    if out.reordered == 0 {
        return Err("reorder: the fault plan never fired".into());
    }
    if out.fast_retransmits != 0 {
        return Err(format!(
            "reorder: {} fast retransmits — reordering misread as loss",
            out.fast_retransmits
        ));
    }
    if out.report.retransmits != 0 {
        return Err(format!("reorder: {} retransmits, want none", out.report.retransmits));
    }
    Ok(out)
}

/// Seeded ~1% random drop, recovery on vs. the RTO-only baseline:
/// identical seed, identical dice, so the *same datagrams die* — and
/// the recovering stack must finish in strictly fewer rounds (higher
/// goodput for the same bytes). Returns `(recovering, rto_only)`
/// rounds.
pub fn goodput_beats_rto_only(seed: u64, path: Path) -> Result<(u64, u64), String> {
    let probs = FaultProbs { drop: 655, ..Default::default() };
    let mut rounds = [0u64; 2];
    for (slot, loss_recovery) in [(0, true), (1, false)] {
        let mut cfg = recovery_config(FaultPlan::seeded(seed, probs), loss_recovery);
        // More data, so the seeded dice actually land drops on it.
        cfg.file_len = 64 * 512;
        let out = run_recovery_world(cfg, path)?;
        rounds[slot] = out.report.rounds;
        if loss_recovery && out.fast_retransmits == 0 {
            return Err(format!("goodput seed {seed}: no drop hit data — pick another seed"));
        }
        if !loss_recovery && out.fast_retransmits != 0 {
            return Err(format!(
                "goodput seed {seed}: RTO-only baseline fast-retransmitted {} times",
                out.fast_retransmits
            ));
        }
    }
    if rounds[0] >= rounds[1] {
        return Err(format!(
            "goodput seed {seed}: recovery took {} rounds, RTO-only took {} — \
             fast retransmit must win",
            rounds[0], rounds[1]
        ));
    }
    Ok((rounds[0], rounds[1]))
}

/// An observed run that matched its unobserved twin.
#[derive(Debug)]
pub struct Twin {
    /// The observed world, after its run.
    pub world: World,
    /// The observed run's recorder.
    pub rec: Recorder,
    /// The observed run's report.
    pub report: AggregateReport,
    /// Comparisons made.
    pub checks: u64,
}

/// Observed ≡ unobserved twin: run `cfg`'s world once under a
/// recorder and once unobserved. The recorder, flight rings, segment
/// store and health views are host-side bookkeeping with no
/// [`memsim::Mem`] traffic, so every reported field — the recovery
/// trace and the fairness index included — must match exactly.
pub fn twins_agree(cfg: &ServerConfig, path: Path) -> Result<Twin, String> {
    let mut world = World::new(cfg.clone());
    let mut rec = recorder();
    let a = world.run((path, &mut rec));
    let b = World::new(cfg.clone()).run(path);
    let fields = [
        ("payload_bytes", a.payload_bytes, b.payload_bytes),
        ("rounds", a.rounds, b.rounds),
        ("retransmits", a.retransmits, b.retransmits),
        ("fast_retransmits", a.fast_retransmits, b.fast_retransmits),
        ("rejected", a.rejected, b.rejected),
        ("fairness", a.fairness.to_bits(), b.fairness.to_bits()),
    ];
    for (what, x, y) in fields {
        if x != y {
            return Err(format!("observed/unobserved diverge on {what}: {x} vs {y}"));
        }
    }
    if a.per_conn != b.per_conn {
        return Err("observed/unobserved diverge on per-connection stats".into());
    }
    Ok(Twin { world, rec, report: a, checks: fields.len() as u64 + 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_drop_repairs_by_fast_retransmit_on_both_paths() {
        for path in [Path::Ilp, Path::NonIlp] {
            let a = single_drop(path).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(a.fast_retransmits, 1);
        }
    }

    #[test]
    fn burst_drop_fills_every_hole_without_the_timer() {
        for path in [Path::Ilp, Path::NonIlp] {
            let a = burst_drop(path).unwrap_or_else(|e| panic!("{e}"));
            assert!(a.sacked_bytes > 0, "hole filling must be SACK-guided");
        }
    }

    #[test]
    fn reordering_is_not_loss() {
        for path in [Path::Ilp, Path::NonIlp] {
            reorder_only(path).unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn recovery_beats_rto_only_under_seeded_drops() {
        // `exp_loss`'s seed (EXPERIMENTS E38).
        let (fast, slow) = goodput_beats_rto_only(0x12, Path::Ilp).unwrap_or_else(|e| panic!("{e}"));
        assert!(fast < slow, "{fast} vs {slow}");
    }

    #[test]
    fn recovery_worlds_observed_equals_unobserved() {
        for cfg in [single_drop_config(), burst_drop_config()] {
            for path in [Path::Ilp, Path::NonIlp] {
                twins_agree(&cfg, path).unwrap_or_else(|e| panic!("{e}"));
            }
        }
    }

    #[test]
    fn recovery_worlds_agree_across_paths() {
        // ILP and non-ILP differ in memory traffic, never behaviour:
        // the same one-shot drop produces identical recovery traces.
        let a = single_drop(Path::Ilp).unwrap_or_else(|e| panic!("{e}"));
        let b = single_drop(Path::NonIlp).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(a.report.rounds, b.report.rounds);
        assert_eq!(a.sacked_bytes, b.sacked_bytes);
        assert_eq!(a.report.retransmits, b.report.retransmits);
    }
}
