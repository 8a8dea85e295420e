//! Health-engine oracles: seeded fault shapes that *must* trip their
//! detector, clean seeds that must trip none, and the proof that the
//! health machinery never perturbs the run it watches.
//!
//! Each trigger scenario is a deterministic world (fixed config, fixed
//! fault plan) whose verdict list is pinned **exactly** — not "storm
//! fired" but "these detectors and no others" — so a detector that
//! starts over- or under-firing breaks the suite immediately. The clean
//! sweep is the false-positive oracle: every seed-derived clean
//! workload must produce zero verdicts, and its observed run must match
//! its unobserved twin field for field (the recorder, flight rings and
//! health views are host-side bookkeeping with no [`memsim::Mem`]
//! traffic, so attaching them cannot change what the protocol does).

use obs::{Detector, Recorder, Verdict};
use server::{AggregateReport, Path, RoundRobin, ServerConfig};
use utcp::rng::XorShift64;
use utcp::{FaultPlan, FaultProbs};

use crate::recovery::twins_agree;
use crate::world::{recorder, World};

/// The distinct detectors in a (sorted) verdict list, in order.
pub fn detectors_of(verdicts: &[Verdict]) -> Vec<Detector> {
    let mut out: Vec<Detector> = verdicts.iter().map(|v| v.detector).collect();
    out.dedup();
    out
}

obs::labels! {
    /// A fault shape engineered to trip one specific detector.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Trigger {
        /// Deterministic heavy drops: retransmissions outnumber deliveries
        /// inside individual series windows.
        Storm => "storm",
        /// A clean start, then a total blackout: exponential back-off
        /// spirals while `snd_una` freezes, and delivery stops for multiples
        /// of the (capped) RTO.
        Blackout => "blackout",
        /// A deliberately undersized kernel-part slot pool: the queue
        /// high-water reaches capacity, where the loop-back's round-robin
        /// slot recycling starts overwriting queued datagrams in place.
        Saturation => "saturation",
        /// Skewed weights served by an unweighted scheduler: the
        /// weight-normalised Jain index collapses.
        Fairness => "fairness",
    }
}

impl Trigger {
    /// The exact detector set this shape must produce — nothing more,
    /// nothing less.
    pub fn expected(self) -> &'static [Detector] {
        match self {
            Trigger::Storm => &[Detector::RetransmitStorm],
            // Two quiet connections retreating exponentially emit far
            // too few retransmits per window to read as a storm — the
            // blackout's signature is the spiral and the stall.
            Trigger::Blackout => &[Detector::RtoSpiral, Detector::Stall],
            Trigger::Saturation => &[Detector::RetransmitStorm, Detector::QueueSaturation],
            Trigger::Fairness => &[Detector::FairnessCollapse],
        }
    }
}

/// Run one trigger scenario and verify its verdict list is exactly the
/// pinned expectation. Returns the verdicts for reporting.
pub fn run_trigger(trigger: Trigger) -> Result<Vec<Verdict>, String> {
    let verdicts = match trigger {
        Trigger::Storm => storm_world()?,
        Trigger::Blackout => blackout_world()?,
        Trigger::Saturation => saturation_world()?,
        Trigger::Fairness => fairness_world()?,
    };
    let got = detectors_of(&verdicts);
    if got != trigger.expected() {
        return Err(format!(
            "{}: expected detectors {:?}, got {:?} ({} verdicts)",
            trigger.name(),
            trigger.expected(),
            got,
            verdicts.len()
        ));
    }
    Ok(verdicts)
}

/// Drive a world to completion under a recorder and return its
/// verdicts and report.
fn run_to_completion(mut w: World) -> Result<(Vec<Verdict>, AggregateReport), String> {
    let mut rec = recorder();
    let report = w.run((Path::Ilp, &mut rec));
    if let Some(i) = w.verify_outputs() {
        return Err(format!("client {i} reassembled a corrupted file"));
    }
    Ok((w.h.health(&rec), report))
}

/// Heavy seeded drops: ~30% of datagrams (data *and* ACKs) vanish, so
/// windows fill with RTO retransmissions while deliveries crawl — the
/// storm detector's home ground. (Probabilistic rather than every-nth
/// drops: a deterministic stride can phase-lock with the retransmission
/// cadence and livelock the transfer.) The run still completes and
/// still delivers every byte intact; a storm is a performance
/// pathology, not a correctness failure. The dice seed is load-bearing:
/// the run now ends with a FIN/ACK teardown under the same ~50% two-way
/// loss, and a seed whose dice chain-drop one connection's FIN a few
/// times in a row back-offs its RTO far enough to read as an RtoSpiral
/// on top of the storm — this seed's teardown stays spiral-free.
fn storm_world() -> Result<Vec<Verdict>, String> {
    let cfg = ServerConfig {
        n_conns: 4,
        file_len: 32 * 1024,
        chunk: 512,
        faults: FaultPlan::seeded(8, FaultProbs { drop: 19_661, ..Default::default() }),
        ..Default::default()
    };
    let (verdicts, report) = run_to_completion(World::new(cfg))?;
    if report.retransmits == 0 {
        return Err("storm: the drop plan forced no retransmissions".into());
    }
    Ok(verdicts)
}

/// Ticks of clean traffic before the blackout begins.
const BLACKOUT_WARMUP: u64 = 10;

/// Blackout length: long enough for the RTO to back off to its cap
/// (8 → 16 → 32 → 64 → 128) and then idle past `stall_rtos` × that cap,
/// short enough that the ~7 back-off flight entries per connection
/// (two ring entries each) still fit the 16-slot flight ring beside the
/// warm-up entries.
const BLACKOUT_TICKS: u64 = 620;

/// Clean start, then the network goes completely dark. Mid-transfer
/// connections keep data in flight forever: back-offs spiral with
/// `snd_una` frozen (RtoSpiral) and delivery stops for multiples of
/// the capped RTO (Stall).
fn blackout_world() -> Result<Vec<Verdict>, String> {
    let cfg = ServerConfig {
        n_conns: 2,
        file_len: 64 * 1024,
        chunk: 512,
        ..Default::default()
    };
    let mut w = World::new(cfg);
    let (h, mut m) = w.parts();
    let mut sched = RoundRobin::new();
    let mut rec = recorder();
    let mut run = h.begin_run::<Recorder>();
    for _ in 0..BLACKOUT_WARMUP {
        if !h.step(&mut m, &mut sched, Path::Ilp, &mut rec, &mut run) {
            return Err("blackout: transfer finished before the blackout".into());
        }
    }
    h.lb.set_faults(FaultPlan { drop_every: 1, ..Default::default() });
    for _ in 0..BLACKOUT_TICKS {
        if !h.step(&mut m, &mut sched, Path::Ilp, &mut rec, &mut run) {
            return Err("blackout: transfer finished under a total blackout".into());
        }
    }
    let verdicts = h.health(&rec);
    // Both connections must be implicated by the per-connection
    // detectors — the blackout is global.
    for det in [Detector::RtoSpiral, Detector::Stall] {
        let conns: Vec<u32> =
            verdicts.iter().filter(|v| v.detector == det).filter_map(|v| v.conn).collect();
        if conns != [0, 1] {
            return Err(format!("blackout: {} named conns {conns:?}, want [0, 1]", det.name()));
        }
    }
    Ok(verdicts)
}

/// A slot pool far too small for the workload: four connections
/// bursting into four slots over a long transfer. The high-water hits
/// capacity (the loop-back then recycles slots round-robin, overwriting
/// queued datagrams in place), checksum rejections force retransmission
/// storms, and the transfer still completes intact — exactly the
/// incident the saturation verdict exists to explain. (The pool shrank
/// and the file grew when fast retransmit landed: dup-ACK recovery
/// repairs mild overwrite losses too quickly to read as a storm, so the
/// shape needs sustained pressure to keep retransmissions outnumbering
/// deliveries inside individual windows. The chunk halved to 256 B when
/// receivers began to ACK a drained burst once: the pool stopped
/// carrying an ACK per segment, and at 512 B what pressure was left
/// repaired fast enough to read as unfairness between the four rather
/// than as a storm; twice the datagrams per byte put it back.)
fn saturation_world() -> Result<Vec<Verdict>, String> {
    let cfg = ServerConfig {
        n_conns: 4,
        file_len: 16 * 1024,
        chunk: 256,
        ..Default::default()
    };
    let (verdicts, report) = run_to_completion(World::with_slots(cfg, Some(4)))?;
    if report.payload_bytes != 4 * 16 * 1024 {
        return Err(format!("saturation: delivered {} bytes", report.payload_bytes));
    }
    Ok(verdicts)
}

/// Weights [32, 1] served by the *unweighted* round-robin: both
/// connections get equal bytes, so the weight-normalised shares are
/// 32:1 apart and the Jain index collapses to ≈ 0.53 — the operator
/// misconfiguration (weighted workload, unweighted scheduler) the
/// fairness verdict names.
fn fairness_world() -> Result<Vec<Verdict>, String> {
    let cfg = ServerConfig {
        n_conns: 2,
        file_len: 8 * 1024,
        chunk: 512,
        weights: vec![32, 1],
        ..Default::default()
    };
    let (verdicts, report) = run_to_completion(World::new(cfg))?;
    if report.fairness >= 0.6 {
        return Err(format!("fairness: jain {} did not collapse", report.fairness));
    }
    Ok(verdicts)
}

/// A seed-derived *clean* workload: no faults, modest shapes. Must
/// produce zero verdicts, and its observed run must equal its
/// unobserved twin on every reported field.
pub fn run_clean(seed: u64) -> Result<u64, String> {
    let mut rng = XorShift64::new(seed);
    let cfg = ServerConfig {
        n_conns: 2 + rng.index(3),
        file_len: 1024 << rng.index(3),
        chunk: [256, 512, 1024][rng.index(3)],
        ..Default::default()
    };
    let mut twin = twins_agree(&cfg, Path::Ilp).map_err(|e| format!("clean seed {seed}: {e}"))?;
    if let Some(i) = twin.world.verify_outputs() {
        return Err(format!("clean seed {seed}: client {i} corrupted"));
    }
    let verdicts = twin.world.h.health(&twin.rec);
    if !verdicts.is_empty() {
        return Err(format!("clean seed {seed}: false positive {:?}", detectors_of(&verdicts)));
    }
    Ok(twin.checks + 2)
}

/// Sweep `seeds` consecutive clean seeds; returns the oracle
/// evaluations made. `Err` carries the first false positive or
/// observed/unobserved divergence.
pub fn clean_sweep(base_seed: u64, seeds: usize) -> Result<u64, String> {
    (0..seeds).map(|i| run_clean(base_seed.wrapping_add(i as u64))).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_trigger_produces_exactly_its_verdicts() {
        for t in Trigger::ALL {
            let verdicts = run_trigger(t).unwrap_or_else(|e| panic!("{e}"));
            assert!(!verdicts.is_empty(), "{} must fire", t.name());
        }
    }

    #[test]
    fn clean_seeds_produce_no_verdicts_and_observation_is_free() {
        let checks = clean_sweep(0xC0FFEE, 8).unwrap_or_else(|e| panic!("{e}"));
        assert!(checks >= 8 * 8, "each seed runs its full oracle set");
    }
}

