//! Scenario generation: one seed → one fully-determined workload.
//!
//! A [`Scenario`] is a plain value. [`Spec::from_seed`] fills the
//! fields from forked PRNG streams, but the *runner* consumes only the
//! fields (plus the seed, for the fault dice and the ring-fuzz op
//! stream) — so the shrinker can override individual fields and the
//! result still replays deterministically.

use utcp::rng::XorShift64;
use utcp::{FaultPlan, FaultProbs};

use crate::runner::{run_ring, run_sharded_scenario, run_transfer, Mutant, ScenarioStats, Spec};
use crate::shrink::calmer;

/// Fork ids of the component streams hanging off a spec's seed (every
/// [`Spec`] forks the same ids). Fixed so a seed means the same world
/// forever.
pub(crate) mod stream {
    /// Workload shape (kind, connection count, sizes, scheduler).
    pub const SHAPE: u64 = 0;
    /// Fault probabilities.
    pub const FAULTS: u64 = 1;
    /// Seed of the kernel part's fault dice.
    pub const DICE: u64 = 2;
    /// Ring-fuzz operation stream.
    pub const RING_OPS: u64 = 3;
}

obs::labels! {
    /// What kind of world a scenario drives.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum ScenarioKind {
        /// Direct [`utcp::SendRing`] alloc/ack fuzz — no transfer, just the
        /// allocator under adversarial sequences (the cheapest kind, and
        /// the one that corners the saturated-tail wrap).
        Ring => "ring",
        /// A full multi-connection file-transfer world, run on **both** the
        /// ILP and the non-ILP path with per-tick oracles, then compared
        /// for behavioural equivalence.
        Transfer => "transfer",
        /// A sharded (multi-threaded) run with post-run oracles: global
        /// delivery, zero cross-talk, and merged-recorder conservation.
        Sharded => "sharded",
    }
}

impl ScenarioKind {
    /// How many of the `seeds` scenarios from `base_seed` are of each
    /// kind, indexed by [`ScenarioKind::index`].
    pub fn mix(base_seed: u64, seeds: usize) -> [usize; ScenarioKind::ALL.len()] {
        let mut mix = [0; ScenarioKind::ALL.len()];
        for i in 0..seeds {
            mix[Scenario::from_seed(base_seed.wrapping_add(i as u64)).kind.index()] += 1;
        }
        mix
    }
}

/// One fully-determined simulation scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scenario {
    /// Root seed. Drives the fault dice and the ring-fuzz op stream;
    /// the other fields were *derived* from it by [`Scenario::from_seed`]
    /// but are authoritative on their own (the shrinker edits them).
    pub seed: u64,
    /// World kind.
    pub kind: ScenarioKind,
    /// Concurrent connections (1..=6; ≥ 2 for [`ScenarioKind::Sharded`]).
    pub n_conns: usize,
    /// File length per connection, bytes.
    pub file_len: usize,
    /// Payload bytes per chunk.
    pub chunk: usize,
    /// Send-ring capacity per server connection ([`ScenarioKind::Ring`]:
    /// the fuzzed ring's capacity).
    pub ring_capacity: usize,
    /// Deficit-weighted scheduling instead of plain round-robin.
    pub deficit: bool,
    /// Per-datagram fault probabilities (parts per 65536).
    pub probs: FaultProbs,
}

impl Scenario {
    /// The fault plan this scenario installs on the kernel part.
    pub fn fault_plan(&self) -> FaultPlan {
        FaultPlan::seeded(XorShift64::new(self.seed).fork(stream::DICE).next_u64(), self.probs)
    }

    /// The op stream for [`ScenarioKind::Ring`] fuzzing.
    pub fn ring_ops_rng(&self) -> XorShift64 {
        XorShift64::new(self.seed).fork(stream::RING_OPS)
    }
}

impl Spec for Scenario {
    fn from_seed(seed: u64) -> Scenario {
        let root = XorShift64::new(seed);
        let mut shape = root.fork(stream::SHAPE);
        let kind = match shape.below(8) {
            0..=2 => ScenarioKind::Ring,
            3..=6 => ScenarioKind::Transfer,
            _ => ScenarioKind::Sharded,
        };
        let n_conns = match kind {
            ScenarioKind::Sharded => 2 + shape.index(5), // 2..=6
            _ => 1 + shape.index(6),                     // 1..=6
        };
        let chunk = [64, 128, 256, 512][shape.index(4)];
        // 2..=6 chunks per file keeps a sweep of thousands of seeds
        // inside the CI budget while still exercising multi-chunk
        // reassembly and retransmission.
        let file_len = chunk * (2 + shape.index(5));
        // Ring sized in *padded-chunk* units (chunk + headers + cipher
        // padding ≤ chunk + 64): 2–5 segments fit, so fault-induced
        // retransmission backlogs regularly wrap the tail.
        let ring_capacity = match kind {
            ScenarioKind::Ring => [64, 96, 128, 256][shape.index(4)],
            _ => (chunk + 64) * (2 + shape.index(4)),
        };
        let deficit = shape.below(2) == 1;
        let mut f = root.fork(stream::FAULTS);
        // Each fault kind is armed independently with probability 1/2;
        // an armed kind fires on up to ~5 % of datagrams (delay ~2 %).
        // Calm enough that every run terminates, noisy enough that a
        // sweep exercises drop+dup+reorder+corrupt+delay combinations.
        let arm = |f: &mut XorShift64, scale: u64| -> u16 {
            if f.below(2) == 1 {
                f.below(scale) as u16 + 64
            } else {
                0
            }
        };
        let probs = FaultProbs {
            drop: arm(&mut f, 3 * 1024),
            dup: arm(&mut f, 3 * 1024),
            reorder: arm(&mut f, 3 * 1024),
            corrupt: arm(&mut f, 3 * 1024),
            delay: arm(&mut f, 1024),
        };
        Scenario { seed, kind, n_conns, file_len, chunk, ring_capacity, deficit, probs }
    }

    /// Ring fuzz, or a transfer world on both paths, or a sharded run.
    /// (A mutant cannot reach the sharded kind's worlds.)
    fn run(&self, mutant: Mutant) -> Result<ScenarioStats, String> {
        match self.kind {
            ScenarioKind::Ring => run_ring(self, mutant),
            ScenarioKind::Transfer => run_transfer(self, mutant),
            ScenarioKind::Sharded => run_sharded_scenario(self),
        }
    }

    /// Simpler kind, fewer connections, shorter file, plain scheduling,
    /// then calmer faults.
    fn simpler(&self) -> Vec<Scenario> {
        let sc = self;
        let mut out = Vec::new();
        if sc.kind == ScenarioKind::Sharded {
            out.push(Scenario { kind: ScenarioKind::Transfer, ..*sc });
        }
        let min_conns = if sc.kind == ScenarioKind::Sharded { 2 } else { 1 };
        if sc.n_conns > min_conns {
            out.push(Scenario { n_conns: (sc.n_conns / 2).max(min_conns), ..*sc });
            out.push(Scenario { n_conns: sc.n_conns - 1, ..*sc });
        }
        if sc.file_len > sc.chunk {
            out.push(Scenario { file_len: (sc.file_len / 2).max(sc.chunk), ..*sc });
        }
        if sc.deficit {
            out.push(Scenario { deficit: false, ..*sc });
        }
        out.extend(calmer(sc.probs).into_iter().map(|probs| Scenario { probs, ..*sc }));
        out
    }

    fn to_test_case(&self) -> String {
        format!(
            r#"#[test]
fn dst_repro_seed_{seed:x}() {{
    // Minimal reproducer generated by the sim shrinker. The scenario
    // replays deterministically: same fields + seed, same failure.
    use sim::{{Mutant, Scenario, ScenarioKind, Spec}};
    let sc = Scenario {{
        seed: 0x{seed:x},
        kind: ScenarioKind::{kind:?},
        n_conns: {n_conns},
        file_len: {file_len},
        chunk: {chunk},
        ring_capacity: {ring_capacity},
        deficit: {deficit},
        probs: utcp::FaultProbs {{
            drop: {drop},
            dup: {dup},
            reorder: {reorder},
            corrupt: {corrupt},
            delay: {delay},
        }},
    }};
    sc.run(Mutant::None).expect("scenario must satisfy every oracle");
}}"#,
            seed = self.seed,
            kind = self.kind,
            n_conns = self.n_conns,
            file_len = self.file_len,
            chunk = self.chunk,
            ring_capacity = self.ring_capacity,
            deficit = self.deficit,
            drop = self.probs.drop,
            dup = self.probs.dup,
            reorder = self.probs.reorder,
            corrupt = self.probs.corrupt,
            delay = self.probs.delay,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 1, 42, u64::MAX] {
            assert_eq!(Scenario::from_seed(seed), Scenario::from_seed(seed));
        }
    }

    #[test]
    fn generated_shapes_are_in_range() {
        for seed in 0..512u64 {
            let sc = Scenario::from_seed(seed);
            assert!((1..=6).contains(&sc.n_conns));
            if sc.kind == ScenarioKind::Sharded {
                assert!(sc.n_conns >= 2, "sharding needs at least two connections");
            }
            assert!(sc.file_len >= 2 * sc.chunk && sc.file_len <= 6 * sc.chunk);
            assert!(sc.chunk >= 64 && sc.chunk + 64 <= 1536);
            if sc.kind != ScenarioKind::Ring {
                assert!(sc.ring_capacity >= 2 * (sc.chunk + 64), "ring holds ≥ 2 padded chunks");
            }
        }
        let kinds = ScenarioKind::mix(0, 512);
        assert!(kinds.iter().all(|&k| k > 40), "every kind appears in a 512-seed sweep: {kinds:?}");
    }

    #[test]
    fn test_case_rendering_mentions_the_seed_and_kind() {
        let sc = Scenario::from_seed(0xBEEF);
        let t = sc.to_test_case();
        assert!(t.contains("seed: 0xbeef"));
        assert!(t.contains("ScenarioKind::"));
        assert!(t.contains("#[test]"));
    }
}
