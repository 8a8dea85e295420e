//! Send scheduling across connections.
//!
//! Once per scheduling round the harness computes the set of *ready*
//! connections — established, chunks remaining, transport willing to
//! accept a segment — and then asks the scheduler, pick after pick,
//! which one gets the next pipeline run, dropping a connection from the
//! set when its own send made it unready. The set is handed over
//! ascending by id and duplicate-free, so a pick is a binary search for
//! the cursor rather than a scan. Two policies:
//!
//! * [`RoundRobin`] — equal turns, the classic server event loop.
//! * [`DeficitRoundRobin`] — Shreedhar & Varghese's deficit round-robin
//!   adapted to chunk granularity: each connection accrues credit in
//!   proportion to its weight and pays for chunks in bytes, so a
//!   weight-2 connection sustains twice the bytes of a weight-1
//!   neighbour even when chunk sizes differ.

use crate::conn_table::ConnId;
use crate::harness::ServerConfig;

/// Chooses which ready connection sends next.
pub trait Scheduler {
    /// Policy name (for reports).
    fn name(&self) -> &'static str;

    /// Pick one of `ready` (never an id outside it); `None` iff `ready`
    /// is empty.
    ///
    /// `ready` must be ascending by id with no duplicates — the cyclic
    /// order the policies serve in is then a rotation of the slice, found
    /// by binary search. Both policies here `debug_assert!` it.
    fn pick(&mut self, ready: &[ConnId]) -> Option<ConnId>;

    /// Account `bytes` of link usage to `conn` after a send.
    fn charge(&mut self, conn: ConnId, bytes: usize);
}

/// Where the cyclic order starting at `cursor` begins in `ready`: ids
/// `ready[i..]` are at or after the cursor, `ready[..i]` wrapped round.
fn rotation(cursor: u32, ready: &[ConnId]) -> usize {
    debug_assert!(
        ready.windows(2).all(|w| w[0].0 < w[1].0),
        "Scheduler::pick needs an ascending, duplicate-free ready set"
    );
    ready.partition_point(|c| c.0 < cursor)
}

/// Equal-turn round-robin over the ready set.
#[derive(Debug, Default)]
pub struct RoundRobin {
    cursor: u32,
}

impl RoundRobin {
    /// A scheduler starting at the first connection.
    pub fn new() -> Self {
        Self::default()
    }

    /// The ready id closest after the cursor, cyclically: the first id
    /// at or after it, else (every id is below it) the lowest.
    fn next_from(cursor: u32, ready: &[ConnId]) -> Option<ConnId> {
        ready.get(rotation(cursor, ready)).or(ready.first()).copied()
    }
}

impl Scheduler for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn pick(&mut self, ready: &[ConnId]) -> Option<ConnId> {
        let picked = Self::next_from(self.cursor, ready)?;
        self.cursor = picked.0.wrapping_add(1);
        Some(picked)
    }

    fn charge(&mut self, _conn: ConnId, _bytes: usize) {}
}

/// Deficit-style weighted round-robin.
#[derive(Debug)]
pub struct DeficitRoundRobin {
    /// Bytes of credit granted per weight unit per top-up.
    quantum: u32,
    weights: Vec<u32>,
    deficits: Vec<i64>,
    cursor: u32,
}

impl DeficitRoundRobin {
    /// Build for `weights.len()` connections; weight 0 is treated as 1.
    /// `quantum` is the per-weight-unit byte credit granted when every
    /// ready connection has run out — roughly one chunk is a reasonable
    /// choice.
    pub fn new(weights: Vec<u32>, quantum: u32) -> Self {
        assert!(quantum > 0, "quantum must grant positive credit");
        let weights: Vec<u32> = weights.into_iter().map(|w| w.max(1)).collect();
        let deficits = vec![0i64; weights.len()];
        DeficitRoundRobin { quantum, weights, deficits, cursor: 0 }
    }

    /// Build for the world `cfg` describes, from the weights it states
    /// ([`ServerConfig::weights`]; a missing entry weighs 1).
    pub fn for_config(cfg: &ServerConfig, quantum: u32) -> Self {
        Self::new((0..cfg.n_conns).map(|i| cfg.weight(i)).collect(), quantum)
    }

    /// Current credit of a connection (tests/diagnostics).
    pub fn deficit(&self, conn: ConnId) -> i64 {
        self.deficits[conn.index()]
    }
}

impl Scheduler for DeficitRoundRobin {
    fn name(&self) -> &'static str {
        "deficit-weighted"
    }

    fn pick(&mut self, ready: &[ConnId]) -> Option<ConnId> {
        if ready.is_empty() {
            return None;
        }
        // Visit ready connections in cyclic order from the cursor; the
        // first with credit left sends. If nobody has credit, top up
        // everyone ready (weight-proportionally) and rescan. A charge
        // may exceed one grant (a chunk larger than the quantum), so
        // several top-ups can be needed before credit turns positive;
        // each adds ≥ quantum to every ready connection, so the loop
        // terminates.
        let (wrapped, ahead) = ready.split_at(rotation(self.cursor, ready));
        loop {
            for &c in ahead.iter().chain(wrapped) {
                if self.deficits[c.index()] > 0 {
                    self.cursor = c.0.wrapping_add(1);
                    return Some(c);
                }
            }
            for c in ready {
                self.deficits[c.index()] +=
                    i64::from(self.quantum) * i64::from(self.weights[c.index()]);
            }
        }
    }

    fn charge(&mut self, conn: ConnId, bytes: usize) {
        self.deficits[conn.index()] -= bytes as i64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<ConnId> {
        v.iter().map(|&i| ConnId(i)).collect()
    }

    /// Run `rounds` picks with a constant per-pick cost, everyone always
    /// ready; return per-connection pick counts.
    fn histogram(sched: &mut dyn Scheduler, n: u32, rounds: usize, cost: usize) -> Vec<usize> {
        let ready = ids(&(0..n).collect::<Vec<_>>());
        let mut counts = vec![0usize; n as usize];
        for _ in 0..rounds {
            let c = sched.pick(&ready).unwrap();
            counts[c.index()] += 1;
            sched.charge(c, cost);
        }
        counts
    }

    #[test]
    fn round_robin_cycles_evenly() {
        let mut rr = RoundRobin::new();
        let counts = histogram(&mut rr, 4, 400, 1000);
        assert_eq!(counts, vec![100, 100, 100, 100]);
    }

    #[test]
    fn round_robin_skips_unready() {
        let mut rr = RoundRobin::new();
        // Only 1 and 3 ready: strict alternation.
        let ready = ids(&[1, 3]);
        let seq: Vec<u32> = (0..6).map(|_| rr.pick(&ready).unwrap().0).collect();
        assert_eq!(seq, vec![1, 3, 1, 3, 1, 3]);
        assert_eq!(rr.pick(&[]), None);
    }

    #[test]
    fn drr_honours_weights() {
        let mut drr = DeficitRoundRobin::new(vec![2, 1, 1], 1024);
        let counts = histogram(&mut drr, 3, 400, 1024);
        // Weight 2 connection gets ~twice the service of each weight-1.
        assert_eq!(counts.iter().sum::<usize>(), 400);
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!((1.8..=2.2).contains(&ratio), "ratio {ratio}, counts {counts:?}");
        assert!((counts[1] as i64 - counts[2] as i64).abs() <= 2);
    }

    #[test]
    fn drr_equal_weights_degenerate_to_fair_shares() {
        let mut drr = DeficitRoundRobin::new(vec![1; 5], 512);
        let counts = histogram(&mut drr, 5, 500, 512);
        for c in &counts {
            assert_eq!(*c, 100);
        }
    }

    /// Deterministic xorshift64* — the workspace carries no registry
    /// dependencies, so randomized tests roll their own generator.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn below(&mut self, bound: u64) -> u64 {
            self.next() % bound
        }
    }

    #[test]
    fn drr_random_weights_and_charges_terminate_and_converge() {
        // `pick`'s top-up loop terminates only because `new` clamps every
        // weight to ≥ 1 (a weight-0 connection would top up by 0 forever
        // once its credit went negative). Hammer it with random weight
        // vectors — zeros included — and random per-pick charges that can
        // dwarf the quantum: every pick must return (the test completing
        // is the termination proof), and accumulated bytes must converge
        // to weight-proportional shares.
        let mut rng = Rng(0x1234_5678_9ABC_DEF0);
        for trial in 0..20 {
            let n = 2 + rng.below(6) as usize;
            let weights: Vec<u32> = (0..n).map(|_| rng.below(9) as u32).collect(); // 0..=8
            let quantum = 1 + rng.below(2000) as u32;
            let mut drr = DeficitRoundRobin::new(weights.clone(), quantum);
            let ready = ids(&(0..n as u32).collect::<Vec<_>>());
            let mut bytes = vec![0u64; n];
            let picks = 30_000;
            for _ in 0..picks {
                let c = drr.pick(&ready).expect("ready is non-empty");
                // Charges up to ~6 KiB: routinely several grants' worth.
                let cost = 1 + rng.below(6000) as usize;
                bytes[c.index()] += cost as u64;
                drr.charge(c, cost);
            }
            let eff: Vec<f64> = weights.iter().map(|&w| f64::from(w.max(1))).collect();
            let total_w: f64 = eff.iter().sum();
            let total_b: f64 = bytes.iter().map(|&b| b as f64).sum();
            for (i, &b) in bytes.iter().enumerate() {
                let expect = total_b * eff[i] / total_w;
                let err = (b as f64 - expect).abs() / expect;
                assert!(
                    err < 0.05,
                    "trial {trial}: conn {i} (weight {}) got {b} bytes, \
                     expected ~{expect:.0} (err {err:.3}); weights {weights:?}",
                    weights[i]
                );
            }
        }
    }

    #[test]
    fn drr_terminates_with_partial_ready_sets() {
        // Random ready subsets: connections left out of `ready` keep
        // their (possibly deeply negative) deficits and must not wedge
        // the top-up loop when they rejoin later.
        let mut rng = Rng(0xDEAD_BEEF_0BAD_F00D);
        let n = 6u32;
        let mut drr = DeficitRoundRobin::new(vec![0, 1, 2, 3, 4, 5], 512);
        for _ in 0..5_000 {
            let mask = 1 + rng.below((1 << n) - 1); // non-empty subset
            let ready: Vec<ConnId> =
                (0..n).filter(|i| mask & (1 << i) != 0).map(ConnId).collect();
            let c = drr.pick(&ready).expect("non-empty ready set");
            assert!(ready.contains(&c), "picked id must come from the ready set");
            drr.charge(c, 1 + rng.below(4096) as usize);
        }
    }

    /// A random ascending subset of `0..n`: dense, sparse or a single id
    /// by turns, so empty sets and singletons are routine, not rare.
    fn random_ready(rng: &mut Rng, n: u32) -> Vec<ConnId> {
        let mask = match rng.below(4) {
            0 => rng.next(),
            1 => rng.next() | rng.next(),
            2 => rng.next() & rng.next() & rng.next(),
            _ => 1 << rng.below(64),
        };
        (0..n).filter(|i| mask & (1 << i) != 0).map(ConnId).collect()
    }

    /// A cursor anywhere a run can leave one (`0..=n`), or anywhere at
    /// all.
    fn random_cursor(rng: &mut Rng, n: u32) -> u32 {
        if rng.below(8) == 0 {
            rng.next() as u32
        } else {
            rng.below(u64::from(n) + 1) as u32
        }
    }

    /// `RoundRobin::next_from` as it was while `pick` accepted any
    /// slice: scan for the smallest cyclic distance from the cursor.
    fn scan_next_from(cursor: u32, ready: &[ConnId]) -> Option<ConnId> {
        ready.iter().copied().min_by_key(|c| c.0.wrapping_sub(cursor))
    }

    /// `DeficitRoundRobin::pick` as it was while `pick` accepted any
    /// slice: clone the ready set and sort it into cyclic order.
    fn scan_drr_pick(drr: &mut DeficitRoundRobin, ready: &[ConnId]) -> Option<ConnId> {
        if ready.is_empty() {
            return None;
        }
        let mut order: Vec<ConnId> = ready.to_vec();
        order.sort_by_key(|c| c.0.wrapping_sub(drr.cursor));
        loop {
            for &c in &order {
                if drr.deficits[c.index()] > 0 {
                    drr.cursor = c.0.wrapping_add(1);
                    return Some(c);
                }
            }
            for c in ready {
                drr.deficits[c.index()] +=
                    i64::from(drr.quantum) * i64::from(drr.weights[c.index()]);
            }
        }
    }

    #[test]
    fn round_robin_pick_equals_the_scan_it_replaced() {
        let mut rng = Rng(0x5EED_0F0A_11CE_2026);
        let (mut empties, mut singletons, mut wraps) = (0, 0, 0);
        for trial in 0..10_000 {
            let n = rng.below(65) as u32;
            let ready = random_ready(&mut rng, n);
            let cursor = random_cursor(&mut rng, n);
            let want = scan_next_from(cursor, &ready);
            let mut rr = RoundRobin { cursor };
            assert_eq!(rr.pick(&ready), want, "trial {trial}: cursor {cursor}, ready {ready:?}");
            assert_eq!(rr.cursor, want.map_or(cursor, |c| c.0 + 1), "trial {trial}");
            empties += usize::from(ready.is_empty());
            singletons += usize::from(ready.len() == 1);
            wraps += usize::from(want.is_some_and(|c| c.0 < cursor));
        }
        // The cases a rotation can get wrong were all exercised.
        assert!(empties > 100 && singletons > 100 && wraps > 100, "{empties} {singletons} {wraps}");
    }

    #[test]
    fn drr_pick_equals_the_clone_and_sort_it_replaced() {
        // Two schedulers from the same weights and quantum, one picking
        // by rotation and one by the old clone-and-sort, are shown the
        // same ready sets and charged the same costs: picks, cursors and
        // every carried deficit must agree after every step.
        let mut rng = Rng(0x0D0C_57A7_E0DD_5EED);
        let mut picks = 0;
        for world in 0..100 {
            let n = 1 + rng.below(64) as u32;
            let weights: Vec<u32> = (0..n).map(|_| rng.below(9) as u32).collect(); // 0..=8
            let quantum = 1 + rng.below(2000) as u32;
            let mut drr = DeficitRoundRobin::new(weights.clone(), quantum);
            let mut scan = DeficitRoundRobin::new(weights, quantum);
            drr.cursor = random_cursor(&mut rng, n);
            scan.cursor = drr.cursor;
            for step in 0..100 {
                let ready = random_ready(&mut rng, n);
                let got = drr.pick(&ready);
                assert_eq!(got, scan_drr_pick(&mut scan, &ready), "world {world} step {step}");
                if let Some(c) = got {
                    let cost = 1 + rng.below(6000) as usize;
                    drr.charge(c, cost);
                    scan.charge(c, cost);
                    picks += 1;
                }
                assert_eq!(drr.cursor, scan.cursor, "world {world} step {step}");
                assert_eq!(drr.deficits, scan.deficits, "world {world} step {step}");
            }
        }
        assert!(picks > 5_000, "only {picks} of 10 000 ready sets were non-empty");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "ascending, duplicate-free")]
    fn pick_rejects_a_ready_set_out_of_order() {
        RoundRobin::new().pick(&ids(&[2, 1]));
    }

    #[test]
    fn drr_credit_is_spent_and_replenished() {
        let mut drr = DeficitRoundRobin::new(vec![1, 1], 100);
        let ready = ids(&[0, 1]);
        let first = drr.pick(&ready).unwrap();
        drr.charge(first, 100);
        assert_eq!(drr.deficit(first), 0, "credit spent");
        // The other connection still has its grant.
        let second = drr.pick(&ready).unwrap();
        assert_ne!(first, second);
    }
}
