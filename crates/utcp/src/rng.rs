//! Small deterministic PRNG for fault injection, experiment workloads
//! and tests.
//!
//! The container this repo builds in has no registry access, so the
//! workspace cannot depend on the `rand` crate. Everything that needs
//! randomness — seeded fault plans, corruption fuzzing, workload skew,
//! deterministic simulation scenarios — uses this xorshift64* generator
//! instead: tiny, seedable, and identical on every platform, which is
//! exactly what reproducible experiments want anyway.
//!
//! The generator lives in `utcp` (the lowest crate that needs it: the
//! kernel part's seeded [`crate::FaultPlan`] mode draws from it), so
//! there is exactly one implementation of the stream in the workspace.
//! One u64 seed plus a documented draw order fully determines every
//! consumer — the deterministic-simulation contract.

/// A xorshift64* generator (Vigna 2016). Passes BigCrush's small-state
/// tier; more than enough to decorrelate fault plans and payload
/// patterns.
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Seed the generator. A zero seed is mapped to a fixed non-zero
    /// constant (xorshift has a zero fixed point).
    pub fn new(seed: u64) -> Self {
        XorShift64 { state: if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed } }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Next 32 bits (upper half of the 64-bit output, which has the
    /// better-mixed bits).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform value in `[0, bound)`. `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Multiply-shift reduction (Lemire); bias is < 2^-32 for the
        // bounds used here, irrelevant for workload generation.
        ((u128::from(self.next_u64() >> 32) * u128::from(bound)) >> 32) as u64
    }

    /// Uniform `usize` in `[0, bound)`.
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Derive an independent child stream for component `stream_id`.
    ///
    /// The parent is not advanced: forking is a pure function of the
    /// parent's current state and the id, so a fixed fork layout (say
    /// stream 0 for the workload, 1 for the fault plan, 2 for payload
    /// fuzz) gives every component its own reproducible stream from one
    /// root seed, and drawing more values from one component never
    /// shifts another's sequence. Child seeds are decorrelated from the
    /// parent and from each other by a splitmix64 finalizer over
    /// `state ⊕ f(stream_id)`.
    pub fn fork(&self, stream_id: u64) -> XorShift64 {
        // splitmix64: the standard seed-spreading finalizer.
        let mut z = self
            .state
            .wrapping_add(stream_id.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        XorShift64::new(z ^ (z >> 31))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut r = XorShift64::new(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = XorShift64::new(7);
        for bound in [1u64, 2, 3, 10, 1000] {
            for _ in 0..200 {
                assert!(r.below(bound) < bound);
            }
        }
    }

    #[test]
    fn rough_uniformity() {
        let mut r = XorShift64::new(123);
        let mut buckets = [0u32; 8];
        for _ in 0..8000 {
            buckets[r.index(8)] += 1;
        }
        for b in buckets {
            assert!((700..1300).contains(&b), "bucket count {b} far from 1000");
        }
    }

    #[test]
    fn forked_streams_differ_and_reproduce_from_the_parent_seed() {
        let parent = XorShift64::new(0xDEAD_BEEF);
        let mut a = parent.fork(0);
        let mut b = parent.fork(1);
        let first: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let second: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        assert_ne!(first, second, "sibling forks must be decorrelated");
        // Reproducible: re-deriving the same fork from a fresh parent
        // with the same seed replays the identical stream.
        let again: Vec<u64> =
            (0..32).map({ let mut r = XorShift64::new(0xDEAD_BEEF).fork(0); move |_| r.next_u64() }).collect();
        assert_eq!(first, again);
    }

    #[test]
    fn forked_component_streams_are_independent_and_reproducible() {
        // Experiments fork one stream per component (workload, fault
        // plan, payload fuzz) from a single root seed. Drawing from one
        // component must never shift a sibling's sequence.
        let root = XorShift64::new(2024);
        let mut workload = root.fork(0);
        let mut faults = root.fork(1);
        let w: Vec<u64> = (0..16).map(|_| workload.next_u64()).collect();
        let f: Vec<u64> = (0..16).map(|_| faults.next_u64()).collect();
        assert_ne!(w, f);
        // Re-derive faults after the workload stream was (re-)drained:
        // identical, because forks anchor to the root state.
        let root2 = XorShift64::new(2024);
        let mut workload2 = root2.fork(0);
        for _ in 0..1000 {
            let _ = workload2.next_u64();
        }
        let mut faults2 = root2.fork(1);
        let f2: Vec<u64> = (0..16).map(|_| faults2.next_u64()).collect();
        assert_eq!(f, f2);
    }

    #[test]
    fn forking_does_not_advance_the_parent() {
        let mut a = XorShift64::new(5);
        let mut b = XorShift64::new(5);
        let _ = a.fork(7);
        let _ = a.fork(8);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn fork_is_a_function_of_current_state() {
        // Advancing the parent changes what subsequent forks yield —
        // forks are anchored to a state, not to the original seed.
        let mut p = XorShift64::new(99);
        let early = p.fork(3).next_u64();
        let _ = p.next_u64();
        let late = p.fork(3).next_u64();
        assert_ne!(early, late);
    }
}
