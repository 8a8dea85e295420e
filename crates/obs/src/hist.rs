//! Log₂-bucketed histograms.
//!
//! Latencies and sizes in this workspace span four orders of magnitude
//! (a chunk delivered in the same scheduling round vs. one recovered by
//! three retransmission timeouts), so linear buckets would either lose
//! the tail or waste memory. A power-of-two bucket per value magnitude
//! keeps the histogram 65 fixed slots, mergeable with plain addition,
//! and accurate to within a factor of two everywhere — which is the
//! precision the stage-share and latency questions actually need.

/// Number of buckets: one for zero, one per bit position of a `u64`.
pub const BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` samples.
///
/// Bucket 0 holds the value 0; bucket `i ≥ 1` holds values in
/// `[2^(i-1), 2^i - 1]`. Exact `count`, `sum`, `min` and `max` are kept
/// alongside, so means and extremes do not suffer bucket rounding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// The bucket a value falls into.
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper bound of a bucket.
pub fn bucket_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram { counts: [0; BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of all samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Samples in bucket `i` (see [`bucket_bound`] for its range).
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Merge another histogram into this one. Merging is associative
    /// and commutative: per-connection histograms can be folded in any
    /// order into a run total.
    pub fn merge(&mut self, other: &Histogram) {
        for i in 0..BUCKETS {
            self.counts[i] += other.counts[i];
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The value at percentile `p` (0–100): the upper bound of the
    /// bucket containing the `⌈p/100·count⌉`-th smallest sample,
    /// clamped to the exact observed extremes so `p=0` → min and
    /// `p=100` → max. Returns 0 for an empty histogram. Monotone
    /// non-decreasing in `p`.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        // The extremes are tracked exactly — return them as observed
        // rather than a bucket bound (which for p=0 could overshoot the
        // true minimum by up to 2×).
        if p == 0.0 {
            return self.min;
        }
        if p == 100.0 {
            return self.max;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for i in 0..BUCKETS {
            seen += self.counts[i];
            if seen >= rank {
                return bucket_bound(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Convenience: the median estimate.
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// Convenience: the 90th percentile estimate.
    pub fn p90(&self) -> u64 {
        self.percentile(90.0)
    }

    /// Convenience: the 99th percentile estimate.
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// Non-empty buckets as `(inclusive upper bound, count)`, ascending
    /// — the shape Prometheus-style exposition wants.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        (0..BUCKETS).filter(|&i| self.counts[i] > 0).map(|i| (bucket_bound(i), self.counts[i]))
    }

    /// The histogram as JSON: exact `count`/`sum`/`min`/`max` (`null`
    /// extremes when empty) plus the non-empty buckets as
    /// `[bucket_index, count]` pairs — everything the histogram holds, so
    /// a reader of a windowed series snapshot loses nothing.
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        let buckets: Vec<Json> = (0..BUCKETS)
            .filter(|&i| self.counts[i] > 0)
            .map(|i| Json::Arr(vec![Json::U64(i as u64), Json::U64(self.counts[i])]))
            .collect();
        Json::obj()
            .set("count", Json::U64(self.count))
            .set("sum", Json::U64(self.sum))
            .set("min", self.min().map_or(Json::Null, Json::U64))
            .set("max", self.max().map_or(Json::Null, Json::U64))
            .set("buckets", Json::Arr(buckets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        // 0 is its own bucket; 2^(i-1) and 2^i - 1 share bucket i.
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        assert_eq!(bucket_of(u64::MAX), 64);
        for i in 1..64 {
            let lo = 1u64 << (i - 1);
            let hi = (1u64 << i) - 1;
            assert_eq!(bucket_of(lo), i, "lower edge of bucket {i}");
            assert_eq!(bucket_of(hi), i, "upper edge of bucket {i}");
            assert_eq!(bucket_bound(i), hi);
        }
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(64), u64::MAX);
    }

    #[test]
    fn exact_stats_alongside_buckets() {
        let mut h = Histogram::new();
        for v in [3u64, 9, 0, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 112);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(100));
        assert_eq!(h.mean(), 28.0);
        assert_eq!(h.bucket_count(0), 1); // the zero
        assert_eq!(h.bucket_count(2), 1); // 3
        assert_eq!(h.bucket_count(4), 1); // 9
        assert_eq!(h.bucket_count(7), 1); // 100
    }

    #[test]
    fn merge_is_associative() {
        let mk = |vals: &[u64]| {
            let mut h = Histogram::new();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let a = mk(&[1, 5, 9]);
        let b = mk(&[0, 1000]);
        let c = mk(&[77, 77, 2]);

        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);

        assert_eq!(left.counts, right.counts);
        assert_eq!(left.count(), right.count());
        assert_eq!(left.sum(), right.sum());
        assert_eq!(left.min(), right.min());
        assert_eq!(left.max(), right.max());
        // And equals recording everything into one histogram.
        let all = mk(&[1, 5, 9, 0, 1000, 77, 77, 2]);
        assert_eq!(left.counts, all.counts);
    }

    #[test]
    fn percentiles_are_monotone_and_clamped() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let mut prev = 0u64;
        for p in 0..=100 {
            let v = h.percentile(p as f64);
            assert!(v >= prev, "percentile must be monotone: p{p} gave {v} < {prev}");
            prev = v;
        }
        assert_eq!(h.percentile(0.0), 1, "p0 clamps to the observed min");
        assert_eq!(h.percentile(100.0), 1000, "p100 clamps to the observed max");
        // p50 of 1..=1000 lives in the bucket holding 500 → bound 511.
        assert_eq!(h.p50(), 511);
    }

    #[test]
    fn empty_histogram_is_well_behaved() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.buckets().count(), 0);
    }

    #[test]
    fn single_value_percentiles_are_exact() {
        let mut h = Histogram::new();
        h.record(42);
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), 42);
        }
    }

    #[test]
    fn merge_with_empty_operand_preserves_extremes() {
        let mut h = Histogram::new();
        for v in [7u64, 300, 12] {
            h.record(v);
        }
        let before = h.clone();
        // Non-empty ⊕ empty: nothing changes, including min/max.
        h.merge(&Histogram::new());
        assert_eq!(h, before);
        assert_eq!(h.min(), Some(7));
        assert_eq!(h.max(), Some(300));
        // Empty ⊕ non-empty: adopts the operand's extremes exactly.
        let mut e = Histogram::new();
        e.merge(&before);
        assert_eq!(e, before);
        assert_eq!(e.min(), Some(7));
        assert_eq!(e.max(), Some(300));
        // Empty ⊕ empty stays empty (and extremes stay None).
        let mut ee = Histogram::new();
        ee.merge(&Histogram::new());
        assert_eq!(ee.count(), 0);
        assert_eq!(ee.min(), None);
        assert_eq!(ee.max(), None);
    }

    #[test]
    fn percentile_extremes_hit_exact_observed_values() {
        let mut h = Histogram::new();
        // Values far inside their buckets: bucket bounds would give 127
        // and 8191, the clamp must give the exact observations.
        for v in [100u64, 5000, 70] {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), 70, "p0 is the exact min");
        assert_eq!(h.percentile(100.0), 5000, "p100 is the exact max");
        // Out-of-range p clamps rather than panicking.
        assert_eq!(h.percentile(-5.0), 70);
        assert_eq!(h.percentile(250.0), 5000);
    }
}
