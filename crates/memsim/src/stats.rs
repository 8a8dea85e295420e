//! Access accounting: counts by size class, per region, plus cache events.
//!
//! These are the quantities behind the paper's Figure 13 (4-byte and 1-byte
//! read/write access counts for 10.7 MB of transferred data) and Figure 14
//! (read/write cache misses, with the 1-byte-write-miss pathology of the
//! simplified SAFER cipher).

use crate::cache::CacheLevelStats;
use crate::region::RegionKind;

/// Access-size buckets used throughout the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SizeClass {
    /// 1-byte accesses (cipher byte operations, table lookups).
    B1,
    /// 2-byte accesses (checksum halfwords).
    B2,
    /// 4-byte accesses (words: marshalling, copies).
    B4,
    /// 8-byte accesses (double words: cipher blocks on 64-bit paths).
    B8,
}

impl SizeClass {
    /// Classify an access width in bytes. Widths other than 1/2/4/8 map to
    /// the nearest bucket at or above (3 → B4, 5..=8 → B8); larger widths
    /// saturate at B8.
    pub fn of(len: usize) -> SizeClass {
        match len {
            0 | 1 => SizeClass::B1,
            2 => SizeClass::B2,
            3 | 4 => SizeClass::B4,
            _ => SizeClass::B8,
        }
    }

    /// Bucket width in bytes.
    pub fn bytes(self) -> usize {
        match self {
            SizeClass::B1 => 1,
            SizeClass::B2 => 2,
            SizeClass::B4 => 4,
            SizeClass::B8 => 8,
        }
    }

    /// All buckets, ascending.
    pub fn all() -> [SizeClass; 4] {
        [SizeClass::B1, SizeClass::B2, SizeClass::B4, SizeClass::B8]
    }

    fn index(self) -> usize {
        match self {
            SizeClass::B1 => 0,
            SizeClass::B2 => 1,
            SizeClass::B4 => 2,
            SizeClass::B8 => 3,
        }
    }
}

/// Access counters bucketed by [`SizeClass`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessCounts {
    counts: [u64; 4],
    bytes: u64,
}

impl AccessCounts {
    /// Record one access of `len` bytes.
    pub fn record(&mut self, len: usize) {
        self.counts[SizeClass::of(len).index()] += 1;
        self.bytes += len as u64;
    }

    /// Count of accesses in one bucket.
    pub fn by_size(&self, size: SizeClass) -> u64 {
        self.counts[size.index()]
    }

    /// Total accesses across all buckets.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total bytes moved.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Element-wise sum.
    pub fn merged(&self, other: &AccessCounts) -> AccessCounts {
        let mut out = *self;
        for i in 0..4 {
            out.counts[i] += other.counts[i];
        }
        out.bytes += other.bytes;
        out
    }
}

/// Everything a simulated run produced: access counts (total and
/// per-region-kind), ALU operation count, instruction-fetch volume, and
/// cache-level statistics.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Data loads by size.
    pub reads: AccessCounts,
    /// Data stores by size.
    pub writes: AccessCounts,
    /// Loads attributed to each region kind.
    pub reads_by_kind: Vec<(RegionKind, AccessCounts)>,
    /// Stores attributed to each region kind.
    pub writes_by_kind: Vec<(RegionKind, AccessCounts)>,
    /// Register-only ALU operations announced via [`crate::Mem::compute`].
    pub compute_ops: u64,
    /// Instruction bytes fetched (footprint × iterations).
    pub fetch_bytes: u64,
    /// L1 data-cache events.
    pub l1d: CacheLevelStats,
    /// L1 instruction-cache events.
    pub l1i: CacheLevelStats,
    /// L2 events, when the host has a second-level cache.
    pub l2: Option<CacheLevelStats>,
    /// Cache misses on data *reads*, bucketed by access size class.
    pub read_misses_by_size: [u64; 4],
    /// Cache misses on data *writes*, bucketed by access size class.
    pub write_misses_by_size: [u64; 4],
    /// Accesses served by main memory (missed every cache level).
    pub memory_accesses: u64,
    /// Accesses served by the L2 cache.
    pub l2_accesses: u64,
    /// Accesses (data and fetch) served by a first-level cache.
    pub l1_accesses: u64,
    /// Instruction fetches served by the L2 (subset of `l2_accesses`).
    pub fetch_l2_accesses: u64,
    /// Instruction fetches served by memory (subset of `memory_accesses`).
    pub fetch_memory_accesses: u64,
}

impl RunStats {
    /// Record a read miss (at L1) for an access of `len` bytes.
    pub(crate) fn record_read_miss(&mut self, len: usize) {
        self.read_misses_by_size[SizeClass::of(len).index()] += 1;
    }

    /// Record a write miss (at L1) for an access of `len` bytes.
    pub(crate) fn record_write_miss(&mut self, len: usize) {
        self.write_misses_by_size[SizeClass::of(len).index()] += 1;
    }

    /// Read misses for one size class.
    pub fn read_misses(&self, size: SizeClass) -> u64 {
        self.read_misses_by_size[size.index()]
    }

    /// Write misses for one size class.
    pub fn write_misses(&self, size: SizeClass) -> u64 {
        self.write_misses_by_size[size.index()]
    }

    /// Total data accesses (reads + writes).
    pub fn data_accesses(&self) -> u64 {
        self.reads.total() + self.writes.total()
    }

    /// Overall L1-data miss ratio counted per *line touch* (a straddling
    /// access counts once per covered line).
    pub fn l1d_miss_ratio(&self) -> f64 {
        self.l1d.miss_ratio()
    }

    /// L1-data miss ratio counted per *access* — the paper's "cache miss
    /// ratio" (§4.2, e.g. 4.7% non-ILP vs 18.7% ILP on the receive side).
    pub fn data_miss_ratio(&self) -> f64 {
        let misses: u64 = self.read_misses_by_size.iter().sum::<u64>()
            + self.write_misses_by_size.iter().sum::<u64>();
        let total = self.data_accesses();
        if total == 0 {
            0.0
        } else {
            misses as f64 / total as f64
        }
    }

    /// Total read misses across all size classes.
    pub fn total_read_misses(&self) -> u64 {
        self.read_misses_by_size.iter().sum()
    }

    /// Total write misses across all size classes.
    pub fn total_write_misses(&self) -> u64 {
        self.write_misses_by_size.iter().sum()
    }

    /// Merge another phase's counters into this one (element-wise sums;
    /// cache-level stats add field-wise).
    pub fn absorb(&mut self, other: &RunStats) {
        self.reads = self.reads.merged(&other.reads);
        self.writes = self.writes.merged(&other.writes);
        self.compute_ops += other.compute_ops;
        self.fetch_bytes += other.fetch_bytes;
        self.memory_accesses += other.memory_accesses;
        self.l2_accesses += other.l2_accesses;
        self.l1_accesses += other.l1_accesses;
        self.fetch_l2_accesses += other.fetch_l2_accesses;
        self.fetch_memory_accesses += other.fetch_memory_accesses;
        for i in 0..4 {
            self.read_misses_by_size[i] += other.read_misses_by_size[i];
            self.write_misses_by_size[i] += other.write_misses_by_size[i];
        }
        for (kind, counts) in &other.reads_by_kind {
            match self.reads_by_kind.iter_mut().find(|(k, _)| k == kind) {
                Some((_, c)) => *c = c.merged(counts),
                None => self.reads_by_kind.push((*kind, *counts)),
            }
        }
        for (kind, counts) in &other.writes_by_kind {
            match self.writes_by_kind.iter_mut().find(|(k, _)| k == kind) {
                Some((_, c)) => *c = c.merged(counts),
                None => self.writes_by_kind.push((*kind, *counts)),
            }
        }
        self.l1d = add_level(self.l1d, other.l1d);
        self.l1i = add_level(self.l1i, other.l1i);
        self.l2 = match (self.l2, other.l2) {
            (Some(a), Some(b)) => Some(add_level(a, b)),
            (a, b) => a.or(b),
        };
    }

    /// Loads attributed to regions of `kind`.
    pub fn reads_for(&self, kind: RegionKind) -> AccessCounts {
        self.reads_by_kind
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, c)| *c)
            .unwrap_or_default()
    }

    /// Stores attributed to regions of `kind`.
    pub fn writes_for(&self, kind: RegionKind) -> AccessCounts {
        self.writes_by_kind
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, c)| *c)
            .unwrap_or_default()
    }

    /// Difference of totals against another run: `(reads_saved,
    /// writes_saved)` — the paper's "ILP reads 55 Mbyte less" style deltas.
    pub fn savings_vs(&self, baseline: &RunStats) -> (i64, i64) {
        (
            baseline.reads.total() as i64 - self.reads.total() as i64,
            baseline.writes.total() as i64 - self.writes.total() as i64,
        )
    }
}

fn add_level(a: CacheLevelStats, b: CacheLevelStats) -> CacheLevelStats {
    CacheLevelStats {
        read_hits: a.read_hits + b.read_hits,
        read_misses: a.read_misses + b.read_misses,
        write_hits: a.write_hits + b.write_hits,
        write_misses: a.write_misses + b.write_misses,
        fetch_hits: a.fetch_hits + b.fetch_hits,
        fetch_misses: a.fetch_misses + b.fetch_misses,
        writebacks: a.writebacks + b.writebacks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_class_of_widths() {
        assert_eq!(SizeClass::of(1), SizeClass::B1);
        assert_eq!(SizeClass::of(2), SizeClass::B2);
        assert_eq!(SizeClass::of(4), SizeClass::B4);
        assert_eq!(SizeClass::of(8), SizeClass::B8);
        assert_eq!(SizeClass::of(3), SizeClass::B4);
        assert_eq!(SizeClass::of(16), SizeClass::B8);
    }

    #[test]
    fn access_counts_record_and_total() {
        let mut c = AccessCounts::default();
        c.record(1);
        c.record(1);
        c.record(4);
        c.record(8);
        assert_eq!(c.by_size(SizeClass::B1), 2);
        assert_eq!(c.by_size(SizeClass::B4), 1);
        assert_eq!(c.by_size(SizeClass::B8), 1);
        assert_eq!(c.total(), 4);
        assert_eq!(c.bytes(), 14);
    }

    #[test]
    fn merged_adds_elementwise() {
        let mut a = AccessCounts::default();
        a.record(4);
        let mut b = AccessCounts::default();
        b.record(4);
        b.record(1);
        let m = a.merged(&b);
        assert_eq!(m.by_size(SizeClass::B4), 2);
        assert_eq!(m.by_size(SizeClass::B1), 1);
        assert_eq!(m.bytes(), 9);
    }

    #[test]
    fn savings_vs_baseline() {
        let mut ilp = RunStats::default();
        ilp.reads.record(4);
        let mut non = RunStats::default();
        for _ in 0..5 {
            non.reads.record(4);
            non.writes.record(4);
        }
        let (r, w) = ilp.savings_vs(&non);
        assert_eq!(r, 4);
        assert_eq!(w, 5);
    }

    #[test]
    fn per_kind_lookup_defaults_to_zero() {
        let stats = RunStats::default();
        assert_eq!(stats.reads_for(RegionKind::Table).total(), 0);
    }

    #[test]
    fn miss_ratio_zero_when_untouched() {
        assert_eq!(RunStats::default().l1d_miss_ratio(), 0.0);
    }
}
