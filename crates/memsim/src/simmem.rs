//! [`SimMem`] — the instrumented [`Mem`] implementation.
//!
//! Backs the address space with real bytes (so protocol output can be
//! checked for correctness against the native world) while routing every
//! access through the host's cache hierarchy and the statistics counters.
//! This is the reproduction's stand-in for running the application under
//! Shade's `cachesim` (SPARC) or ATOM (Alpha) as the paper did in §4.2.

use crate::cache::{AccessKind, CacheSim, ServiceLevel};
use crate::host::HostModel;
use crate::layout::AddressSpace;
use crate::mem::{window_by_units, CodeRegion, Mem, PhaseTag, UnitStep, Window};
use crate::region::RegionKind;
use crate::stats::RunStats;
use crate::trace::Trace;

/// Sorted (base, end, kind) triple for fast region attribution.
#[derive(Debug, Clone, Copy)]
struct Interval {
    base: usize,
    end: usize,
    kind: RegionKind,
}

/// Instrumented memory: byte-accurate storage + cache simulation + counters.
///
/// Create one per (host, experiment) pair; use [`SimMem::take_stats`] to
/// carve the run into measurement phases (e.g. send path vs receive path vs
/// system copy) without losing cache warmth.
#[derive(Debug)]
pub struct SimMem {
    arena: Vec<u8>,
    base: usize,
    cache: CacheSim,
    /// Per-phase accounting: [User, System].
    buckets: [RunStats; 2],
    phase_stack: Vec<PhaseTag>,
    intervals: Vec<Interval>,
    /// When false, per-region attribution is skipped (large-volume runs).
    attribute_regions: bool,
    /// Optional bounded access trace (Shade-style, §4.2 analysis).
    trace: Option<Trace>,
}

fn bucket_index(tag: PhaseTag) -> usize {
    match tag {
        PhaseTag::User => 0,
        PhaseTag::System => 1,
    }
}

impl SimMem {
    /// Build an instrumented memory for `space` with the cache hierarchy of
    /// `host`.
    pub fn new(space: &AddressSpace, host: &HostModel) -> Self {
        let mut intervals: Vec<Interval> = space
            .regions()
            .iter()
            .map(|r| Interval { base: r.base, end: r.end(), kind: r.kind })
            .collect();
        intervals.sort_by_key(|i| i.base);
        SimMem {
            arena: vec![0u8; space.data_size()],
            base: space.data_base(),
            cache: CacheSim::new(host.l1d, host.l1i, host.l2),
            buckets: [RunStats::default(), RunStats::default()],
            phase_stack: Vec::new(),
            intervals,
            attribute_regions: true,
            trace: None,
        }
    }

    /// Start recording an access trace of at most `capacity` events.
    pub fn start_trace(&mut self, capacity: usize) {
        self.trace = Some(Trace::new(capacity));
    }

    /// Stop recording and take the trace (None if never started).
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.trace.take()
    }

    fn bucket(&mut self) -> &mut RunStats {
        let tag = self.phase_stack.last().copied().unwrap_or(PhaseTag::User);
        &mut self.buckets[bucket_index(tag)]
    }

    /// Disable per-region attribution (saves a lookup per access on
    /// whole-file-volume runs where only the totals matter).
    pub fn set_region_attribution(&mut self, on: bool) {
        self.attribute_regions = on;
    }

    /// Combined (user + system) statistics accumulated since construction
    /// or the last take. Cache-level hit/miss tables reflect the whole
    /// period regardless of phase.
    pub fn stats(&self) -> RunStats {
        let mut s = self.buckets[0].clone();
        s.absorb(&self.buckets[1]);
        s.l1d = self.cache.l1d_stats();
        s.l1i = self.cache.l1i_stats();
        s.l2 = self.cache.l2_stats();
        s
    }

    /// User-phase statistics only (application-space protocol work — the
    /// paper's packet-processing accounting).
    pub fn user_stats(&self) -> RunStats {
        self.buckets[0].clone()
    }

    /// Return the combined statistics for the measurement window just
    /// finished and start a fresh window. Cache **contents** persist
    /// (warmth carries across windows, as on real hardware); only
    /// counters reset.
    pub fn take_stats(&mut self) -> RunStats {
        let out = self.stats();
        self.reset_counters();
        out
    }

    /// Return `(user, system)` statistics for the window just finished
    /// and start a fresh window.
    pub fn take_phase_stats(&mut self) -> (RunStats, RunStats) {
        let mut user = self.buckets[0].clone();
        user.l1d = self.cache.l1d_stats();
        user.l1i = self.cache.l1i_stats();
        user.l2 = self.cache.l2_stats();
        let system = self.buckets[1].clone();
        self.reset_counters();
        (user, system)
    }

    fn reset_counters(&mut self) {
        self.buckets = [RunStats::default(), RunStats::default()];
        self.cache.reset_stats();
    }

    /// Borrow the raw bytes of simulated range `[addr, addr+len)` without
    /// touching the counters (for test assertions on protocol output).
    pub fn peek(&self, addr: usize, len: usize) -> &[u8] {
        &self.arena[addr - self.base..addr - self.base + len]
    }

    /// Overwrite bytes without touching the counters (test setup: placing a
    /// file in the application buffer is not protocol work).
    pub fn poke(&mut self, addr: usize, bytes: &[u8]) {
        self.arena[addr - self.base..addr - self.base + bytes.len()].copy_from_slice(bytes);
    }

    fn kind_of(&self, addr: usize) -> Option<RegionKind> {
        let idx = self.intervals.partition_point(|i| i.base <= addr);
        if idx == 0 {
            return None;
        }
        let iv = self.intervals[idx - 1];
        (addr < iv.end).then_some(iv.kind)
    }

    fn attribute(&mut self, addr: usize, len: usize, kind: AccessKind) {
        if !self.attribute_regions {
            return;
        }
        let Some(region_kind) = self.kind_of(addr) else { return };
        let stats = {
            let tag = self.phase_stack.last().copied().unwrap_or(PhaseTag::User);
            &mut self.buckets[bucket_index(tag)]
        };
        let table = match kind {
            AccessKind::Read => &mut stats.reads_by_kind,
            AccessKind::Write => &mut stats.writes_by_kind,
            AccessKind::Fetch => return,
        };
        match table.iter_mut().find(|(k, _)| *k == region_kind) {
            Some((_, counts)) => counts.record(len),
            None => {
                let mut counts = crate::stats::AccessCounts::default();
                counts.record(len);
                table.push((region_kind, counts));
            }
        }
    }

    fn note_level(&mut self, level: ServiceLevel) {
        let bucket = self.bucket();
        match level {
            ServiceLevel::L1 => bucket.l1_accesses += 1,
            ServiceLevel::L2 => bucket.l2_accesses += 1,
            ServiceLevel::Memory => bucket.memory_accesses += 1,
        }
    }
}

impl Mem for SimMem {
    fn read<const N: usize>(&mut self, addr: usize) -> [u8; N] {
        if let Some(t) = &mut self.trace {
            t.record(addr, N, AccessKind::Read);
        }
        self.bucket().reads.record(N);
        self.attribute(addr, N, AccessKind::Read);
        let access = self.cache.access_data(addr, N, AccessKind::Read);
        if access.l1_miss {
            self.bucket().record_read_miss(N);
        }
        self.note_level(access.cost_level);
        let i = addr - self.base;
        let mut out = [0u8; N];
        out.copy_from_slice(&self.arena[i..i + N]);
        out
    }

    fn write<const N: usize>(&mut self, addr: usize, bytes: [u8; N]) {
        if let Some(t) = &mut self.trace {
            t.record(addr, N, AccessKind::Write);
        }
        self.bucket().writes.record(N);
        self.attribute(addr, N, AccessKind::Write);
        let access = self.cache.access_data(addr, N, AccessKind::Write);
        if access.l1_miss {
            self.bucket().record_write_miss(N);
        }
        self.note_level(access.cost_level);
        let i = addr - self.base;
        self.arena[i..i + N].copy_from_slice(&bytes);
    }

    fn compute(&mut self, ops: u32) {
        self.bucket().compute_ops += ops as u64;
    }

    fn fetch(&mut self, code: CodeRegion) {
        let result = self.cache.access_fetch(code.base, code.len);
        let bucket = self.bucket();
        bucket.fetch_bytes += code.len as u64;
        // Fetch hits are free (instruction fetch overlaps execution);
        // misses cost per refilled line and are tracked separately so the
        // I-cache share of memory-system time can be reported (§4.2).
        bucket.l2_accesses += result.l2_lines;
        bucket.fetch_l2_accesses += result.l2_lines;
        bucket.memory_accesses += result.mem_lines;
        bucket.fetch_memory_accesses += result.mem_lines;
    }

    fn phase_push(&mut self, tag: PhaseTag) {
        self.phase_stack.push(tag);
    }

    fn phase_pop(&mut self) {
        self.phase_stack.pop();
    }

    /// A time-like work proxy per phase bucket: every data access costs
    /// one unit, ALU operations one unit each, and accesses that fell
    /// through to the L2 or to memory (data or instruction fetch) add a
    /// penalty on top — the same shape as [`crate::HostModel::cost`]
    /// without the host-specific cycle constants. Observers difference
    /// these across spans; see [`Mem::work_counters`].
    fn work_counters(&self) -> (u64, u64) {
        let work = |s: &crate::stats::RunStats| {
            s.reads.total() + s.writes.total() + s.compute_ops + 3 * s.l2_accesses
                + 10 * s.memory_accesses
        };
        (work(&self.buckets[0]), work(&self.buckets[1]))
    }

    /// The per-unit loop, in its order, after the same proof of the spans
    /// as [`crate::NativeMem`] makes (which books nothing): the step emits
    /// each unit into a local `4W`-byte buffer, then books its store.
    fn window<const W: usize>(&mut self, w: Window, step: &mut impl UnitStep<W>) {
        if w.units == 0 {
            return;
        }
        let _ = w.spans::<W>(step.region(), &mut self.arena, self.base);
        window_by_units(self, &w, |m, at, unit| {
            let mut out = [[0u8; 4]; W];
            step.emit(m, unit, out.as_flattened_mut());
            step.store(m, at, out.map(u32::from_be_bytes));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::RegionKind;
    use crate::stats::SizeClass;

    fn fixture() -> (AddressSpace, crate::region::Region, crate::region::Region) {
        let mut space = AddressSpace::new();
        let buf = space.alloc_kind("buf", 256, 8, RegionKind::Buffer);
        let table = space.alloc_kind("table", 256, 8, RegionKind::Table);
        (space, buf, table)
    }

    fn sim(space: &AddressSpace) -> SimMem {
        SimMem::new(space, &HostModel::ss10_30())
    }

    #[test]
    fn storage_behaves_like_memory() {
        let (space, buf, _) = fixture();
        let mut m = sim(&space);
        m.write_u32_be(buf.at(0), 0xCAFEBABE);
        assert_eq!(m.read_u32_be(buf.at(0)), 0xCAFEBABE);
        assert_eq!(m.peek(buf.at(0), 4), &[0xCA, 0xFE, 0xBA, 0xBE]);
    }

    #[test]
    fn counts_by_size_class() {
        let (space, buf, _) = fixture();
        let mut m = sim(&space);
        m.write_u8(buf.at(0), 1);
        m.write_u16_be(buf.at(2), 2);
        m.write_u32_be(buf.at(4), 3);
        m.write_u64_be(buf.at(8), 4);
        let s = m.stats();
        assert_eq!(s.writes.by_size(SizeClass::B1), 1);
        assert_eq!(s.writes.by_size(SizeClass::B2), 1);
        assert_eq!(s.writes.by_size(SizeClass::B4), 1);
        assert_eq!(s.writes.by_size(SizeClass::B8), 1);
        assert_eq!(s.reads.total(), 0);
    }

    #[test]
    fn region_attribution() {
        let (space, buf, table) = fixture();
        let mut m = sim(&space);
        let _ = m.read_u8(table.at(10));
        let _ = m.read_u8(table.at(11));
        m.write_u32_be(buf.at(0), 7);
        let s = m.stats();
        assert_eq!(s.reads_for(RegionKind::Table).total(), 2);
        assert_eq!(s.writes_for(RegionKind::Buffer).total(), 1);
        assert_eq!(s.reads_for(RegionKind::Buffer).total(), 0);
    }

    #[test]
    fn cold_misses_then_warm_hits() {
        let (space, buf, _) = fixture();
        let mut m = sim(&space);
        let _ = m.read_u32_be(buf.at(0)); // cold: memory (SS10-30 has no L2)
        let s1 = m.take_stats();
        assert_eq!(s1.memory_accesses, 1);
        assert_eq!(s1.read_misses(SizeClass::B4), 1);
        let _ = m.read_u32_be(buf.at(0)); // warm
        let s2 = m.stats();
        assert_eq!(s2.memory_accesses, 0);
        assert_eq!(s2.l1d.read_hits, 1);
    }

    #[test]
    fn take_stats_resets_counters_not_cache() {
        let (space, buf, _) = fixture();
        let mut m = sim(&space);
        let _ = m.read_u32_be(buf.at(0));
        let _ = m.take_stats();
        let s = m.stats();
        assert_eq!(s.reads.total(), 0);
        assert_eq!(s.l1d.accesses(), 0);
    }

    #[test]
    fn compute_and_fetch_accumulate() {
        let (mut space, _, _) = {
            let mut s = AddressSpace::new();
            let b = s.alloc("b", 64, 8);
            let t = s.alloc_kind("t", 64, 8, RegionKind::Table);
            (s, b, t)
        };
        let code = space.alloc_code("loop", 128);
        let mut m = sim(&space);
        m.compute(10);
        m.compute(5);
        m.fetch(code);
        m.fetch(code);
        let s = m.stats();
        assert_eq!(s.compute_ops, 15);
        assert_eq!(s.fetch_bytes, 256);
        // 128 B at 64 B I-lines = 2 lines: 2 cold misses then 2 hits.
        assert_eq!(s.l1i.fetch_misses, 2);
        assert_eq!(s.l1i.fetch_hits, 2);
    }

    #[test]
    fn poke_and_peek_bypass_counters() {
        let (space, buf, _) = fixture();
        let mut m = sim(&space);
        m.poke(buf.at(0), &[1, 2, 3, 4]);
        assert_eq!(m.peek(buf.at(0), 4), &[1, 2, 3, 4]);
        assert_eq!(m.stats().data_accesses(), 0);
    }

    #[test]
    fn attribution_can_be_disabled() {
        let (space, buf, _) = fixture();
        let mut m = sim(&space);
        m.set_region_attribution(false);
        m.write_u32_be(buf.at(0), 1);
        let s = m.stats();
        assert_eq!(s.writes.total(), 1);
        assert!(s.writes_by_kind.is_empty());
    }

    #[test]
    fn native_and_sim_agree_on_contents() {
        use crate::mem::NativeMem;
        let (space, buf, _) = fixture();
        fn kernel<M: Mem>(m: &mut M, base: usize) {
            for i in 0..16u32 {
                m.write_u32_be(base + 4 * i as usize, i.wrapping_mul(0x9E3779B9));
            }
        }
        let mut arena = space.native_arena();
        let mut nat = NativeMem::new(&mut arena);
        kernel(&mut nat, buf.base);
        let mut simm = sim(&space);
        kernel(&mut simm, buf.base);
        assert_eq!(nat.bytes(buf.base, 64), simm.peek(buf.base, 64));
    }
}
