//! The TCP send/retransmission ring buffer.
//!
//! Sent data must stay buffered until acknowledged (the paper's §3.2.2:
//! "another data copy is required for possible retransmission at the
//! transport level" — which is exactly why one copy into the TCP buffer
//! is unavoidable and why the ILP loop integrates the data manipulations
//! *into that copy*). The ring hands out contiguous per-segment extents
//! (one TSDU = one TPDU; a segment never wraps — if the tail fragment is
//! too small the allocator skips to the start and reclaims the waste on
//! acknowledgment), tracks them in FIFO order, and frees them as
//! cumulative ACKs arrive.
//!
//! "Because TCP uses a ring buffer, to which the data is transferred
//! during the ILP loop, the structure of the TCP buffer … must be known
//! during the ILP loop": [`RingWriter`] is that knowledge, packaged as an
//! [`ilp_core::UnitSink`] the fused loop stores into.

use ilp_core::{store_unit, StoreGrain, UnitBuf, UnitSink};
use memsim::region::Region;
use memsim::Mem;
use std::collections::VecDeque;

/// One buffered segment's data extent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// Byte offset of the segment data within the ring.
    pub off: usize,
    /// Segment payload length.
    pub len: usize,
    /// Sequence number of the first byte.
    pub seq: u32,
    /// Dead bytes skipped *before* this extent (tail-wrap waste),
    /// reclaimed together with it.
    pub waste_before: usize,
}

impl Extent {
    /// Sequence number one past the last byte.
    pub fn end_seq(&self) -> u32 {
        self.seq.wrapping_add(self.len as u32)
    }
}

/// The ring allocator over a [`memsim`] region.
#[derive(Debug)]
pub struct SendRing {
    region: Region,
    /// Offset of the next free byte.
    tail: usize,
    /// Bytes currently allocated (incl. waste).
    used: usize,
    /// Data bytes currently allocated (excl. waste) — kept incrementally
    /// so the simulation oracle's `in_flight == buffered_bytes` check is
    /// O(1) per tick.
    data_bytes: usize,
    /// Reintroduce the pre-fix saturated-tail wrap bug (see
    /// [`SendRing::inject_legacy_wrap_bug`]).
    #[cfg(feature = "mutation")]
    buggy_wrap: bool,
    extents: VecDeque<Extent>,
}

impl SendRing {
    /// Wrap a region (allocate it with [`memsim::RegionKind::Ring`]).
    pub fn new(region: Region) -> Self {
        SendRing {
            region,
            tail: 0,
            used: 0,
            data_bytes: 0,
            #[cfg(feature = "mutation")]
            buggy_wrap: false,
            extents: VecDeque::new(),
        }
    }

    /// Ring capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.region.len
    }

    /// Bytes available for new segments (contiguity not guaranteed; see
    /// [`SendRing::alloc`]).
    pub fn free_bytes(&self) -> usize {
        self.capacity() - self.used
    }

    /// Number of buffered (unacknowledged) segments.
    pub fn segments(&self) -> usize {
        self.extents.len()
    }

    /// Where a `len`-byte extent would go — its offset and the tail
    /// fragment skipped before it — or `None` when the ring has no room
    /// for it, wrap waste included.
    fn place(&self, len: usize) -> Option<(usize, usize)> {
        // Wrap whenever the segment does not fit between the tail and the
        // end — including the saturated case `tail == capacity`, where the
        // skipped fragment is empty (`waste == 0`). Deciding the wrap by
        // `waste > 0` alone allocated extents at `off == capacity` there.
        let wrap = self.tail + len > self.capacity();
        // The pre-fix condition never fired for a saturated tail.
        #[cfg(feature = "mutation")]
        let wrap = wrap && !(self.buggy_wrap && self.tail == self.capacity());
        let waste = if wrap {
            self.capacity() - self.tail // skip the fragment at the end
        } else {
            0
        };
        if self.used + len + waste > self.capacity() {
            return None;
        }
        Some((if wrap { 0 } else { self.tail }, waste))
    }

    /// Whether [`SendRing::alloc`] would grant `len` bytes now: the same
    /// test, wrap waste included, without reserving anything.
    pub fn fits(&self, len: usize) -> bool {
        self.place(len).is_some()
    }

    /// Reserve a contiguous extent of `len` bytes for the segment
    /// starting at `seq`. Returns `None` when the ring is too full — the
    /// paper's "not enough space … all data manipulations are delayed
    /// until there is enough buffer space available again".
    pub fn alloc(&mut self, len: usize, seq: u32) -> Option<Extent> {
        assert!(len > 0 && len <= self.capacity(), "segment larger than the ring");
        let (off, waste) = self.place(len)?;
        let extent = Extent { off, len, seq, waste_before: waste };
        self.tail = off + len;
        self.used += len + waste;
        self.data_bytes += len;
        self.extents.push_back(extent);
        Some(extent)
    }

    /// Reintroduce the saturated-tail wrap bug this allocator shipped
    /// with (wrap decided by `waste > 0` alone, so `tail == capacity`
    /// handed out extents at `off == capacity` — past the end of the
    /// ring). Exists solely so the deterministic simulation sweep can
    /// prove it would have caught the bug: with the hook on, the fault
    /// scenarios that saturate the tail make [`SendRing::writer`] panic /
    /// [`SendRing::check_invariants`] fail. Compiled only under the
    /// `mutation` feature, which only the mutation proofs enable.
    #[cfg(feature = "mutation")]
    #[doc(hidden)]
    pub fn inject_legacy_wrap_bug(&mut self, on: bool) {
        self.buggy_wrap = on;
    }

    /// Process a cumulative acknowledgment: free every extent whose data
    /// lies entirely below `ack`. Returns the number of segments freed.
    pub fn ack(&mut self, ack: u32) -> usize {
        let mut freed = 0;
        while let Some(front) = self.extents.front() {
            // Wrapping-safe "end_seq <= ack": the in-flight window is far
            // smaller than 2^31.
            let remaining = ack.wrapping_sub(front.end_seq());
            if (remaining as i32) < 0 {
                break;
            }
            self.used -= front.len + front.waste_before;
            self.data_bytes -= front.len;
            self.extents.pop_front();
            freed += 1;
        }
        if self.extents.is_empty() && self.used == 0 {
            self.tail = 0; // quiescent: restart at the origin
        }
        freed
    }

    /// Data bytes currently buffered (excluding tail-wrap waste). For a
    /// healthy connection this equals `snd_nxt - snd_una` — one of the
    /// simulation oracles.
    pub fn buffered_bytes(&self) -> usize {
        self.data_bytes
    }

    /// Check the allocator's structural invariants; returns a
    /// description of the first violation. Used as a per-tick oracle by
    /// the deterministic simulation runner:
    ///
    /// * every extent lies inside the ring;
    /// * `used` equals the sum of extent lengths plus their waste, and
    ///   `buffered_bytes` the sum of lengths alone;
    /// * extents form a FIFO chain in sequence space
    ///   (`extents[i+1].seq == extents[i].end_seq()`);
    /// * the tail cursor never leaves the ring.
    pub fn check_invariants(&self) -> Result<(), String> {
        let cap = self.capacity();
        if self.tail > cap {
            return Err(format!("tail {} beyond capacity {}", self.tail, cap));
        }
        let mut used = 0usize;
        let mut data = 0usize;
        let mut prev_end: Option<u32> = None;
        for (i, e) in self.extents.iter().enumerate() {
            if e.off + e.len > cap {
                return Err(format!(
                    "extent #{i} [{}, {}) overruns the {cap}-byte ring",
                    e.off,
                    e.off + e.len
                ));
            }
            if let Some(end) = prev_end {
                if e.seq != end {
                    return Err(format!(
                        "extent #{i} seq {} breaks the FIFO chain (expected {end})",
                        e.seq
                    ));
                }
            }
            prev_end = Some(e.end_seq());
            used += e.len + e.waste_before;
            data += e.len;
        }
        if used != self.used {
            return Err(format!("used {} != sum over extents {used}", self.used));
        }
        if data != self.data_bytes {
            return Err(format!("buffered_bytes {} != sum of extent lens {data}", self.data_bytes));
        }
        Ok(())
    }

    /// The oldest unacknowledged extent (retransmission candidate).
    pub fn oldest(&self) -> Option<Extent> {
        self.extents.front().copied()
    }

    /// All buffered extents, oldest first — the fast-retransmit
    /// scoreboard walks this to find the holes between sacked ranges.
    pub fn extents(&self) -> impl Iterator<Item = &Extent> {
        self.extents.iter()
    }

    /// Absolute memory address of byte `off` within the ring.
    pub fn addr(&self, off: usize) -> usize {
        self.region.at(off)
    }

    /// An ILP sink positioned at `extent`.
    pub fn writer(&self, extent: Extent) -> RingWriter {
        self.writer_at(extent, 0)
    }

    /// An ILP sink positioned `offset` bytes into `extent` — the part
    /// B→C→A schedule stores each part at its own position.
    pub fn writer_at(&self, extent: Extent, offset: usize) -> RingWriter {
        assert!(offset <= extent.len, "offset beyond extent");
        RingWriter {
            base: self.region.at(extent.off + offset),
            len: extent.len - offset,
            written: 0,
        }
    }
}

/// A bounded, sequential sink into one ring extent — the single write of
/// the ILP send loop.
#[derive(Debug, Clone, Copy)]
pub struct RingWriter {
    base: usize,
    len: usize,
    written: usize,
}

impl RingWriter {
    /// Bytes stored so far.
    pub fn written(&self) -> usize {
        self.written
    }

    /// Absolute memory address this writer stores to (for plain copies
    /// into the extent, e.g. the staged-send policy).
    pub fn base_addr(&self) -> usize {
        self.base
    }

    /// Extent capacity.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing has been stored yet.
    pub fn is_empty(&self) -> bool {
        self.written == 0
    }
}

impl<M: Mem> UnitSink<M> for RingWriter {
    #[inline(always)]
    fn store(&mut self, m: &mut M, unit: &UnitBuf, grain: StoreGrain) {
        assert!(
            self.written + unit.len() <= self.len,
            "ILP loop overran its ring extent ({} + {} > {})",
            self.written,
            unit.len(),
            self.len
        );
        store_unit(m, self.base + self.written, unit, grain);
        self.written += unit.len();
    }

    /// The rest of the extent: a window cannot overrun it.
    #[inline(always)]
    fn span(&self, unit_len: usize) -> (usize, usize) {
        (self.base + self.written, (self.len - self.written) / unit_len)
    }

    #[inline(always)]
    fn advance(&mut self, len: usize) {
        self.written += len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::{AddressSpace, NativeMem, RegionKind};

    fn ring(cap: usize) -> (AddressSpace, SendRing) {
        let mut space = AddressSpace::new();
        let region = space.alloc_kind("tcp_ring", cap, 64, RegionKind::Ring);
        let ring = SendRing::new(region);
        (space, ring)
    }

    #[test]
    fn alloc_is_sequential() {
        let (_s, mut r) = ring(1024);
        let a = r.alloc(100, 0).unwrap();
        let b = r.alloc(200, 100).unwrap();
        assert_eq!(a.off, 0);
        assert_eq!(b.off, 100);
        assert_eq!(r.free_bytes(), 1024 - 300);
    }

    #[test]
    fn full_ring_refuses() {
        let (_s, mut r) = ring(256);
        assert!(r.alloc(200, 0).is_some());
        assert!(r.alloc(100, 200).is_none(), "only 56 bytes left");
        assert_eq!(r.segments(), 1);
    }

    #[test]
    fn ack_frees_in_order() {
        let (_s, mut r) = ring(1024);
        r.alloc(100, 0).unwrap();
        r.alloc(100, 100).unwrap();
        r.alloc(100, 200).unwrap();
        assert_eq!(r.ack(100), 1);
        assert_eq!(r.segments(), 2);
        assert_eq!(r.ack(300), 2);
        assert_eq!(r.free_bytes(), 1024);
    }

    #[test]
    fn partial_ack_frees_nothing() {
        let (_s, mut r) = ring(1024);
        r.alloc(100, 0).unwrap();
        assert_eq!(r.ack(50), 0);
        assert_eq!(r.segments(), 1);
    }

    #[test]
    fn tail_wrap_skips_fragment_and_reclaims_waste() {
        let (_s, mut r) = ring(256);
        r.alloc(200, 0).unwrap();
        r.ack(200); // empty again, but tail reset to 0 when quiescent
        // Force a mid-ring tail: allocate 200, keep it, ack nothing.
        let a = r.alloc(200, 200).unwrap();
        assert_eq!(a.off, 0);
        r.ack(400);
        // Now tail == 200; a 100-byte segment cannot fit at the tail (56
        // left) — it must wrap to offset 0 and waste the 56-byte tail.
        let b = r.alloc(100, 400);
        // used = 0 at this point (everything acked), so wrap succeeds.
        let b = b.unwrap();
        assert_eq!(b.off, 0);
        assert_eq!(b.waste_before, 0, "quiescent ring restarts at origin without waste");
    }

    #[test]
    fn tail_wrap_with_live_data_accounts_waste() {
        let (_s, mut r) = ring(256);
        let _a = r.alloc(100, 0).unwrap(); // [0,100)
        let _b = r.alloc(100, 100).unwrap(); // [100,200)
        r.ack(100); // frees a: 156 free but tail at 200
        let c = r.alloc(80, 200).unwrap(); // 56 tail bytes wasted, wraps
        assert_eq!(c.off, 0);
        assert_eq!(c.waste_before, 56);
        // used = 100 (b) + 80 (c) + 56 (waste) = 236.
        assert_eq!(r.free_bytes(), 256 - 236);
        // Acking b then c reclaims the waste too.
        r.ack(280);
        assert_eq!(r.free_bytes(), 256);
    }

    #[test]
    fn full_tail_after_partial_ack_wraps_to_origin() {
        // Regression: fill the ring exactly (tail == capacity), ack the
        // first extent, then allocate again. The old wrap condition only
        // fired when the tail *fragment* was non-empty (`waste > 0`), so
        // a saturated tail computed `waste == capacity - tail == 0`,
        // skipped the wrap branch, and handed out an extent at
        // `off == capacity` — every write through it landed past the end
        // of the ring region.
        let (space, mut r) = ring(100);
        r.alloc(60, 0).unwrap(); // [0,60)
        r.alloc(40, 60).unwrap(); // [60,100): tail == capacity
        assert_eq!(r.ack(60), 1); // frees the 60; extents non-empty, tail stays
        let c = r.alloc(30, 100).expect("60 bytes free, 30 must fit");
        assert_eq!(c.off, 0, "a saturated tail must wrap to the origin");
        assert_eq!(c.waste_before, 0, "nothing was skipped: the tail fragment is empty");
        assert!(c.off + c.len <= r.capacity(), "extent must lie inside the ring");
        // Writes through the extent's writer stay in bounds (the writer
        // asserts against its extent; the extent must be inside the
        // region for that to mean anything).
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        let mut w = r.writer(c);
        let mut unit = UnitBuf::new(8);
        unit.set_chunk64(0, 0xAA55_AA55_AA55_AA55);
        UnitSink::<NativeMem>::store(&mut w, &mut m, &unit, StoreGrain::Byte);
        assert_eq!(m.read_u8(r.addr(0)), 0xAA);
        // The live 40-byte extent at [60,100) was not clobbered by
        // accounting: acking it drains the ring completely.
        r.ack(100);
        r.ack(130);
        assert_eq!(r.free_bytes(), 100);
        assert_eq!(r.segments(), 0);
    }

    #[test]
    fn sequence_wraparound_ack() {
        let (_s, mut r) = ring(1024);
        let seq = u32::MAX - 50;
        r.alloc(100, seq).unwrap(); // wraps through 0
        assert_eq!(r.ack(seq.wrapping_add(100)), 1);
    }

    #[test]
    fn writer_stores_within_extent() {
        let (space, mut r) = ring(1024);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        let e = r.alloc(16, 0).unwrap();
        let mut w = r.writer(e);
        let mut unit = UnitBuf::new(8);
        unit.set_chunk64(0, 0x0102_0304_0506_0708);
        UnitSink::<NativeMem>::store(&mut w, &mut m, &unit, StoreGrain::Word);
        unit.set_chunk64(0, 0x1112_1314_1516_1718);
        UnitSink::<NativeMem>::store(&mut w, &mut m, &unit, StoreGrain::Byte);
        assert_eq!(w.written(), 16);
        assert_eq!(
            m.bytes(r.addr(0), 16),
            &[1, 2, 3, 4, 5, 6, 7, 8, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18]
        );
    }

    #[test]
    #[should_panic(expected = "overran")]
    fn writer_overrun_panics() {
        let (space, mut r) = ring(64);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        let e = r.alloc(8, 0).unwrap();
        let mut w = r.writer(e);
        let unit = UnitBuf::new(8);
        UnitSink::<NativeMem>::store(&mut w, &mut m, &unit, StoreGrain::Word);
        UnitSink::<NativeMem>::store(&mut w, &mut m, &unit, StoreGrain::Word);
    }

    #[test]
    #[should_panic(expected = "larger than the ring")]
    fn oversized_segment_panics() {
        let (_s, mut r) = ring(64);
        let _ = r.alloc(128, 0);
    }

    #[test]
    fn buffered_bytes_excludes_waste() {
        let (_s, mut r) = ring(256);
        r.alloc(100, 0).unwrap();
        r.alloc(100, 100).unwrap();
        r.ack(100);
        let c = r.alloc(80, 200).unwrap(); // wraps: 56 bytes waste
        assert_eq!(c.waste_before, 56);
        assert_eq!(r.buffered_bytes(), 180, "waste is not data");
        assert_eq!(r.free_bytes(), 256 - 236);
        r.check_invariants().unwrap();
        r.ack(280);
        assert_eq!(r.buffered_bytes(), 0);
        r.check_invariants().unwrap();
    }

    #[test]
    fn invariants_hold_across_a_random_alloc_ack_walk() {
        let mut rng = crate::rng::XorShift64::new(0xF00D);
        let (_s, mut r) = ring(512);
        let mut seq = 0u32;
        let mut acked = 0u32;
        for _ in 0..2000 {
            if rng.below(3) < 2 {
                let len = 1 + rng.index(200);
                if let Some(e) = r.alloc(len, seq) {
                    seq = e.end_seq();
                }
            } else if acked != seq {
                // Ack one to three oldest extents' worth of data.
                let mut target = acked;
                for _ in 0..1 + rng.below(3) {
                    if let Some(front) = r.oldest() {
                        if front.seq == target || front.seq == acked {
                            target = front.end_seq();
                        }
                    }
                }
                r.ack(target);
                acked = target;
            }
            r.check_invariants().unwrap();
        }
    }

    #[test]
    fn fits_answers_exactly_what_alloc_grants() {
        // Seeded walks over rings of several sizes, the tail landing at
        // every offset: whatever `fits` says of a length, `alloc` of that
        // length does — the wrap-waste refusals included.
        let (mut by_waste, mut by_space) = (0, 0);
        for (seed, cap) in [(1u64, 100usize), (2, 256), (3, 512), (4, 8192)] {
            let mut rng = crate::rng::XorShift64::new(seed);
            let (_s, mut r) = ring(cap);
            let mut seq = 0u32;
            for _ in 0..4000 {
                if rng.below(3) < 2 {
                    let len = 1 + rng.index(cap / 2);
                    let fits = r.fits(len);
                    if !fits && r.free_bytes() >= len {
                        by_waste += 1;
                    } else if !fits {
                        by_space += 1;
                    }
                    let got = r.alloc(len, seq);
                    assert_eq!(fits, got.is_some(), "cap {cap}, len {len}");
                    seq = got.map_or(seq, |e| e.end_seq());
                } else if let Some(front) = r.oldest() {
                    r.ack(front.end_seq());
                }
            }
        }
        assert!(by_waste > 0 && by_space > 0, "refused by wrap waste {by_waste}, by space {by_space}");
    }

    #[test]
    fn legacy_wrap_bug_hands_out_an_out_of_range_extent() {
        // With the hook on, the saturated-tail scenario from
        // `full_tail_after_partial_ack_wraps_to_origin` regresses: the
        // extent lands at off == capacity and the invariant check
        // reports it. This is the mutation the DST sweep must catch.
        let (_s, mut r) = ring(100);
        r.inject_legacy_wrap_bug(true);
        r.alloc(60, 0).unwrap();
        r.alloc(40, 60).unwrap(); // tail == capacity
        r.ack(60);
        let c = r.alloc(30, 100).expect("the buggy path still allocates");
        assert_eq!(c.off, 100, "buggy: extent starts past the end of the ring");
        assert!(r.check_invariants().is_err(), "oracle flags the overrun");
    }

    #[test]
    fn legacy_wrap_bug_off_by_default() {
        let (_s, mut r) = ring(100);
        r.alloc(60, 0).unwrap();
        r.alloc(40, 60).unwrap();
        r.ack(60);
        assert_eq!(r.alloc(30, 100).unwrap().off, 0);
        r.check_invariants().unwrap();
    }
}
