//! The [`Mem`] trait — the single abstraction every protocol kernel is
//! written against — and its zero-cost native implementation.
//!
//! The paper's central quantity is the number and size of memory accesses a
//! protocol stack performs per packet (§4.2). To measure that without
//! forking the code base, kernels never touch slices directly: they issue
//! reads and writes through `Mem`. [`crate::SimMem`] counts and
//! cache-simulates the access stream; [`NativeMem`] serves the identical
//! stream from a byte slice.
//!
//! **What a native access costs.** `NativeMem` is safe code over a slice,
//! so every `read::<N>` / `write::<N>` is a subtraction and one slice
//! bounds check (two compares and a branch to the panic path) before its
//! load or store. That check is what keeps a wild address a panic instead
//! of a wild access, and it does *not* vanish under monomorphisation: a
//! kernel that touches memory a byte at a time pays it per byte. The burst
//! operations exist so that byte-grain kernels pay it per burst, and the
//! fused loops per exchange unit instead of per word. [`Mem::copy`] is a
//! burst too: natively one range check and a `copy_within`, where the
//! default pays one check per word. The model-only stimuli —
//! [`Mem::fetch`], [`Mem::compute`] and [`Mem::foreign_working_set`] —
//! are no-ops natively: they stand for an instruction stream, ALU cycles
//! and another process's cache footprint that the simulated host pays and
//! a native run does not, so native timings measure the protocol, not the
//! model.
//!
//! **A chunk's steady state** is one operation, [`Mem::window`]: whole
//! units read at a source span, transformed by a [`UnitStep`] whose
//! kernels touch one region, emitted into a destination span. `NativeMem`
//! proves the three spans in its arena and pairwise disjoint once, then
//! walks `chunks_exact` over the two disjoint borrowed spans with the
//! kernels on a `NativeMem` over their region alone, and the step writes
//! each unit's bytes straight into its destination slice — with nothing
//! left to alias, the optimiser drops the per-unit checks a burst still
//! pays. An instrumented memory runs [`window_by_units`], the per-unit
//! loop in its order, with the step emitting into a local buffer whose
//! store it books at the step's grain.
//!
//! **What the burst operations promise every `Mem`.**
//! [`Mem::read_bytes`] / [`Mem::write_bytes`] are "`N` one-byte accesses
//! at ascending addresses" and [`Mem::lookup_u8`] is "one byte of a
//! 256-byte table"; [`Mem::fill_bytes`] is `len` one-byte writes of one
//! value. Their defaults are written in `read::<1>` /
//! `write::<1>`, so an instrumented memory books exactly the byte-grain
//! traffic the kernel means — eight `B1` reads, never one `B8` — and
//! returns and leaves exactly what the one-byte calls would. Likewise the
//! word bursts: [`Mem::read_words_be`] / [`Mem::write_words_be`] are "`W`
//! four-byte accesses at ascending addresses" (`W` `B4`, never one wider
//! access), and [`Mem::write_words_as_bytes`] is the `4W` one-byte writes
//! of one `write_bytes::<4>` per word. The defaults of `copy` and
//! `foreign_working_set` are likewise the accesses they stand for: a word
//! loop, and one `B4` read per 64-byte line. `NativeMem`
//! overrides each burst with one bounds check per burst (per table window)
//! and still panics on anything outside its arena.
//!
//! Register-resident computation is *not* memory traffic. Kernels announce
//! it through [`Mem::compute`] (ALU operation counts) so the host cost
//! model can charge cycles for it; `NativeMem` discards the hint.

use crate::region::Region;

/// A kernel's instruction-footprint handle, created by
/// [`crate::AddressSpace::alloc_code`].
///
/// Kernels call [`Mem::fetch`] with their code region once per inner-loop
/// iteration; the simulator walks the region through the instruction cache.
/// This reproduces the paper's observation that the fused ILP loop has a
/// larger active code footprint, which on the DEC Alpha's 8 KB I-cache
/// causes the extra instruction misses reported in §4.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeRegion {
    /// Name for reports ("ilp_send_loop", "checksum", …).
    pub name: &'static str,
    /// First instruction address.
    pub base: usize,
    /// Footprint length in bytes.
    pub len: usize,
}

/// Which accounting bucket accesses fall into.
///
/// The paper's "packet processing times include all data manipulations
/// within the application space" — system copies and kernel work are
/// excluded and accounted separately. Kernel-side code (the loop-back
/// kernel part's system copies) brackets itself with
/// [`Mem::phase_push`]/[`Mem::phase_pop`] so [`crate::SimMem`] can report
/// user and system traffic separately; `NativeMem` ignores the hints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseTag {
    /// Application-space protocol work (default).
    User,
    /// Kernel work: system copies, trap paths.
    System,
}

/// Memory as seen by a protocol kernel.
///
/// Addresses come from [`crate::AddressSpace`] regions. Access widths are
/// expressed through the const generic `N` (1, 2, 4 or 8 in practice —
/// the paper's access-size classes); the simulator buckets counts by `N`.
///
/// Byte order is the caller's business: `read`/`write` move raw bytes, and
/// the convenience helpers (`read_u16_be`, …) apply network byte order,
/// which is what every wire format in this workspace uses.
pub trait Mem {
    /// Read `N` bytes starting at `addr`.
    fn read<const N: usize>(&mut self, addr: usize) -> [u8; N];

    /// Write `N` bytes starting at `addr`.
    fn write<const N: usize>(&mut self, addr: usize, bytes: [u8; N]);

    /// Account for `ops` register-only ALU operations (adds, xors, shifts,
    /// table-index arithmetic). No memory traffic.
    fn compute(&mut self, ops: u32);

    /// Account for one execution of the loop body whose instructions live
    /// in `code`: the simulator streams the region through the I-cache.
    fn fetch(&mut self, code: CodeRegion);

    /// Enter an accounting phase (kernel code brackets its work with
    /// push/pop). No-op for uninstrumented memory.
    #[inline(always)]
    fn phase_push(&mut self, _tag: PhaseTag) {}

    /// Leave the current accounting phase.
    #[inline(always)]
    fn phase_pop(&mut self) {}

    /// Monotone `(user, system)` work counters — a time-like proxy an
    /// observer can difference across a span to attribute cost to a
    /// protocol stage. Uninstrumented memories return `(0, 0)` (so all
    /// deltas are zero and observation over [`NativeMem`] stays free);
    /// [`crate::SimMem`] derives the counters from its phase buckets:
    /// memory accesses weighted by the cache level that served them,
    /// plus ALU operations and instruction fetches. The counters reset
    /// with [`crate::SimMem::take_phase_stats`], so spans must not
    /// straddle a `take` boundary (deltas saturate to zero if they do).
    #[inline(always)]
    fn work_counters(&self) -> (u64, u64) {
        (0, 0)
    }

    // --- convenience helpers (network byte order) ---

    /// Read one byte.
    #[inline(always)]
    fn read_u8(&mut self, addr: usize) -> u8 {
        self.read::<1>(addr)[0]
    }

    /// Write one byte.
    #[inline(always)]
    fn write_u8(&mut self, addr: usize, v: u8) {
        self.write::<1>(addr, [v]);
    }

    /// Read a big-endian 16-bit word.
    #[inline(always)]
    fn read_u16_be(&mut self, addr: usize) -> u16 {
        u16::from_be_bytes(self.read::<2>(addr))
    }

    /// Write a big-endian 16-bit word.
    #[inline(always)]
    fn write_u16_be(&mut self, addr: usize, v: u16) {
        self.write::<2>(addr, v.to_be_bytes());
    }

    /// Read a big-endian 32-bit word.
    #[inline(always)]
    fn read_u32_be(&mut self, addr: usize) -> u32 {
        u32::from_be_bytes(self.read::<4>(addr))
    }

    /// Write a big-endian 32-bit word.
    #[inline(always)]
    fn write_u32_be(&mut self, addr: usize, v: u32) {
        self.write::<4>(addr, v.to_be_bytes());
    }

    /// Read a big-endian 64-bit word.
    #[inline(always)]
    fn read_u64_be(&mut self, addr: usize) -> u64 {
        u64::from_be_bytes(self.read::<8>(addr))
    }

    /// Write a big-endian 64-bit word.
    #[inline(always)]
    fn write_u64_be(&mut self, addr: usize, v: u64) {
        self.write::<8>(addr, v.to_be_bytes());
    }

    // --- byte-grain bursts ---

    /// `N` one-byte reads at `addr`, `addr + 1`, … in ascending order —
    /// the access pattern of a kernel that "manipulates data on a 1-byte
    /// basis", issued as one operation so an uninstrumented memory can
    /// check the range once.
    #[inline(always)]
    fn read_bytes<const N: usize>(&mut self, addr: usize) -> [u8; N] {
        let mut out = [0u8; N];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.read_u8(addr + i);
        }
        out
    }

    /// `N` one-byte writes at `addr`, `addr + 1`, … in ascending order.
    #[inline(always)]
    fn write_bytes<const N: usize>(&mut self, addr: usize, bytes: [u8; N]) {
        for (i, b) in bytes.into_iter().enumerate() {
            self.write_u8(addr + i, b);
        }
    }

    /// `out.len()` one-byte reads at `addr`, `addr + 1`, … in ascending
    /// order into `out` — a run of bytes whose length is known only at
    /// run time (a datagram leaving the kernel part), issued as one
    /// operation so an uninstrumented memory can check the range once.
    #[inline(always)]
    fn read_slice(&mut self, addr: usize, out: &mut [u8]) {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.read_u8(addr + i);
        }
    }

    /// `bytes.len()` one-byte writes at `addr`, `addr + 1`, … in
    /// ascending order (a datagram deposited into a kernel slot).
    #[inline(always)]
    fn write_slice(&mut self, addr: usize, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            self.write_u8(addr + i, b);
        }
    }

    /// `len` one-byte writes of `v` at `addr`, `addr + 1`, … in ascending
    /// order — a byte fill, issued as one operation so an uninstrumented
    /// memory can check the range once.
    #[inline(always)]
    fn fill_bytes(&mut self, addr: usize, len: usize, v: u8) {
        for i in 0..len {
            self.write_u8(addr + i, v);
        }
    }

    /// One one-byte read of entry `idx` of the 256-byte table at `table`.
    /// The whole window `[table, table + 256)` must lie in memory.
    #[inline(always)]
    fn lookup_u8(&mut self, table: usize, idx: u8) -> u8 {
        self.read_u8(table + usize::from(idx))
    }

    // --- word bursts: one exchange unit per operation ---

    /// `W` big-endian four-byte reads at `addr`, `addr + 4`, … in
    /// ascending order — one exchange unit of a word-filter loop.
    #[inline(always)]
    fn read_words_be<const W: usize>(&mut self, addr: usize) -> [u32; W] {
        core::array::from_fn(|i| self.read_u32_be(addr + 4 * i))
    }

    /// `W` big-endian four-byte writes at `addr`, `addr + 4`, … in
    /// ascending order (a word-grain store of one unit).
    #[inline(always)]
    fn write_words_be<const W: usize>(&mut self, addr: usize, words: [u32; W]) {
        for (i, w) in words.into_iter().enumerate() {
            self.write_u32_be(addr + 4 * i, w);
        }
    }

    /// The `4W` one-byte writes of `W` big-endian words, at ascending
    /// addresses from `addr` (a byte-grain store of one unit: one
    /// `write_bytes::<4>` per word).
    #[inline(always)]
    fn write_words_as_bytes<const W: usize>(&mut self, addr: usize, words: [u32; W]) {
        for (i, w) in words.into_iter().enumerate() {
            self.write_bytes(addr + 4 * i, w.to_be_bytes());
        }
    }

    /// Word-wise (4-byte) copy of `len` bytes, with a byte-wise tail.
    ///
    /// This is the canonical "system copy" / `tcp_send` copy of the paper's
    /// Figures 3 and 5: one 4-byte read and one 4-byte write per word.
    /// Source and destination must not overlap (every caller copies
    /// between distinct regions); an overlapping copy panics, so a word
    /// copy and a native `memmove` can never disagree about one.
    #[inline(always)]
    fn copy(&mut self, src: usize, dst: usize, len: usize) {
        assert_disjoint(src, dst, len);
        let words = len / 4;
        for i in 0..words {
            let w: [u8; 4] = self.read(src + 4 * i);
            self.write(dst + 4 * i, w);
        }
        for i in words * 4..len {
            let b = self.read_u8(src + i);
            self.write_u8(dst + i, b);
        }
    }

    /// The data working set of the kernel, the scheduler and the *other*
    /// process, touched on a loop-back crossing: one four-byte read per
    /// 64-byte line of `r`, at ascending addresses. This is a model
    /// stimulus — the paper's two processes context-switched on every
    /// packet and polluted the data cache (§4.2) — so an instrumented
    /// memory books the walk and a native one, which has no second
    /// process, skips it.
    #[inline(always)]
    fn foreign_working_set(&mut self, r: Region) {
        for line in (0..r.len).step_by(64) {
            let _ = self.read_u32_be(r.at(line));
        }
    }

    // --- the steady state: a chunk of whole units per operation ---

    /// The `w.units` exchange units of a chunk's steady state, one after
    /// another: `W` words read at `w.src`, transformed by `step` — whose
    /// kernels touch no memory but [`UnitStep::region`] — and emitted at
    /// `w.dst`, each span advancing `4W` bytes a unit. An instrumented
    /// memory books exactly what the per-unit loop books
    /// ([`window_by_units`]): the step emits into a local buffer, which
    /// [`UnitStep::store`] writes at the step's grain; [`NativeMem`] proves
    /// the three spans once and hands the step each unit's pre-sliced
    /// destination, which it writes itself. Either memory panics before its
    /// first access when a span leaves memory or two spans overlap.
    fn window<const W: usize>(&mut self, w: Window, step: &mut impl UnitStep<W>);
}

/// One chunk's steady state: the spans of [`Mem::window`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// First byte of the source span.
    pub src: usize,
    /// First byte of the destination span.
    pub dst: usize,
    /// Whole units to move: each of the two spans is `4W × units` bytes.
    pub units: usize,
}

impl Window {
    /// The source, destination and `kernel` spans of `W`-word units as
    /// disjoint slices of `arena`, whose byte 0 is address `base` — the
    /// window's whole proof, made once.
    ///
    /// # Panics
    /// Panics when a span leaves the arena or two spans overlap.
    pub(crate) fn spans<'s, const W: usize>(
        &self,
        kernel: Option<Region>,
        arena: &'s mut [u8],
        base: usize,
    ) -> [&'s mut [u8]; 3] {
        let span = |addr: usize, len: usize| {
            let start = addr.wrapping_sub(base);
            start..start.saturating_add(len)
        };
        let len = 4 * W * self.units;
        let (src, dst) = (span(self.src, len), span(self.dst, len));
        let proved = match kernel {
            Some(k) => arena.get_disjoint_mut([src, dst, span(k.base, k.len)]),
            None => arena.get_disjoint_mut([src, dst]).map(|[s, d]| [s, d, &mut []]),
        };
        proved.unwrap_or_else(|e| panic!("Mem::window: {self:?} of {W}-word units, kernel {kernel:?}: {e}"))
    }
}

/// One unit's transformation inside [`Mem::window`].
pub trait UnitStep<const W: usize> {
    /// The one region the step's kernels may touch (`None`: they touch no
    /// memory). The window reads it from the step itself, so natively the
    /// kernels' addresses and the window's region share one base.
    fn region(&self) -> Option<Region>;

    /// Transform `unit` and emit the result — `4W` bytes in wire order —
    /// into `out`, byte by byte as the step's last kernel computes them, or
    /// as the unit's big-endian words. Natively `out` is the unit's place in
    /// the window's destination; on an instrumented memory it is a local
    /// buffer that [`Self::store`] then books. The step's kernels reach
    /// memory only through `k`, and only inside [`Self::region`].
    ///
    /// # Panics
    /// Panics unless `out` is `4W` bytes long.
    fn emit<K: Mem>(&mut self, k: &mut K, unit: [u32; W], out: &mut [u8]);

    /// Store an emitted unit at `addr` of an instrumented memory, at the
    /// step's grain: the `W` four-byte or `4W` one-byte writes of
    /// [`Mem::write_words_be`] / [`Mem::write_words_as_bytes`]. (Natively
    /// the step emitted straight into the destination: nothing is left to
    /// store.)
    fn store<K: Mem>(&mut self, k: &mut K, addr: usize, unit: [u32; W]);
}

/// The units of `w` one at a time on `m`, in the order a per-unit loop
/// issues them — one [`Mem::read_words_be`] burst, then `unit`, which
/// transforms the words and stores them at the address it is given — with
/// no check of the spans: what [`Mem::window`] is on an instrumented
/// memory, and the steady state of a stage that runs on one memory only.
#[inline(always)]
pub fn window_by_units<M: Mem, const W: usize>(
    m: &mut M,
    w: &Window,
    mut unit: impl FnMut(&mut M, usize, [u32; W]),
) {
    for i in 0..w.units {
        let words = m.read_words_be(w.src + 4 * W * i);
        unit(m, w.dst + 4 * W * i, words);
    }
}

/// Panic unless `[src, src + len)` and `[dst, dst + len)` are disjoint.
#[inline(always)]
fn assert_disjoint(src: usize, dst: usize, len: usize) {
    assert!(src + len <= dst || dst + len <= src, "Mem::copy: {src:#x} and {dst:#x} overlap over {len} bytes");
}

/// Uninstrumented [`Mem`] over a mutable byte slice.
///
/// Addresses are the simulated addresses from [`crate::AddressSpace`];
/// `base` (the address space's data base) is subtracted to index the
/// arena, and every access is bounds-checked against it (see the module
/// docs for what that costs). All instrumentation hooks and model
/// stimuli (`fetch`, `compute`, `foreign_working_set`) are no-ops that
/// vanish under optimisation, so benchmarks over `NativeMem` measure the
/// machine code a real deployment would run.
#[derive(Debug)]
pub struct NativeMem<'a> {
    arena: &'a mut [u8],
    base: usize,
}

impl<'a> NativeMem<'a> {
    /// Wrap an arena created by [`crate::AddressSpace::native_arena`].
    pub fn new(arena: &'a mut [u8]) -> Self {
        NativeMem { arena, base: crate::layout::AddressSpace::new().data_base() }
    }

    /// Wrap a raw slice whose index 0 corresponds to simulated address
    /// `base`.
    pub fn with_base(arena: &'a mut [u8], base: usize) -> Self {
        NativeMem { arena, base }
    }

    /// Borrow the underlying bytes of simulated range `[addr, addr+len)`.
    pub fn bytes(&self, addr: usize, len: usize) -> &[u8] {
        &self.arena[addr - self.base..addr - self.base + len]
    }

    /// Mutably borrow the underlying bytes of `[addr, addr+len)`.
    pub fn bytes_mut(&mut self, addr: usize, len: usize) -> &mut [u8] {
        &mut self.arena[addr - self.base..addr - self.base + len]
    }
}

impl Mem for NativeMem<'_> {
    #[inline(always)]
    fn read<const N: usize>(&mut self, addr: usize) -> [u8; N] {
        let i = addr - self.base;
        let mut out = [0u8; N];
        out.copy_from_slice(&self.arena[i..i + N]);
        out
    }

    #[inline(always)]
    fn write<const N: usize>(&mut self, addr: usize, bytes: [u8; N]) {
        let i = addr - self.base;
        self.arena[i..i + N].copy_from_slice(&bytes);
    }

    #[inline(always)]
    fn compute(&mut self, _ops: u32) {}

    #[inline(always)]
    fn fetch(&mut self, _code: CodeRegion) {}

    /// No second process, no context switch: nothing to walk.
    #[inline(always)]
    fn foreign_working_set(&mut self, _r: Region) {}

    /// One slice check for the burst, then `copy_within`; the range
    /// check panics on a source or destination outside the arena.
    #[inline(always)]
    fn copy(&mut self, src: usize, dst: usize, len: usize) {
        assert_disjoint(src, dst, len);
        let s = src - self.base;
        self.arena.copy_within(s..s + len, dst - self.base);
    }

    /// One slice check for the burst.
    #[inline(always)]
    fn read_bytes<const N: usize>(&mut self, addr: usize) -> [u8; N] {
        self.read::<N>(addr)
    }

    /// One slice check for the burst.
    #[inline(always)]
    fn write_bytes<const N: usize>(&mut self, addr: usize, bytes: [u8; N]) {
        self.write::<N>(addr, bytes);
    }

    /// One slice check for the run, then `copy_from_slice`.
    #[inline(always)]
    fn read_slice(&mut self, addr: usize, out: &mut [u8]) {
        let i = addr - self.base;
        out.copy_from_slice(&self.arena[i..i + out.len()]);
    }

    /// One slice check for the run, then `copy_from_slice`.
    #[inline(always)]
    fn write_slice(&mut self, addr: usize, bytes: &[u8]) {
        let i = addr - self.base;
        self.arena[i..i + bytes.len()].copy_from_slice(bytes);
    }

    /// One slice check for the fill, then `fill`.
    #[inline(always)]
    fn fill_bytes(&mut self, addr: usize, len: usize, v: u8) {
        let i = addr - self.base;
        self.arena[i..i + len].fill(v);
    }

    /// One slice check for the table window: after it the index, a `u8`
    /// into 256 bytes, cannot be out of range, and look-ups in the same
    /// table share the check.
    #[inline(always)]
    fn lookup_u8(&mut self, table: usize, idx: u8) -> u8 {
        let i = table - self.base;
        self.arena[i..i + 256][usize::from(idx)]
    }

    /// One slice check for the unit.
    #[inline(always)]
    fn read_words_be<const W: usize>(&mut self, addr: usize) -> [u32; W] {
        let (words, _) = self.unit(addr, W).as_chunks::<4>();
        core::array::from_fn(|i| u32::from_be_bytes(words[i]))
    }

    /// One slice check for the unit.
    #[inline(always)]
    fn write_words_be<const W: usize>(&mut self, addr: usize, words: [u32; W]) {
        let (slots, _) = self.unit(addr, W).as_chunks_mut::<4>();
        for (slot, w) in slots.iter_mut().zip(words) {
            *slot = w.to_be_bytes();
        }
    }

    /// One slice check for the unit: natively a byte-grain store of
    /// whole words is the word store.
    #[inline(always)]
    fn write_words_as_bytes<const W: usize>(&mut self, addr: usize, words: [u32; W]) {
        self.write_words_be(addr, words);
    }

    /// One proof for the chunk — source, destination and kernel region in
    /// the arena and pairwise disjoint — then `chunks_exact` over the two
    /// spans, with the step's kernels on a memory over the kernel region
    /// alone and each unit emitted straight into its destination slice.
    /// Over disjoint borrowed slices the optimiser drops every per-unit
    /// bounds check of the source, the destination and the kernels'
    /// fixed-offset accesses (DESIGN.md §18, row 15).
    #[inline(always)]
    fn window<const W: usize>(&mut self, w: Window, step: &mut impl UnitStep<W>) {
        if w.units == 0 {
            return;
        }
        let region = step.region();
        let [src, dst, kernel] = w.spans::<W>(region, self.arena, self.base);
        let mut k = NativeMem::with_base(kernel, region.map_or(0, |r| r.base));
        for (s, d) in src.chunks_exact(4 * W).zip(dst.chunks_exact_mut(4 * W)) {
            let (words, _) = s.as_chunks::<4>();
            step.emit(&mut k, core::array::from_fn(|i| u32::from_be_bytes(words[i])), d);
        }
    }
}

impl NativeMem<'_> {
    /// The `4 * words` arena bytes at `addr` — one slice check; a burst
    /// outside the arena panics here.
    #[inline(always)]
    fn unit(&mut self, addr: usize, words: usize) -> &mut [u8] {
        let i = addr - self.base;
        &mut self.arena[i..i + 4 * words]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::AddressSpace;

    fn fixture() -> (AddressSpace, crate::region::Region) {
        let mut space = AddressSpace::new();
        let r = space.alloc("buf", 64, 8);
        (space, r)
    }

    #[test]
    fn read_write_roundtrip_all_widths() {
        let (space, r) = fixture();
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        m.write_u8(r.at(0), 0xAB);
        m.write_u16_be(r.at(2), 0x1234);
        m.write_u32_be(r.at(4), 0xDEADBEEF);
        m.write_u64_be(r.at(8), 0x0102030405060708);
        assert_eq!(m.read_u8(r.at(0)), 0xAB);
        assert_eq!(m.read_u16_be(r.at(2)), 0x1234);
        assert_eq!(m.read_u32_be(r.at(4)), 0xDEADBEEF);
        assert_eq!(m.read_u64_be(r.at(8)), 0x0102030405060708);
    }

    #[test]
    fn big_endian_layout_on_the_wire() {
        let (space, r) = fixture();
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        m.write_u32_be(r.at(0), 0x11223344);
        assert_eq!(m.bytes(r.at(0), 4), &[0x11, 0x22, 0x33, 0x44]);
    }

    #[test]
    fn copy_moves_exact_bytes_including_tail() {
        let (mut space, _) = {
            let mut s = AddressSpace::new();
            let r = s.alloc("buf", 64, 8);
            (s, r)
        };
        let src = space.alloc("src", 32, 8);
        let dst = space.alloc("dst", 32, 8);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        for i in 0..11 {
            m.write_u8(src.at(i), i as u8 + 1);
        }
        m.copy(src.base, dst.base, 11); // 2 words + 3-byte tail
        for i in 0..11 {
            assert_eq!(m.read_u8(dst.at(i)), i as u8 + 1);
        }
        assert_eq!(m.read_u8(dst.at(11)), 0);
    }

    #[test]
    fn bytes_and_bytes_mut_alias_the_same_storage() {
        let (space, r) = fixture();
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        m.bytes_mut(r.at(0), 4).copy_from_slice(&[9, 8, 7, 6]);
        assert_eq!(m.read_u32_be(r.at(0)), 0x09080706);
    }

    /// Whether `access` panics on a fresh native world of `space`.
    fn panics<R>(space: &AddressSpace, access: impl Fn(&mut NativeMem) -> R) -> bool {
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| access(&mut m))).is_err()
    }

    #[test]
    #[should_panic]
    fn out_of_arena_access_panics() {
        let (space, r) = fixture();
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        let _ = m.read_u32_be(r.end() + 1024);
    }

    #[test]
    fn out_of_arena_bursts_and_table_windows_panic() {
        // A wild address is a panic, never a wild, short or wrapped
        // access — for the burst operations and the table window too,
        // including ones that start inside the arena and end outside it.
        let mut space = AddressSpace::new();
        space.alloc("buf", 512, 8);
        let (base, end) = (space.data_base(), space.data_base() + space.data_size());
        assert!(panics(&space, |m| m.read_bytes::<8>(end - 7)), "burst read crossing the end");
        assert!(panics(&space, |m| m.write_bytes(end - 3, [1u8; 4])), "burst write crossing the end");
        assert!(panics(&space, |m| m.read_bytes::<2>(base - 1)), "burst read crossing the start");
        assert!(panics(&space, |m| m.write_bytes(base - 8, [1u8; 8])), "burst write below the arena");
        // Entry 0 of this table is in the arena; its window is not.
        assert!(panics(&space, |m| m.lookup_u8(end - 255, 0)), "table window crossing the end");
        assert!(panics(&space, |m| m.lookup_u8(base - 1, 1)), "table window crossing the start");
        assert!(panics(&space, |m| m.lookup_u8(end + 4096, 0)), "table outside the arena");
        // Word bursts: crossing the end, crossing the start, wholly outside.
        assert!(panics(&space, |m| m.read_words_be::<2>(end - 4)), "word read crossing the end");
        assert!(panics(&space, |m| m.write_words_be(end - 12, [1u32; 4])), "word write crossing the end");
        assert!(panics(&space, |m| m.write_words_as_bytes(end - 4, [1u32; 3])), "byte-grain crossing the end");
        assert!(panics(&space, |m| m.read_words_be::<4>(base - 4)), "word read crossing the start");
        assert!(panics(&space, |m| m.write_words_be(base - 8, [1u32; 1])), "word write below the arena");
        assert!(panics(&space, |m| m.write_words_as_bytes(base - 4, [1u32; 2])), "byte-grain burst below");
        assert!(panics(&space, |m| m.read_words_be::<1>(end + 4096)), "word read outside the arena");
        assert!(panics(&space, |m| m.write_words_as_bytes(end + 64, [1u32; 4])), "byte-grain burst outside");
        // Copies: source or destination ending one byte past the end, or
        // starting one byte below the start.
        assert!(panics(&space, |m| m.copy(end - 15, base, 16)), "copy source crossing the end");
        assert!(panics(&space, |m| m.copy(base, end - 15, 16)), "copy destination crossing the end");
        assert!(panics(&space, |m| m.copy(base - 1, base + 64, 16)), "copy source crossing the start");
        assert!(panics(&space, |m| m.copy(base + 64, base - 1, 16)), "copy destination crossing the start");
        // The last burst and the last window that fit do not panic.
        assert!(!panics(&space, |m| m.copy(end - 16, base, 16)));
        assert!(!panics(&space, |m| m.copy(base, end - 16, 16)));
        assert!(!panics(&space, |m| m.read_bytes::<8>(end - 8)));
        assert!(!panics(&space, |m| m.write_bytes(end - 4, [1u8; 4])));
        assert!(!panics(&space, |m| m.lookup_u8(end - 256, 255)));
        assert!(!panics(&space, |m| m.read_words_be::<4>(end - 16)));
        assert!(!panics(&space, |m| m.write_words_be(end - 12, [1u32; 3])));
        assert!(!panics(&space, |m| m.write_words_as_bytes(end - 8, [1u32; 2])));
        assert!(!panics(&space, |m| m.read_words_be::<1>(base)));
    }

    #[test]
    fn overlapping_copies_panic_on_both_memories() {
        let mut space = AddressSpace::new();
        let r = space.alloc("buf", 512, 8);
        let host = crate::HostModel::ss10_30();
        let sim_panics = |src: usize, dst: usize, len: usize| {
            let mut m = crate::SimMem::new(&space, &host);
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.copy(src, dst, len))).is_err()
        };
        // Forward and backward overlap by one byte, and a copy onto itself.
        for (src, dst, len) in [(r.base, r.at(15), 16), (r.at(15), r.base, 16), (r.at(8), r.at(8), 1)] {
            assert!(panics(&space, |m| m.copy(src, dst, len)), "native {src:#x} → {dst:#x}, {len}");
            assert!(sim_panics(src, dst, len), "sim {src:#x} → {dst:#x}, {len}");
        }
        // Adjacent ranges do not overlap, and an empty copy never does.
        for (src, dst, len) in [(r.base, r.at(16), 16), (r.at(16), r.base, 16), (r.at(8), r.at(8), 0)] {
            assert!(!panics(&space, |m| m.copy(src, dst, len)), "native {src:#x} → {dst:#x}, {len}");
            assert!(!sim_panics(src, dst, len), "sim {src:#x} → {dst:#x}, {len}");
        }
    }

    /// A window step that passes each unit through and stores it as words,
    /// declaring a kernel region it never touches.
    struct PassThrough(Option<Region>);

    impl<const W: usize> UnitStep<W> for PassThrough {
        fn region(&self) -> Option<Region> {
            self.0
        }

        fn emit<K: Mem>(&mut self, _k: &mut K, unit: [u32; W], out: &mut [u8]) {
            for (slot, w) in out.as_chunks_mut::<4>().0.iter_mut().zip(unit) {
                *slot = w.to_be_bytes();
            }
        }

        fn store<K: Mem>(&mut self, k: &mut K, addr: usize, unit: [u32; W]) {
            k.write_words_be(addr, unit);
        }
    }

    #[test]
    fn window_spans_outside_memory_or_overlapping_panic_on_both_memories() {
        let mut space = AddressSpace::new();
        let r = space.alloc("buf", 512, 8);
        let table = space.alloc_kind("table", 64, 8, crate::RegionKind::Table);
        let (base, end) = (space.data_base(), space.data_base() + space.data_size());
        let host = crate::HostModel::ss10_30();
        // Two 8-byte units: each span is 16 bytes.
        let window = |src, dst, kernel: Option<(usize, usize)>| {
            (Window { src, dst, units: 2 }, kernel.map(|(base, len)| Region { base, len, ..table }))
        };
        let on_both = |(w, kernel): (Window, Option<Region>)| {
            let native = panics(&space, |m| m.window::<2>(w, &mut PassThrough(kernel)));
            let mut sim = crate::SimMem::new(&space, &host);
            let sim = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sim.window::<2>(w, &mut PassThrough(kernel))
            }));
            (native, sim.is_err())
        };
        for (w, what) in [
            (window(end - 8, r.base, None), "source crossing the end"),
            (window(base - 8, r.at(64), None), "source crossing the start"),
            (window(r.base, end - 15, None), "destination crossing the end"),
            (window(r.base, end + 64, None), "destination outside the arena"),
            (window(r.base, r.at(64), Some((end - 32, 64))), "kernel crossing the end"),
            (window(r.base, r.at(8), None), "source and destination overlapping"),
            (window(r.at(64), r.at(56), None), "destination overlapping the source from below"),
            (window(r.base, r.at(64), Some((r.at(12), 8))), "kernel overlapping the source"),
            (window(r.base, r.at(64), Some((r.at(40), 64))), "kernel overlapping the destination"),
        ] {
            assert_eq!(on_both(w), (true, true), "{what}");
        }
        // Adjacent spans and the last units that fit do not panic.
        for w in [
            window(r.base, r.at(16), Some((table.base, table.len))),
            window(r.base, r.at(16), Some((r.at(32), 8))),
            window(end - 32, end - 16, None),
            window(base, end - 16, Some((base + 16, 8))),
        ] {
            assert_eq!(on_both(w), (false, false), "{:?}", w.0);
        }
    }

    #[test]
    fn a_window_moves_what_the_per_unit_loop_moves_on_both_memories() {
        use crate::cache::AccessKind::{Read, Write};
        use crate::trace::TraceEvent;
        let (space, r) = fixture();
        let data: Vec<u8> = (0..16).map(|i| i * 7 + 1).collect();
        let w = Window { src: r.base, dst: r.at(32), units: 2 };
        let mut arena = space.native_arena();
        let mut native = NativeMem::new(&mut arena);
        native.bytes_mut(r.base, 16).copy_from_slice(&data);
        native.window::<2>(w, &mut PassThrough(None));
        assert_eq!(native.bytes(r.at(32), 16), &data[..]);
        let mut sim = crate::SimMem::new(&space, &crate::HostModel::ss10_30());
        sim.poke(r.base, &data);
        sim.start_trace(64);
        sim.window::<2>(w, &mut PassThrough(None));
        assert_eq!(sim.peek(r.at(32), 16), &data[..]);
        // Per unit: a two-word read, then the step's two-word store.
        let event = |addr, kind| TraceEvent { addr, len: 4, kind };
        let unit = |i: usize| [(0, Read), (4, Read), (32, Write), (36, Write)].map(|(o, k)| event(r.at(8 * i + o), k));
        let want: Vec<TraceEvent> = unit(0).into_iter().chain(unit(1)).collect();
        assert_eq!(sim.take_trace().expect("started").events(), &want[..]);
    }

    #[test]
    fn sim_books_the_foreign_working_set_as_one_word_read_per_line() {
        use crate::cache::AccessKind::Read;
        use crate::trace::TraceEvent;
        use crate::SizeClass::B4;
        let mut space = AddressSpace::new();
        // Five lines, the last one partial: it is read all the same.
        let r = space.alloc_kind("os", 4 * 64 + 8, 64, crate::RegionKind::Kernel);
        let mut m = crate::SimMem::new(&space, &crate::HostModel::ss10_30());
        m.start_trace(64);
        m.phase_push(PhaseTag::System);
        m.foreign_working_set(r);
        m.phase_pop();
        let want: Vec<TraceEvent> = (0..5).map(|i| TraceEvent { addr: r.at(64 * i), len: 4, kind: Read }).collect();
        assert_eq!(m.take_trace().expect("started").events(), &want[..], "ascending, one per line");
        let (user, system) = m.take_phase_stats();
        assert_eq!(user.data_accesses(), 0);
        assert_eq!((system.reads.by_size(B4), system.reads.total(), system.writes.total()), (5, 5, 0));
        assert_eq!(system.reads_for(crate::RegionKind::Kernel).total(), 5);
        // Natively the walk is nothing at all — not even a range check.
        let mut arena = AddressSpace::new().native_arena();
        NativeMem::new(&mut arena).foreign_working_set(r);
    }

    /// One burst write on `burst`, the `N` one-byte writes it stands for
    /// on `bytes`.
    fn write_both<const N: usize, M: Mem>(burst: &mut M, bytes: &mut M, addr: usize, data: [u8; 8]) {
        let data: [u8; N] = core::array::from_fn(|i| data[i]);
        burst.write_bytes(addr, data);
        for (i, b) in data.into_iter().enumerate() {
            bytes.write_u8(addr + i, b);
        }
    }

    /// One burst read on `burst` against `N` one-byte reads on `bytes`.
    fn read_both<const N: usize, M: Mem>(burst: &mut M, bytes: &mut M, addr: usize) {
        let got: [u8; N] = burst.read_bytes(addr);
        let want: [u8; N] = core::array::from_fn(|i| bytes.read_u8(addr + i));
        assert_eq!(got, want, "read_bytes::<{N}> at {addr:#x}");
    }

    /// One word burst on `burst` — `W` four-byte writes, or `4W` one-byte
    /// writes when `as_bytes` — and the per-word calls it stands for on
    /// `words`.
    fn write_words_both<const W: usize, M: Mem>(
        burst: &mut M,
        words: &mut M,
        addr: usize,
        data: [u8; 8],
        as_bytes: bool,
    ) {
        let seed = u64::from_be_bytes(data);
        let unit: [u32; W] = core::array::from_fn(|i| seed.rotate_left(16 * i as u32) as u32);
        if as_bytes {
            burst.write_words_as_bytes(addr, unit);
        } else {
            burst.write_words_be(addr, unit);
        }
        for (i, w) in unit.into_iter().enumerate() {
            if as_bytes {
                words.write_bytes(addr + 4 * i, w.to_be_bytes());
            } else {
                words.write_u32_be(addr + 4 * i, w);
            }
        }
    }

    /// One run write on `burst`, the one-byte writes it stands for on
    /// `bytes`.
    fn write_slice_both<M: Mem>(burst: &mut M, bytes: &mut M, addr: usize, data: &[u8]) {
        burst.write_slice(addr, data);
        for (i, &b) in data.iter().enumerate() {
            bytes.write_u8(addr + i, b);
        }
    }

    /// One run read of `len` bytes on `burst` against `len` one-byte
    /// reads on `bytes`.
    fn read_slice_both<M: Mem>(burst: &mut M, bytes: &mut M, addr: usize, len: usize) {
        let mut got = [0u8; 16];
        burst.read_slice(addr, &mut got[..len]);
        let want: Vec<u8> = (0..len).map(|i| bytes.read_u8(addr + i)).collect();
        assert_eq!(&got[..len], &want[..], "read_slice of {len} at {addr:#x}");
    }

    /// One word-burst read on `burst` against `W` `read_u32_be` on `words`.
    fn read_words_both<const W: usize, M: Mem>(burst: &mut M, words: &mut M, addr: usize) {
        let got: [u32; W] = burst.read_words_be(addr);
        let want: [u32; W] = core::array::from_fn(|i| words.read_u32_be(addr + 4 * i));
        assert_eq!(got, want, "read_words_be::<{W}> at {addr:#x}");
    }

    /// Drive two memories of one kind in lockstep over region `r`: `burst`
    /// through the burst operations, `bytes` through the one-byte (or, for
    /// a word burst, per-word) calls their contract names. Every value
    /// returned and every byte left behind must agree.
    fn bursts_equal_byte_accesses<M: Mem>(burst: &mut M, bytes: &mut M, r: crate::region::Region) {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..20_000 {
            let (op, data) = (next() % 23, next().to_be_bytes());
            let addr = r.base + next() as usize % (r.len - 16);
            match op {
                0 => write_both::<1, M>(burst, bytes, addr, data),
                1 => write_both::<2, M>(burst, bytes, addr, data),
                2 => write_both::<4, M>(burst, bytes, addr, data),
                3 => write_both::<8, M>(burst, bytes, addr, data),
                4 => read_both::<1, M>(burst, bytes, addr),
                5 => read_both::<2, M>(burst, bytes, addr),
                6 => read_both::<4, M>(burst, bytes, addr),
                7 => read_both::<8, M>(burst, bytes, addr),
                8 => read_words_both::<1, M>(burst, bytes, addr),
                9 => read_words_both::<2, M>(burst, bytes, addr),
                10 => read_words_both::<3, M>(burst, bytes, addr),
                11 => read_words_both::<4, M>(burst, bytes, addr),
                12 | 13 => write_words_both::<1, M>(burst, bytes, addr, data, op == 13),
                14 | 15 => write_words_both::<2, M>(burst, bytes, addr, data, op == 15),
                16 | 17 => write_words_both::<3, M>(burst, bytes, addr, data, op == 17),
                18 | 19 => write_words_both::<4, M>(burst, bytes, addr, data, op == 19),
                20 => write_slice_both(burst, bytes, addr, &data[..next() as usize % 9]),
                21 => read_slice_both(burst, bytes, addr, next() as usize % 17),
                _ => {
                    let table = r.base + next() as usize % (r.len - 255);
                    let idx = data[0];
                    assert_eq!(burst.lookup_u8(table, idx), bytes.read_u8(table + usize::from(idx)));
                }
            }
        }
        for addr in r.base..r.end() {
            assert_eq!(burst.read_u8(addr), bytes.read_u8(addr), "byte left at {addr:#x}");
        }
    }

    #[test]
    fn burst_operations_equal_their_byte_accesses_on_both_memories() {
        let mut space = AddressSpace::new();
        let r = space.alloc("buf", 1024, 8);
        let (mut a, mut b) = (space.native_arena(), space.native_arena());
        bursts_equal_byte_accesses(&mut NativeMem::new(&mut a), &mut NativeMem::new(&mut b), r);

        let host = crate::HostModel::ss10_30();
        let (mut burst, mut bytes) = (crate::SimMem::new(&space, &host), crate::SimMem::new(&space, &host));
        bursts_equal_byte_accesses(&mut burst, &mut bytes, r);
        // The instrumented memory cannot tell the two apart: same counts
        // per size class and region kind, same hits and misses.
        assert_eq!(format!("{:?}", burst.stats()), format!("{:?}", bytes.stats()));
    }

    #[test]
    fn sim_books_a_burst_as_ascending_one_byte_accesses() {
        use crate::cache::AccessKind::{Read, Write};
        use crate::trace::TraceEvent;
        let (space, r) = fixture();
        let mut m = crate::SimMem::new(&space, &crate::HostModel::ss10_30());
        m.start_trace(64);
        let _: [u8; 8] = m.read_bytes(r.at(16));
        m.write_bytes(r.at(4), [9u8; 4]);
        let _ = m.lookup_u8(r.base, 40);
        let mut want: Vec<TraceEvent> = (0..8).map(|i| TraceEvent { addr: r.at(16 + i), len: 1, kind: Read }).collect();
        want.extend((0..4).map(|i| TraceEvent { addr: r.at(4 + i), len: 1, kind: Write }));
        want.push(TraceEvent { addr: r.at(40), len: 1, kind: Read });
        assert_eq!(m.take_trace().expect("started").events(), &want[..]);
        let s = m.stats();
        assert_eq!((s.reads.by_size(crate::SizeClass::B1), s.reads.total()), (9, 9), "never one B8");
        assert_eq!((s.writes.by_size(crate::SizeClass::B1), s.writes.total()), (4, 4));
    }

    #[test]
    fn a_fill_is_its_one_byte_writes_on_both_memories() {
        use crate::cache::AccessKind::Write;
        use crate::trace::TraceEvent;
        let (space, r) = fixture();
        // Natively: the bytes `len` `write_u8`s leave, and a panic on a
        // fill that leaves the arena by one byte at either end.
        let (mut a, mut b) = (space.native_arena(), space.native_arena());
        let (mut fill, mut bytes) = (NativeMem::new(&mut a), NativeMem::new(&mut b));
        for (addr, len, v) in [(r.at(3), 17, 0xA5), (r.at(8), 0, 0x11), (r.base, 64, 0), (r.at(40), 9, 0x7E)] {
            fill.fill_bytes(addr, len, v);
            (0..len).for_each(|i| bytes.write_u8(addr + i, v));
        }
        assert_eq!(fill.bytes(r.base, r.len), bytes.bytes(r.base, r.len));
        let (base, end) = (space.data_base(), space.data_base() + space.data_size());
        assert!(panics(&space, |m| m.fill_bytes(end - 7, 8, 1)), "fill crossing the end");
        assert!(panics(&space, |m| m.fill_bytes(base - 1, 8, 1)), "fill crossing the start");
        assert!(!panics(&space, |m| m.fill_bytes(end - 8, 8, 1)));
        // Instrumented: `len` one-byte writes at ascending addresses.
        let mut m = crate::SimMem::new(&space, &crate::HostModel::ss10_30());
        m.start_trace(64);
        m.fill_bytes(r.at(5), 6, 0xC3);
        let want: Vec<TraceEvent> = (0..6).map(|i| TraceEvent { addr: r.at(5 + i), len: 1, kind: Write }).collect();
        assert_eq!(m.take_trace().expect("started").events(), &want[..]);
        assert_eq!(m.peek(r.at(4), 8), &[0, 0xC3, 0xC3, 0xC3, 0xC3, 0xC3, 0xC3, 0]);
        let s = m.stats();
        assert_eq!((s.writes.by_size(crate::SizeClass::B1), s.writes.total(), s.reads.total()), (6, 6, 0));
    }

    #[test]
    fn sim_books_a_word_burst_as_ascending_word_or_byte_accesses() {
        use crate::cache::AccessKind::{Read, Write};
        use crate::trace::TraceEvent;
        use crate::SizeClass::{B1, B4};
        let (space, r) = fixture();
        let mut m = crate::SimMem::new(&space, &crate::HostModel::ss10_30());
        m.start_trace(64);
        let _: [u32; 4] = m.read_words_be(r.at(16));
        m.write_words_be(r.at(32), [7u32; 3]);
        m.write_words_as_bytes(r.at(48), [9u32; 2]);
        let mut want: Vec<TraceEvent> =
            (0..4).map(|i| TraceEvent { addr: r.at(16 + 4 * i), len: 4, kind: Read }).collect();
        want.extend((0..3).map(|i| TraceEvent { addr: r.at(32 + 4 * i), len: 4, kind: Write }));
        want.extend((0..8).map(|i| TraceEvent { addr: r.at(48 + i), len: 1, kind: Write }));
        assert_eq!(m.take_trace().expect("started").events(), &want[..]);
        let s = m.stats();
        assert_eq!((s.reads.by_size(B4), s.reads.total()), (4, 4), "W B4 reads, never one wider access");
        assert_eq!((s.writes.by_size(B4), s.writes.by_size(B1), s.writes.total()), (3, 8, 11));
    }
}
