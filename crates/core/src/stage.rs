//! Data-manipulation stages and their fusion.
//!
//! A [`UnitStage`] is one protocol layer's data manipulation, expressed
//! over a register-resident exchange unit ([`UnitBuf`]). Stages compose
//! two ways, mirroring the paper's §3.2.1 implementation alternatives:
//!
//! * [`Fused`] — static composition of [`StaticStage`]s. The composed
//!   type monomorphises into a single loop body, the moral equivalent of
//!   the paper's macro inlining ("a much more efficient solution is macro
//!   inlining") — literally so: every static stage's `apply` is
//!   `#[inline(always)]`, and CI checks that none survives as a symbol
//!   of the native benchmark binary. (Monomorphisation alone was not
//!   enough: the stages used to be *called* once per unit.) A static
//!   stage is written against any memory, so a chunk's steady state can
//!   run it on a memory over its own region ([`memsim::Mem::window`]).
//! * [`DynPipeline`] — a vector of boxed stages invoked through vtables,
//!   the equivalent of "function calls and function pointers", which
//!   "supports a dynamically adaptable implementation" at the cost the
//!   paper measured: all ILP benefit lost. Its stages run on one memory,
//!   so its steady state goes a unit at a time. The `dispatch` bench
//!   reproduces that comparison on modern hardware.
//!
//! Concrete stages provided here wrap the workspace's kernels: cipher
//! encrypt/decrypt, an Internet-checksum tap, and an ordering-constrained
//! CRC stage used to exercise the §2.2 applicability rule.

use checksum::{Crc32, InetChecksum};
use cipher::CipherKernel;
use memsim::{window_by_units, CodeRegion, Mem, Region, UnitStep, Window};

use crate::pipeline::{store_words, StoreGrain};
use crate::unitbuf::UnitBuf;
use crate::units::lcm;

/// Whether a data manipulation requires strictly serial input order
/// (§2.2, after Feldmeier & McAuley). Ordering-constrained stages cannot
/// participate in the part B→C→A schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ordering {
    /// Parts may be processed in any order (TCP checksum, block ciphers).
    Unconstrained,
    /// Serial order required (CRC, stream ciphers).
    Constrained,
}

/// One fusible data manipulation, as an ILP loop over memory `M` drives
/// it.
///
/// The trait is object-safe (the memory type is a trait parameter, not a
/// method parameter) so a [`DynPipeline`] holds its stages behind `dyn`.
/// Every [`StaticStage`] is one, through the impl below.
pub trait UnitStage<M: Mem> {
    /// Natural processing-unit size in bytes (`Lx` in the paper).
    fn natural_unit(&self) -> usize;

    /// Transform (or observe) one exchange unit in place. `unit.len()`
    /// is always a multiple of [`Self::natural_unit`] — the driver
    /// negotiated it via the LCM rule.
    fn process(&mut self, m: &mut M, unit: &mut UnitBuf);

    /// Serial-order requirement; default unconstrained.
    fn ordering(&self) -> Ordering {
        Ordering::Unconstrained
    }

    /// Granularity at which this stage's *output* naturally wants to be
    /// stored, or `None` for observe-only stages that pass data through
    /// untouched.
    fn output_grain(&self) -> Option<usize> {
        None
    }

    /// A chunk's steady state: `units` whole units of `W` words read at
    /// `src`, each fetched as the loop body `code`, run through
    /// [`Self::process`] and stored at `dst` at `grain`. This default takes
    /// them one at a time on `m` ([`window_by_units`]) — the path of a
    /// stage that runs on one memory only; every static stage takes one
    /// [`Mem::window`] over its own region instead.
    #[inline(always)]
    fn steady<const W: usize>(
        &mut self,
        m: &mut M,
        (src, dst, units): (usize, usize, usize),
        grain: StoreGrain,
        code: Option<CodeRegion>,
    ) where
        Self: Sized,
    {
        let mut unit = UnitBuf::new(4 * W);
        window_by_units(m, &Window { src, dst, units }, |m, at, words: [u32; W]| {
            unit.load(words);
            if let Some(code) = code {
                m.fetch(code);
            }
            self.process(m, &mut unit);
            store_words(m, at, unit.to_array::<W>(), grain);
        });
    }
}

/// A stage written against any memory — what every static stage is, and
/// what [`Fused`] composes. Its kernels touch memory only inside
/// [`Self::region`], so a chunk's steady state runs them on a memory over
/// that region alone ([`Mem::window`]). Its state is a value: a window
/// works on a copy, which the optimiser keeps in registers, and writes it
/// back once.
pub trait StaticStage: Copy {
    /// Natural processing-unit size in bytes (`Lx` in the paper).
    fn natural_unit(&self) -> usize;

    /// Transform (or observe) one exchange unit in place, on any memory;
    /// see [`UnitStage::process`].
    fn apply<M: Mem>(&mut self, m: &mut M, unit: &mut UnitBuf);

    /// Serial-order requirement; default unconstrained.
    fn ordering(&self) -> Ordering {
        Ordering::Unconstrained
    }

    /// See [`UnitStage::output_grain`]; default `None`.
    fn output_grain(&self) -> Option<usize> {
        None
    }

    /// Transform `unit` as [`Self::apply`] does, as the last stage of a
    /// chain, and emit the result into `out`: the unit's `len()` bytes in
    /// wire order. Inside a window `out` is the unit's place in the
    /// destination. The default emits the transformed unit's big-endian
    /// words; a stage whose kernel computes its output a byte at a time
    /// (decryption) stores each byte into `out` as it computes it instead
    /// of packing the bytes into words.
    ///
    /// # Panics
    /// Panics unless `out` is `unit.len()` bytes long.
    #[inline(always)]
    fn emit<M: Mem>(&mut self, m: &mut M, mut unit: UnitBuf, out: &mut [u8]) {
        self.apply(m, &mut unit);
        unit.write_be(out);
    }

    /// The one region the stage's kernels touch; default `None`, for a
    /// stage that touches no memory.
    fn region(&self) -> Option<Region> {
        None
    }
}

impl<M: Mem, S: StaticStage> UnitStage<M> for S {
    fn natural_unit(&self) -> usize {
        StaticStage::natural_unit(self)
    }

    #[inline(always)]
    fn process(&mut self, m: &mut M, unit: &mut UnitBuf) {
        self.apply(m, unit);
    }

    fn ordering(&self) -> Ordering {
        StaticStage::ordering(self)
    }

    fn output_grain(&self) -> Option<usize> {
        StaticStage::output_grain(self)
    }

    /// One [`Mem::window`] for the chunk.
    #[inline(always)]
    fn steady<const W: usize>(
        &mut self,
        m: &mut M,
        (src, dst, units): (usize, usize, usize),
        grain: StoreGrain,
        code: Option<CodeRegion>,
    ) {
        let mut step = Steady { stages: *self, unit: UnitBuf::new(4 * W), grain, code };
        m.window::<W>(Window { src, dst, units }, &mut step);
        *self = step.stages;
    }
}

/// Static stages as one unit's step of a window: fetch the loop body, run
/// the stages in registers, the last one emitting into the unit's
/// destination, and — on an instrumented memory — store at the loop's
/// grain.
struct Steady<S> {
    stages: S,
    unit: UnitBuf,
    grain: StoreGrain,
    code: Option<CodeRegion>,
}

impl<S: StaticStage, const W: usize> UnitStep<W> for Steady<S> {
    #[inline(always)]
    fn region(&self) -> Option<Region> {
        self.stages.region()
    }

    #[inline(always)]
    fn emit<K: Mem>(&mut self, k: &mut K, words: [u32; W], out: &mut [u8]) {
        self.unit.load(words);
        if let Some(code) = self.code {
            k.fetch(code);
        }
        self.stages.emit(k, self.unit, out);
    }

    #[inline(always)]
    fn store<K: Mem>(&mut self, k: &mut K, addr: usize, words: [u32; W]) {
        store_words(k, addr, words, self.grain);
    }
}

/// Cipher unit `i` of `unit`, packed big-endian into the high bytes of a
/// `u64` as [`CipherKernel`] takes it.
#[inline(always)]
fn cipher_unit<C: CipherKernel>(unit: &UnitBuf, i: usize) -> u64 {
    match C::UNIT {
        8 => unit.chunk64(i),
        4 => u64::from(unit.word(i)) << 32,
        u => unreachable!("unsupported cipher unit {u}"),
    }
}

/// Replace cipher unit `i` of `unit` with the packed `v`.
#[inline(always)]
fn set_cipher_unit<C: CipherKernel>(unit: &mut UnitBuf, i: usize, v: u64) {
    match C::UNIT {
        8 => unit.set_chunk64(i, v),
        4 => unit.set_word(i, (v >> 32) as u32),
        u => unreachable!("unsupported cipher unit {u}"),
    }
}

/// Cipher encryption as a stage.
#[derive(Debug, Clone, Copy)]
pub struct EncryptStage<C> {
    cipher: C,
}

impl<C> EncryptStage<C> {
    /// Wrap a cipher kernel.
    pub fn new(cipher: C) -> Self {
        EncryptStage { cipher }
    }
}

impl<C: CipherKernel> StaticStage for EncryptStage<C> {
    fn natural_unit(&self) -> usize {
        C::UNIT
    }

    #[inline(always)]
    fn apply<M: Mem>(&mut self, m: &mut M, unit: &mut UnitBuf) {
        for i in 0..unit.len() / C::UNIT {
            let out = self.cipher.encrypt_unit(m, cipher_unit::<C>(unit, i));
            set_cipher_unit::<C>(unit, i, out);
        }
    }

    fn output_grain(&self) -> Option<usize> {
        Some(C::OUTPUT_GRAIN)
    }

    fn region(&self) -> Option<Region> {
        self.cipher.region()
    }
}

/// Cipher decryption as a stage.
#[derive(Debug, Clone, Copy)]
pub struct DecryptStage<C> {
    cipher: C,
}

impl<C> DecryptStage<C> {
    /// Wrap a cipher kernel.
    pub fn new(cipher: C) -> Self {
        DecryptStage { cipher }
    }
}

impl<C: CipherKernel> StaticStage for DecryptStage<C> {
    fn natural_unit(&self) -> usize {
        C::UNIT
    }

    /// Each cipher unit decrypted into a local array and put back in the
    /// unit — for a caller that wants the plaintext in registers: the
    /// per-unit path, or a stage ahead of another.
    #[inline(always)]
    fn apply<M: Mem>(&mut self, m: &mut M, unit: &mut UnitBuf) {
        for i in 0..unit.len() / C::UNIT {
            let mut out = [0u8; 8];
            self.cipher.decrypt_unit(m, cipher_unit::<C>(unit, i), &mut out[..C::UNIT]);
            set_cipher_unit::<C>(unit, i, u64::from_be_bytes(out));
        }
    }

    /// Each plaintext byte stored into `out` as the kernel computes it.
    #[inline(always)]
    fn emit<M: Mem>(&mut self, m: &mut M, unit: UnitBuf, out: &mut [u8]) {
        assert_eq!(out.len(), unit.len(), "a {}-byte destination for a {}-byte unit", out.len(), unit.len());
        for (i, out) in out.chunks_exact_mut(C::UNIT).enumerate() {
            self.cipher.decrypt_unit(m, cipher_unit::<C>(&unit, i), out);
        }
    }

    fn output_grain(&self) -> Option<usize> {
        Some(C::OUTPUT_GRAIN)
    }

    fn region(&self) -> Option<Region> {
        self.cipher.region()
    }
}

/// Internet-checksum tap: observes the words flowing past and folds them
/// into a register-resident accumulator. Zero memory traffic — the
/// paper's showcase fusion.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChecksumTap {
    sum: InetChecksum,
}

impl ChecksumTap {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulated partial sum.
    pub fn sum(&self) -> InetChecksum {
        self.sum
    }

    /// Merge a partial sum computed elsewhere (part-reordering support).
    pub fn combine(&mut self, other: InetChecksum) {
        self.sum.combine(other);
    }
}

impl StaticStage for ChecksumTap {
    fn natural_unit(&self) -> usize {
        2
    }

    #[inline(always)]
    fn apply<M: Mem>(&mut self, m: &mut M, unit: &mut UnitBuf) {
        for i in 0..unit.words() {
            self.sum.add_u32(unit.word(i));
            m.compute(InetChecksum::OPS_PER_U32);
        }
    }
}

/// CRC-32 as a stage — ordering-constrained, present to exercise the
/// framework's applicability checks and the `crc_vs_checksum` ablation.
#[derive(Debug, Clone, Copy)]
pub struct CrcStage {
    crc: Crc32,
    state: u32,
}

impl CrcStage {
    /// Start a CRC stage with the given kernel.
    pub fn new(crc: Crc32) -> Self {
        CrcStage { crc, state: 0xFFFF_FFFF }
    }

    /// The CRC over everything processed so far.
    pub fn value(&self) -> u32 {
        Crc32::finish(self.state)
    }
}

impl StaticStage for CrcStage {
    fn natural_unit(&self) -> usize {
        1
    }

    #[inline(always)]
    fn apply<M: Mem>(&mut self, m: &mut M, unit: &mut UnitBuf) {
        for i in 0..unit.words() {
            for byte in unit.word(i).to_be_bytes() {
                self.state = self.crc.update_byte(m, self.state, byte);
            }
        }
    }

    fn ordering(&self) -> Ordering {
        Ordering::Constrained
    }

    fn region(&self) -> Option<Region> {
        Some(self.crc.region())
    }
}

/// Static fusion of two stages: `a` then `b`, flattened by
/// monomorphisation into one loop body. In a window `b` is the stage that
/// emits into the destination ([`StaticStage::emit`]).
#[derive(Debug, Clone, Copy)]
pub struct Fused<A, B> {
    /// First stage.
    pub a: A,
    /// Second stage.
    pub b: B,
}

impl<A, B> Fused<A, B> {
    /// Fuse `a` before `b`.
    pub fn new(a: A, b: B) -> Self {
        Fused { a, b }
    }
}

impl<A: StaticStage, B: StaticStage> StaticStage for Fused<A, B> {
    fn natural_unit(&self) -> usize {
        lcm(self.a.natural_unit(), self.b.natural_unit())
    }

    #[inline(always)]
    fn apply<M: Mem>(&mut self, m: &mut M, unit: &mut UnitBuf) {
        self.a.apply(m, unit);
        self.b.apply(m, unit);
    }

    /// `a` transforms; `b`, the chain's last stage, emits.
    #[inline(always)]
    fn emit<M: Mem>(&mut self, m: &mut M, mut unit: UnitBuf, out: &mut [u8]) {
        self.a.apply(m, &mut unit);
        self.b.emit(m, unit, out);
    }

    fn ordering(&self) -> Ordering {
        match (self.a.ordering(), self.b.ordering()) {
            (Ordering::Unconstrained, Ordering::Unconstrained) => Ordering::Unconstrained,
            _ => Ordering::Constrained,
        }
    }

    fn output_grain(&self) -> Option<usize> {
        self.b.output_grain().or_else(|| self.a.output_grain())
    }

    /// Both stages' regions, as one.
    fn region(&self) -> Option<Region> {
        match (self.a.region(), self.b.region()) {
            (Some(a), Some(b)) => Some(a.hull(b)),
            (a, b) => a.or(b),
        }
    }
}

/// A no-op stage (useful as a pipeline terminator or test placeholder).
#[derive(Debug, Clone, Copy, Default)]
pub struct Identity;

impl StaticStage for Identity {
    fn natural_unit(&self) -> usize {
        1
    }

    #[inline(always)]
    fn apply<M: Mem>(&mut self, _m: &mut M, _unit: &mut UnitBuf) {}
}

/// Dynamic composition: boxed stages invoked through vtables — the
/// paper's "function calls and function pointers" variant that allows
/// runtime re-configuration of the stack.
pub struct DynPipeline<M: Mem> {
    stages: Vec<Box<dyn UnitStage<M>>>,
}

impl<M: Mem> core::fmt::Debug for DynPipeline<M> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "DynPipeline({} stages)", self.stages.len())
    }
}

impl<M: Mem> Default for DynPipeline<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Mem> DynPipeline<M> {
    /// Empty pipeline.
    pub fn new() -> Self {
        DynPipeline { stages: Vec::new() }
    }

    /// Append a stage (builder style) — runtime adaptation the paper's
    /// macro approach cannot do.
    pub fn push(mut self, stage: Box<dyn UnitStage<M>>) -> Self {
        self.stages.push(stage);
        self
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the pipeline is empty.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }
}

impl<M: Mem> UnitStage<M> for DynPipeline<M> {
    fn natural_unit(&self) -> usize {
        self.stages.iter().fold(1, |acc, s| lcm(acc, s.natural_unit()))
    }

    fn process(&mut self, m: &mut M, unit: &mut UnitBuf) {
        for stage in &mut self.stages {
            stage.process(m, unit);
        }
    }

    fn ordering(&self) -> Ordering {
        if self.stages.iter().any(|s| s.ordering() == Ordering::Constrained) {
            Ordering::Constrained
        } else {
            Ordering::Unconstrained
        }
    }

    fn output_grain(&self) -> Option<usize> {
        self.stages.iter().rev().find_map(|s| s.output_grain())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cipher::{SimplifiedSafer, VerySimple};
    use memsim::{AddressSpace, NativeMem};

    fn unit_with(words: &[u32]) -> UnitBuf {
        let mut u = UnitBuf::new(words.len() * 4);
        for (i, &w) in words.iter().enumerate() {
            u.set_word(i, w);
        }
        u
    }

    #[test]
    fn checksum_tap_matches_streaming_accumulator() {
        let mut space = AddressSpace::new();
        let _ = space.alloc("pad", 16, 8);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        let mut tap = ChecksumTap::new();
        let mut unit = unit_with(&[0x00010203, 0xF4F5F6F7]);
        UnitStage::<NativeMem>::process(&mut tap, &mut m, &mut unit);
        let mut expect = InetChecksum::new();
        expect.add_u32(0x00010203);
        expect.add_u32(0xF4F5F6F7);
        assert_eq!(tap.sum().fold(), expect.fold());
        // Observe-only: unit unchanged.
        assert_eq!(unit.word(0), 0x00010203);
    }

    #[test]
    fn fused_encrypt_checksum_sums_ciphertext() {
        let mut space = AddressSpace::new();
        let cipher = SimplifiedSafer::alloc(&mut space);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        cipher.init(&mut m, [3; 8]);
        let mut fused = Fused::new(EncryptStage::new(cipher), ChecksumTap::new());
        assert_eq!(UnitStage::<NativeMem>::natural_unit(&fused), 8);
        let mut unit = unit_with(&[0x11111111, 0x22222222]);
        fused.process(&mut m, &mut unit);
        // The checksum must cover the *encrypted* words now in the unit.
        let mut expect = InetChecksum::new();
        expect.add_u32(unit.word(0));
        expect.add_u32(unit.word(1));
        assert_eq!(fused.b.sum().fold(), expect.fold());
    }

    #[test]
    fn fused_grain_comes_from_cipher() {
        let mut space = AddressSpace::new();
        let safer = SimplifiedSafer::alloc(&mut space);
        let simple = VerySimple::alloc(&mut space);
        let f1 = Fused::new(EncryptStage::new(safer), ChecksumTap::new());
        let f2 = Fused::new(EncryptStage::new(simple), ChecksumTap::new());
        assert_eq!(UnitStage::<NativeMem>::output_grain(&f1), Some(1));
        assert_eq!(UnitStage::<NativeMem>::output_grain(&f2), Some(4));
    }

    #[test]
    fn lcm_of_fused_units() {
        let mut space = AddressSpace::new();
        let simple = VerySimple::alloc(&mut space);
        let fused = Fused::new(EncryptStage::new(simple), ChecksumTap::new());
        // 4-byte cipher + 2-byte checksum → 4.
        assert_eq!(UnitStage::<NativeMem>::natural_unit(&fused), 4);
    }

    #[test]
    fn encrypt_then_decrypt_stage_is_identity() {
        let mut space = AddressSpace::new();
        let cipher = SimplifiedSafer::alloc(&mut space);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        cipher.init(&mut m, [9; 8]);
        let mut enc = EncryptStage::new(cipher);
        let mut dec = DecryptStage::new(cipher);
        let mut unit = unit_with(&[0xDEADBEEF, 0x01234567]);
        let orig = unit;
        UnitStage::<NativeMem>::process(&mut enc, &mut m, &mut unit);
        assert_ne!(unit, orig);
        UnitStage::<NativeMem>::process(&mut dec, &mut m, &mut unit);
        assert_eq!(unit, orig);
    }

    #[test]
    fn word_cipher_stage_processes_each_word() {
        let mut space = AddressSpace::new();
        let simple = VerySimple::alloc(&mut space);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        let mut enc = EncryptStage::new(simple);
        let mut unit = unit_with(&[5, 6]);
        UnitStage::<NativeMem>::process(&mut enc, &mut m, &mut unit);
        assert_eq!(unit.word(0), VerySimple::encrypt_word(5));
        assert_eq!(unit.word(1), VerySimple::encrypt_word(6));
    }

    #[test]
    fn dyn_pipeline_matches_static_fusion() {
        let mut space = AddressSpace::new();
        let cipher = SimplifiedSafer::alloc(&mut space);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        cipher.init(&mut m, [7; 8]);

        let mut fused = Fused::new(EncryptStage::new(cipher), ChecksumTap::new());
        let mut unit_a = unit_with(&[1, 2]);
        fused.process(&mut m, &mut unit_a);

        let mut dynp: DynPipeline<NativeMem> = DynPipeline::new()
            .push(Box::new(EncryptStage::new(cipher)))
            .push(Box::new(ChecksumTap::new()));
        assert_eq!(dynp.natural_unit(), 8);
        let mut unit_b = unit_with(&[1, 2]);
        dynp.process(&mut m, &mut unit_b);
        assert_eq!(unit_a, unit_b);
    }

    #[test]
    fn crc_stage_is_ordering_constrained_and_poisons_fusion() {
        let mut space = AddressSpace::new();
        let crc = checksum::Crc32::alloc(&mut space);
        let stage = CrcStage::new(crc);
        assert_eq!(UnitStage::<NativeMem>::ordering(&stage), Ordering::Constrained);
        let fused = Fused::new(ChecksumTap::new(), stage);
        assert_eq!(UnitStage::<NativeMem>::ordering(&fused), Ordering::Constrained);
    }

    #[test]
    fn crc_stage_matches_buffer_kernel() {
        let mut space = AddressSpace::new();
        let crc = checksum::Crc32::alloc(&mut space);
        let buf = space.alloc("buf", 16, 8);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        crc.init(&mut m);
        let data = [1u8, 2, 3, 4, 5, 6, 7, 8];
        m.bytes_mut(buf.base, 8).copy_from_slice(&data);
        let want = crc.checksum_buf(&mut m, buf.base, 8);
        let mut stage = CrcStage::new(crc);
        let mut unit = unit_with(&[0x01020304, 0x05060708]);
        UnitStage::<NativeMem>::process(&mut stage, &mut m, &mut unit);
        assert_eq!(stage.value(), want);
    }
}
