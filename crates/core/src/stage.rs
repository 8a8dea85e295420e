//! Data-manipulation stages and their fusion.
//!
//! A [`UnitStage`] is one protocol layer's data manipulation, expressed
//! over a register-resident exchange unit ([`UnitBuf`]). Stages compose
//! two ways, mirroring the paper's §3.2.1 implementation alternatives:
//!
//! * [`Fused`] — static composition. The composed type monomorphises
//!   into a single loop body, the moral equivalent of the paper's macro
//!   inlining ("a much more efficient solution is macro inlining") —
//!   literally so: every static stage's `process` is
//!   `#[inline(always)]`, and CI checks that none survives as a symbol
//!   of the native benchmark binary. (Monomorphisation alone was not
//!   enough: the stages used to be *called* once per unit.)
//! * [`DynPipeline`] — a vector of boxed stages invoked through vtables,
//!   the equivalent of "function calls and function pointers", which
//!   "supports a dynamically adaptable implementation" at the cost the
//!   paper measured: all ILP benefit lost. The `dispatch` bench
//!   reproduces that comparison on modern hardware.
//!
//! Concrete stages provided here wrap the workspace's kernels: cipher
//! encrypt/decrypt, an Internet-checksum tap, and an ordering-constrained
//! CRC stage used to exercise the §2.2 applicability rule.

use checksum::{Crc32, InetChecksum};
use cipher::CipherKernel;
use memsim::Mem;

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

/// One fusible data manipulation.
///
/// The trait is object-safe (the memory type is a trait parameter, not a
/// method parameter) so the same stage code runs both statically fused
/// and behind `dyn`.
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

impl<M: Mem, C: CipherKernel> UnitStage<M> for EncryptStage<C> {
    fn natural_unit(&self) -> usize {
        C::UNIT
    }

    #[inline(always)]
    fn process(&mut self, m: &mut M, unit: &mut UnitBuf) {
        match C::UNIT {
            8 => {
                for i in 0..unit.chunks64() {
                    let out = self.cipher.encrypt_unit(m, unit.chunk64(i));
                    unit.set_chunk64(i, out);
                }
            }
            4 => {
                for i in 0..unit.words() {
                    let out = self.cipher.encrypt_unit(m, u64::from(unit.word(i)) << 32);
                    unit.set_word(i, (out >> 32) as u32);
                }
            }
            u => unreachable!("unsupported cipher unit {u}"),
        }
    }

    fn output_grain(&self) -> Option<usize> {
        Some(C::OUTPUT_GRAIN)
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

impl<M: Mem, C: CipherKernel> UnitStage<M> for DecryptStage<C> {
    fn natural_unit(&self) -> usize {
        C::UNIT
    }

    #[inline(always)]
    fn process(&mut self, m: &mut M, unit: &mut UnitBuf) {
        match C::UNIT {
            8 => {
                for i in 0..unit.chunks64() {
                    let out = self.cipher.decrypt_unit(m, unit.chunk64(i));
                    unit.set_chunk64(i, out);
                }
            }
            4 => {
                for i in 0..unit.words() {
                    let out = self.cipher.decrypt_unit(m, u64::from(unit.word(i)) << 32);
                    unit.set_word(i, (out >> 32) as u32);
                }
            }
            u => unreachable!("unsupported cipher unit {u}"),
        }
    }

    fn output_grain(&self) -> Option<usize> {
        Some(C::OUTPUT_GRAIN)
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

impl<M: Mem> UnitStage<M> for ChecksumTap {
    fn natural_unit(&self) -> usize {
        2
    }

    #[inline(always)]
    fn process(&mut self, m: &mut M, unit: &mut UnitBuf) {
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

impl<M: Mem> UnitStage<M> for CrcStage {
    fn natural_unit(&self) -> usize {
        1
    }

    #[inline(always)]
    fn process(&mut self, m: &mut M, unit: &mut UnitBuf) {
        for i in 0..unit.len() {
            self.state = self.crc.update_byte(m, self.state, unit.byte(i));
        }
    }

    fn ordering(&self) -> Ordering {
        Ordering::Constrained
    }
}

/// Static fusion of two stages: `a` then `b`, flattened by
/// monomorphisation into one loop body.
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

impl<M: Mem, A: UnitStage<M>, B: UnitStage<M>> UnitStage<M> for Fused<A, B> {
    fn natural_unit(&self) -> usize {
        lcm(self.a.natural_unit(), self.b.natural_unit())
    }

    #[inline(always)]
    fn process(&mut self, m: &mut M, unit: &mut UnitBuf) {
        self.a.process(m, unit);
        self.b.process(m, unit);
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
}

/// A no-op stage (useful as a pipeline terminator or test placeholder).
#[derive(Debug, Clone, Copy, Default)]
pub struct Identity;

impl<M: Mem> UnitStage<M> for Identity {
    fn natural_unit(&self) -> usize {
        1
    }

    #[inline(always)]
    fn process(&mut self, _m: &mut M, _unit: &mut UnitBuf) {}
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
