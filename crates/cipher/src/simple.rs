//! The **very simple** cipher of the paper's §4.1 ablation.
//!
//! "Replacing the encryption/decryption algorithm by a very simple
//! algorithm similar to the one used in [Abbott & Peterson] … which uses
//! constant values instead of tables for manipulating the data, yields in
//! a lower number of cache misses."
//!
//! The kernel XORs and adds compile-time constants to each 4-byte word —
//! no key reads, no tables, no scratch vector, word-grain output. It is
//! deliberately *not* a real cipher; it exists to isolate how much of the
//! ILP result is due to the data-manipulation function's memory
//! characteristics rather than the integration itself (the paper's
//! Figures 11–14 "simple encryption" series).
//!
//! Its 4-byte natural unit (vs the block ciphers' 8) also exercises the
//! LCM processing-unit negotiation of `ilp-core`.

use crate::kernel::{unit_out, CipherKernel};
use memsim::layout::AddressSpace;
use memsim::{CodeRegion, Mem};

/// XOR constant (an arbitrary odd pattern).
pub const C_XOR: u32 = 0xA5C3_7E19;
/// Additive constant.
pub const C_ADD: u32 = 0x3179_8F4B;

/// The very simple constant-operand cipher.
#[derive(Debug, Clone, Copy)]
pub struct VerySimple {
    code_enc: CodeRegion,
    code_dec: CodeRegion,
}

impl VerySimple {
    /// Register ops per 4-byte word (xor + add).
    pub const OPS_PER_WORD: u32 = 2;

    /// Declare the kernel's (tiny) code footprint in `space`.
    pub fn alloc(space: &mut AddressSpace) -> Self {
        VerySimple {
            code_enc: space.alloc_code("very_simple_enc", 96),
            code_dec: space.alloc_code("very_simple_dec", 96),
        }
    }

    /// Encrypt one 32-bit word (register-only; public for tests/benches).
    #[inline(always)]
    pub fn encrypt_word(w: u32) -> u32 {
        (w ^ C_XOR).wrapping_add(C_ADD)
    }

    /// Decrypt one 32-bit word.
    #[inline(always)]
    pub fn decrypt_word(w: u32) -> u32 {
        w.wrapping_sub(C_ADD) ^ C_XOR
    }
}

impl CipherKernel for VerySimple {
    const UNIT: usize = 4;
    const OUTPUT_GRAIN: usize = 4;
    const NAME: &'static str = "very-simple";

    fn encrypt_unit<M: Mem>(&self, m: &mut M, unit: u64) -> u64 {
        m.fetch(self.code_enc);
        m.compute(Self::OPS_PER_WORD);
        let w = (unit >> 32) as u32;
        u64::from(Self::encrypt_word(w)) << 32
    }

    fn decrypt_unit<M: Mem>(&self, m: &mut M, unit: u64, out: &mut [u8]) {
        let out = unit_out::<4>(out);
        m.fetch(self.code_dec);
        m.compute(Self::OPS_PER_WORD);
        let w = (unit >> 32) as u32;
        *out = Self::decrypt_word(w).to_be_bytes();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{decrypt_buf, encrypt_buf};
    use memsim::{AddressSpace, HostModel, NativeMem, SimMem, SizeClass};

    #[test]
    fn word_roundtrip() {
        for w in [0u32, 1, u32::MAX, 0xDEADBEEF, 12345] {
            assert_eq!(VerySimple::decrypt_word(VerySimple::encrypt_word(w)), w);
        }
    }

    #[test]
    fn unit_roundtrip_through_trait() {
        let mut space = AddressSpace::new();
        let c = VerySimple::alloc(&mut space);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        let unit = 0xCAFE_BABE_0000_0000u64;
        let enc = c.encrypt_unit(&mut m, unit);
        assert_ne!(enc, unit);
        let mut out = [0u8; 4];
        c.decrypt_unit(&mut m, enc, &mut out);
        assert_eq!(u64::from(u32::from_be_bytes(out)) << 32, unit);
    }

    #[test]
    fn buffer_roundtrip_and_word_grain_writes() {
        let mut space = AddressSpace::new();
        let c = VerySimple::alloc(&mut space);
        let src = space.alloc("src", 64, 8);
        let enc = space.alloc("enc", 64, 8);
        let dec = space.alloc("dec", 64, 8);
        let mut m = SimMem::new(&space, &HostModel::ss20_60());
        let plain: Vec<u8> = (0..64).map(|i| (i * 3) as u8).collect();
        m.poke(src.base, &plain);
        let _ = m.take_stats();
        encrypt_buf(&c, &mut m, src.base, enc.base, 64);
        let s = m.take_stats();
        // Word cipher: no 1-byte traffic at all, no table reads.
        assert_eq!(s.writes.by_size(SizeClass::B1), 0);
        assert_eq!(s.reads_for(memsim::RegionKind::Table).total(), 0);
        assert_eq!(s.writes.by_size(SizeClass::B4), 16);
        decrypt_buf(&c, &mut m, enc.base, dec.base, 64);
        assert_eq!(m.peek(dec.base, 64), &plain[..]);
    }

    #[test]
    fn cheaper_than_simplified_safer() {
        // The ablation's premise: far fewer memory accesses per byte.
        let mut space = AddressSpace::new();
        let simple = VerySimple::alloc(&mut space);
        let safer = crate::SimplifiedSafer::alloc(&mut space);
        let src = space.alloc("src", 64, 8);
        let dst = space.alloc("dst", 64, 8);
        let mut m = SimMem::new(&space, &HostModel::ss10_30());
        safer.init(&mut m, [7; 8]);
        let _ = m.take_stats();
        encrypt_buf(&simple, &mut m, src.base, dst.base, 64);
        let simple_stats = m.take_stats();
        encrypt_buf(&safer, &mut m, src.base, dst.base, 64);
        let safer_stats = m.take_stats();
        assert!(simple_stats.data_accesses() * 3 < safer_stats.data_accesses());
    }
}
