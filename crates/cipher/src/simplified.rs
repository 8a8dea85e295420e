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

use crate::kernel::CipherKernel;
use crate::tables::ExpLogTables;
use memsim::layout::AddressSpace;
use memsim::region::{Region, RegionKind};
use memsim::{CodeRegion, Mem};

/// Positions (0-based) that use XOR in the key-mix stage and EXP in the
/// substitution stage; the complementary positions use ADD and LOG. This
/// is SAFER's 1,4,5,8 / 2,3,6,7 pattern.
const XOR_EXP_POS: [bool; 8] = [true, false, false, true, true, false, false, true];

/// Key length: one byte per position of the unit.
const KEY_LEN: usize = 8;

/// Scratch length: the encrypt half `[0, 8)` and the decrypt half
/// `[8, 16)`. The kernels address key and scratch as `base + constant`
/// below these two lengths, which [`SimplifiedSafer::alloc`] checks once.
const SCRATCH_LEN: usize = 16;

/// The low byte of each 16-bit lane of a packed unit — the second byte
/// of each 2-PHT pair (the unit is packed big-endian).
const PAIR_LO: u64 = 0x00FF_00FF_00FF_00FF;

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
        let key = space.alloc_kind("safer_key", KEY_LEN, 8, RegionKind::Table);
        let scratch = space.alloc_kind("safer_scratch", SCRATCH_LEN, 8, RegionKind::Scratch);
        assert!(
            key.len == KEY_LEN && scratch.len == SCRATCH_LEN,
            "cipher regions shorter than the kernels address"
        );
        let code_enc = space.alloc_code("simplified_safer_enc", 480);
        let code_dec = space.alloc_code("simplified_safer_dec", 560);
        SimplifiedSafer { tables, key, scratch, code_enc, code_dec }
    }

    /// Write tables and key material into a memory world (setup phase).
    pub fn init<M: Mem>(&self, m: &mut M, key: [u8; 8]) {
        self.tables.init(m);
        m.write_bytes(self.key.base, key);
    }
}

/// 2-PHT on all four byte pairs of a packed unit at once:
/// `(a₁, a₂) → (2a₁+a₂, a₁+a₂)` mod 256. Each pair is one 16-bit lane;
/// the sums stay below 2¹⁶, so no carry crosses a lane.
#[inline(always)]
fn pht(unit: u64) -> u64 {
    let a1 = (unit >> 8) & PAIR_LO;
    let a2 = unit & PAIR_LO;
    let sum = a1 + a2;
    (((sum + a1) & PAIR_LO) << 8) | (sum & PAIR_LO)
}

/// Inverse of [`pht`]: from `(x, y) = (2a₁+a₂, a₁+a₂)`, `a₁ = x−y` and
/// `a₂ = 2y−x = y−a₁`. Each lane borrows from a 2⁸ lent to it, never
/// from its neighbour.
#[inline(always)]
fn inverse_pht(unit: u64) -> u64 {
    const LEND: u64 = 0x0100_0100_0100_0100;
    let x = (unit >> 8) & PAIR_LO;
    let y = unit & PAIR_LO;
    let a1 = ((x | LEND) - y) & PAIR_LO;
    let a2 = ((y | LEND) - a1) & PAIR_LO;
    (a1 << 8) | a2
}

impl CipherKernel for SimplifiedSafer {
    const UNIT: usize = 8;
    const OUTPUT_GRAIN: usize = 1;
    const NAME: &'static str = "simplified-saferk64";

    #[inline(always)]
    fn encrypt_unit<M: Mem>(&self, m: &mut M, unit: u64) -> u64 {
        m.fetch(self.code_enc);
        let key: [u8; KEY_LEN] = m.read_bytes(self.key.base);
        let b = unit.to_be_bytes();
        // Stages 1+2: key mix then table substitution; the results are
        // staged through the scratch byte vector.
        let mut staged = [0u8; 8];
        for j in 0..8 {
            staged[j] = if XOR_EXP_POS[j] {
                self.tables.exp(m, b[j] ^ key[j])
            } else {
                self.tables.log(m, b[j].wrapping_add(key[j]))
            };
            m.compute(Self::OPS_PER_BYTE);
        }
        m.write_bytes(self.scratch.base, staged);
        // Stage 3: 2-PHT on each pair, reading the staged bytes back.
        let staged: [u8; 8] = m.read_bytes(self.scratch.base);
        for _pair in 0..4 {
            m.compute(3);
        }
        pht(u64::from_be_bytes(staged))
    }

    #[inline(always)]
    fn decrypt_unit<M: Mem>(&self, m: &mut M, unit: u64) -> u64 {
        m.fetch(self.code_dec);
        // Inverse PHT, its intermediates staged through the *second*
        // scratch half — the decrypt side needs its own byte vector
        // ("more variables for intermediate results than for
        // encryption"), widening the cipher's cache footprint on receive.
        for _pair in 0..4 {
            m.compute(3);
        }
        m.write_bytes(self.scratch.base + 8, inverse_pht(unit).to_be_bytes());
        let staged: [u8; 8] = m.read_bytes(self.scratch.base + 8);
        // Inverse substitution and key mix.
        let key: [u8; KEY_LEN] = m.read_bytes(self.key.base);
        let mut out = [0u8; 8];
        for j in 0..8 {
            out[j] = if XOR_EXP_POS[j] {
                self.tables.log(m, staged[j]) ^ key[j]
            } else {
                self.tables.exp(m, staged[j]).wrapping_sub(key[j])
            };
            m.compute(Self::OPS_PER_BYTE); // inverse ops cost what the forward ops cost
        }
        u64::from_be_bytes(out)
    }

    fn init_world<M: Mem>(&self, m: &mut M) {
        self.init(m, crate::kernel::EXPERIMENT_KEY);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{decrypt_buf, encrypt_buf, kat};
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
        // Known answers under the experiment key, recorded on the commit
        // before the kernels moved to burst accesses and the packed PHT
        // (855bbb3): they pin the exact transform, so a refactor cannot
        // silently change the cipher — not even in both directions at once.
        let (space, c) = native();
        let known = [
            (0x0000_0000_0000_0000, 0x6796_59aa_058e_a603),
            (0xffff_ffff_ffff_ffff, 0x3b11_db15_a139_682a),
            (0x0123_4567_89ab_cdef, 0xcc44_dee3_7203_75e7),
            (0x0102_0304_0506_0708, 0x83fb_9f18_5051_9116),
        ];
        // … and a million seeded blocks through each direction.
        let digests = kat::unit_digests(&space, &c, known, 1_000_000);
        assert_eq!(digests, (0x4d11_4967_c9e3_5e55, 0xbcb3_1b1c_e79f_3afa));
        assert_eq!(kat::buf_digests(space, &c), (0x1466_b352_6503_401c, 0xe38a_5101_01a1_76e4));
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
    fn access_order_within_a_unit_is_pinned() {
        // The ordered access list of one unit each way — region + offset
        // (a table look-up lands where the data sends it, so tables show
        // no offset), `r`ead or `w`rite, every access one byte wide.
        // Encrypt reads its key first and stages all eight substituted
        // bytes before reading them back; decrypt stages its inverse-PHT
        // bytes first and reads the key after them.
        let mut space = AddressSpace::new();
        let c = SimplifiedSafer::alloc(&mut space);
        let mut m = SimMem::new(&space, &HostModel::ss10_30());
        c.init_world(&mut m);
        let mut accesses = |run: &dyn Fn(&mut SimMem) -> u64| {
            m.start_trace(64);
            let _ = run(&mut m);
            let trace = m.take_trace().expect("started");
            assert_eq!(trace.dropped, 0);
            let render = |e: &memsim::TraceEvent| {
                let r = space.region_of(e.addr).expect("inside a region");
                let name = r.name.trim_start_matches("safer_");
                let rw = if e.kind == memsim::AccessKind::Read { 'r' } else { 'w' };
                assert_eq!(e.len, 1, "byte-grain kernel");
                if r.len == 256 {
                    format!("{name}:{rw}")
                } else {
                    format!("{name}+{}:{rw}", e.addr - r.base)
                }
            };
            trace.events().iter().map(render).collect::<Vec<_>>().join(" ")
        };
        assert_eq!(
            accesses(&|m| c.encrypt_unit(m, 0x0123_4567_89AB_CDEF)),
            "key+0:r key+1:r key+2:r key+3:r key+4:r key+5:r key+6:r key+7:r \
             exp:r log:r log:r exp:r exp:r log:r log:r exp:r \
             scratch+0:w scratch+1:w scratch+2:w scratch+3:w scratch+4:w scratch+5:w scratch+6:w scratch+7:w \
             scratch+0:r scratch+1:r scratch+2:r scratch+3:r scratch+4:r scratch+5:r scratch+6:r scratch+7:r"
        );
        assert_eq!(
            accesses(&|m| c.decrypt_unit(m, 0x0123_4567_89AB_CDEF)),
            "scratch+8:w scratch+9:w scratch+10:w scratch+11:w scratch+12:w scratch+13:w scratch+14:w scratch+15:w \
             scratch+8:r scratch+9:r scratch+10:r scratch+11:r scratch+12:r scratch+13:r scratch+14:r scratch+15:r \
             key+0:r key+1:r key+2:r key+3:r key+4:r key+5:r key+6:r key+7:r \
             log:r exp:r exp:r log:r log:r exp:r exp:r log:r"
        );
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
