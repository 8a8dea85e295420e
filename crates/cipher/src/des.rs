//! DES — the paper's example of a data manipulation so expensive it
//! "can hide totally the ILP performance gain" (§3.1, citing Gunningberg
//! et al.): the system DES ran at ~0.5 Mbps on a SPARCstation 10 versus
//! 25 Mbps for one-round SAFER K-64. The `exp_des_ablation` experiment
//! re-runs that comparison.
//!
//! This is a complete, standard DES: IP/FP, 16 Feistel rounds with E
//! expansion, eight S-boxes, P permutation, and the PC-1/PC-2 key
//! schedule. The S-boxes (512 bytes) and the expanded key schedule live
//! in instrumented memory — 8 S-box reads and one round-key read per
//! round per block, 16 rounds, is exactly the kind of table traffic that
//! drowns an ILP loop.

use crate::kernel::{unit_out, CipherKernel};
use memsim::layout::AddressSpace;
use memsim::region::{Region, RegionKind};
use memsim::{CodeRegion, Mem};

/// Initial permutation (1-based source bit indices, MSB = bit 1).
const IP: [u8; 64] = [
    58, 50, 42, 34, 26, 18, 10, 2, 60, 52, 44, 36, 28, 20, 12, 4,
    62, 54, 46, 38, 30, 22, 14, 6, 64, 56, 48, 40, 32, 24, 16, 8,
    57, 49, 41, 33, 25, 17, 9, 1, 59, 51, 43, 35, 27, 19, 11, 3,
    61, 53, 45, 37, 29, 21, 13, 5, 63, 55, 47, 39, 31, 23, 15, 7,
];

/// Final permutation (inverse of IP).
const FP: [u8; 64] = [
    40, 8, 48, 16, 56, 24, 64, 32, 39, 7, 47, 15, 55, 23, 63, 31,
    38, 6, 46, 14, 54, 22, 62, 30, 37, 5, 45, 13, 53, 21, 61, 29,
    36, 4, 44, 12, 52, 20, 60, 28, 35, 3, 43, 11, 51, 19, 59, 27,
    34, 2, 42, 10, 50, 18, 58, 26, 33, 1, 41, 9, 49, 17, 57, 25,
];

/// Expansion E: 32 → 48 bits.
const E: [u8; 48] = [
    32, 1, 2, 3, 4, 5, 4, 5, 6, 7, 8, 9, 8, 9, 10, 11, 12, 13,
    12, 13, 14, 15, 16, 17, 16, 17, 18, 19, 20, 21, 20, 21, 22, 23, 24, 25,
    24, 25, 26, 27, 28, 29, 28, 29, 30, 31, 32, 1,
];

/// Permutation P: 32 → 32 bits.
const P: [u8; 32] = [
    16, 7, 20, 21, 29, 12, 28, 17, 1, 15, 23, 26, 5, 18, 31, 10,
    2, 8, 24, 14, 32, 27, 3, 9, 19, 13, 30, 6, 22, 11, 4, 25,
];

/// Permuted choice 1: 64 → 56 bits (drops parity bits).
const PC1: [u8; 56] = [
    57, 49, 41, 33, 25, 17, 9, 1, 58, 50, 42, 34, 26, 18,
    10, 2, 59, 51, 43, 35, 27, 19, 11, 3, 60, 52, 44, 36,
    63, 55, 47, 39, 31, 23, 15, 7, 62, 54, 46, 38, 30, 22,
    14, 6, 61, 53, 45, 37, 29, 21, 13, 5, 28, 20, 12, 4,
];

/// Permuted choice 2: 56 → 48 bits.
const PC2: [u8; 48] = [
    14, 17, 11, 24, 1, 5, 3, 28, 15, 6, 21, 10,
    23, 19, 12, 4, 26, 8, 16, 7, 27, 20, 13, 2,
    41, 52, 31, 37, 47, 55, 30, 40, 51, 45, 33, 48,
    44, 49, 39, 56, 34, 53, 46, 42, 50, 36, 29, 32,
];

/// Left-rotation schedule for C/D halves.
const SHIFTS: [u8; 16] = [1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1];

/// The eight S-boxes in row-major (row 0..3 × col 0..15) order.
const SBOXES: [[u8; 64]; 8] = [
    [
        14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7,
        0, 15, 7, 4, 14, 2, 13, 1, 10, 6, 12, 11, 9, 5, 3, 8,
        4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0,
        15, 12, 8, 2, 4, 9, 1, 7, 5, 11, 3, 14, 10, 0, 6, 13,
    ],
    [
        15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10,
        3, 13, 4, 7, 15, 2, 8, 14, 12, 0, 1, 10, 6, 9, 11, 5,
        0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15,
        13, 8, 10, 1, 3, 15, 4, 2, 11, 6, 7, 12, 0, 5, 14, 9,
    ],
    [
        10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8,
        13, 7, 0, 9, 3, 4, 6, 10, 2, 8, 5, 14, 12, 11, 15, 1,
        13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7,
        1, 10, 13, 0, 6, 9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12,
    ],
    [
        7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15,
        13, 8, 11, 5, 6, 15, 0, 3, 4, 7, 2, 12, 1, 10, 14, 9,
        10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4,
        3, 15, 0, 6, 10, 1, 13, 8, 9, 4, 5, 11, 12, 7, 2, 14,
    ],
    [
        2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9,
        14, 11, 2, 12, 4, 7, 13, 1, 5, 0, 15, 10, 3, 9, 8, 6,
        4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14,
        11, 8, 12, 7, 1, 14, 2, 13, 6, 15, 0, 9, 10, 4, 5, 3,
    ],
    [
        12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11,
        10, 15, 4, 2, 7, 12, 9, 5, 6, 1, 13, 14, 0, 11, 3, 8,
        9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6,
        4, 3, 2, 12, 9, 5, 15, 10, 11, 14, 1, 7, 6, 0, 8, 13,
    ],
    [
        4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1,
        13, 0, 11, 7, 4, 9, 1, 10, 14, 3, 5, 12, 2, 15, 8, 6,
        1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2,
        6, 11, 13, 8, 1, 4, 10, 7, 9, 5, 0, 15, 14, 2, 3, 12,
    ],
    [
        13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7,
        1, 15, 13, 8, 10, 3, 7, 4, 12, 5, 6, 11, 0, 14, 9, 2,
        7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8,
        2, 1, 14, 7, 4, 10, 8, 13, 15, 12, 9, 0, 3, 5, 6, 11,
    ],
];

/// Apply a 1-based-source-bit permutation table. `width` is the input
/// width in bits; the output has `table.len()` bits, MSB-first in the low
/// bits of the returned u64.
fn permute(input: u64, width: u32, table: &[u8]) -> u64 {
    let mut out = 0u64;
    for &src in table {
        let bit = (input >> (width - u32::from(src))) & 1;
        out = (out << 1) | bit;
    }
    out
}

/// Full DES with S-boxes and key schedule in instrumented memory.
#[derive(Debug, Clone, Copy)]
pub struct Des {
    sboxes: Region,
    /// 16 round keys, 8 bytes each (48 significant bits, right-aligned).
    schedule: Region,
    code: CodeRegion,
}

impl Des {
    /// Allocate S-box and key-schedule storage.
    pub fn alloc(space: &mut AddressSpace) -> Self {
        Des {
            sboxes: space.alloc_kind("des_sboxes", 8 * 64, 64, RegionKind::Table),
            schedule: space.alloc_kind("des_schedule", 16 * 8, 8, RegionKind::Table),
            code: space.alloc_code("des_round", 1800),
        }
    }

    /// Write S-boxes and the expanded key schedule for `key` (setup phase).
    pub fn init<M: Mem>(&self, m: &mut M, key: u64) {
        for (s, sbox) in SBOXES.iter().enumerate() {
            for (i, &v) in sbox.iter().enumerate() {
                m.write_u8(self.sboxes.at(s * 64 + i), v);
            }
        }
        let cd = permute(key, 64, &PC1); // 56 bits
        let mut c = (cd >> 28) as u32 & 0x0FFF_FFFF;
        let mut d = cd as u32 & 0x0FFF_FFFF;
        for (round, &rot) in SHIFTS.iter().enumerate() {
            let shift = u32::from(rot);
            c = ((c << shift) | (c >> (28 - shift))) & 0x0FFF_FFFF;
            d = ((d << shift) | (d >> (28 - shift))) & 0x0FFF_FFFF;
            let combined = (u64::from(c) << 28) | u64::from(d);
            let k = permute(combined, 56, &PC2); // 48 bits
            m.write_u64_be(self.schedule.at(round * 8), k);
        }
    }

    /// The Feistel function f(R, K).
    #[inline(always)]
    fn feistel<M: Mem>(&self, m: &mut M, r: u32, round: usize) -> u32 {
        let k = m.read_u64_be(self.schedule.at(round * 8));
        let expanded = permute(u64::from(r), 32, &E) ^ k;
        m.compute(E.len() as u32 + 1);
        let mut out = 0u32;
        for s in 0..8 {
            let six = ((expanded >> (42 - 6 * s)) & 0x3F) as usize;
            let row = ((six >> 4) & 2) | (six & 1);
            let col = (six >> 1) & 0xF;
            let v = m.read_u8(self.sboxes.at(s * 64 + row * 16 + col));
            out = (out << 4) | u32::from(v);
            m.compute(5);
        }
        let p = permute(u64::from(out), 32, &P) as u32;
        m.compute(P.len() as u32);
        p
    }

    fn crypt<M: Mem>(&self, m: &mut M, block: u64, decrypt: bool) -> u64 {
        m.fetch(self.code);
        let ip = permute(block, 64, &IP);
        m.compute(IP.len() as u32);
        let mut l = (ip >> 32) as u32;
        let mut r = ip as u32;
        for i in 0..16 {
            let round = if decrypt { 15 - i } else { i };
            let f = self.feistel(m, r, round);
            let new_r = l ^ f;
            l = r;
            r = new_r;
            m.compute(2);
        }
        // Swap halves before FP.
        let preoutput = (u64::from(r) << 32) | u64::from(l);
        let out = permute(preoutput, 64, &FP);
        m.compute(FP.len() as u32);
        out
    }
}

impl CipherKernel for Des {
    const UNIT: usize = 8;
    const OUTPUT_GRAIN: usize = 4;
    const NAME: &'static str = "des";

    fn encrypt_unit<M: Mem>(&self, m: &mut M, unit: u64) -> u64 {
        self.crypt(m, unit, false)
    }

    fn decrypt_unit<M: Mem>(&self, m: &mut M, unit: u64, out: &mut [u8]) {
        let out = unit_out::<8>(out);
        *out = self.crypt(m, unit, true).to_be_bytes();
    }

    /// The classic worked-example key.
    fn init_world<M: Mem>(&self, m: &mut M) {
        self.init(m, 0x1334_5779_9BBC_DFF1);
    }

    fn region(&self) -> Option<Region> {
        Some(self.sboxes.hull(self.schedule))
    }
}

// Re-exports for byte-array convenience in examples.
pub use crate::kernel::{pack as pack_block, unpack as unpack_block};

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::{AddressSpace, HostModel, NativeMem, SimMem};

    fn native() -> (AddressSpace, Des) {
        let mut space = AddressSpace::new();
        let d = Des::alloc(&mut space);
        (space, d)
    }

    #[test]
    fn classic_worked_example() {
        // The textbook DES example (used in countless courses):
        // key 0x133457799BBCDFF1, plaintext 0x0123456789ABCDEF
        // → ciphertext 0x85E813540F0AB405.
        let (space, des) = native();
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        des.init(&mut m, 0x1334_5779_9BBC_DFF1);
        let ct = des.encrypt_unit(&mut m, 0x0123_4567_89AB_CDEF);
        assert_eq!(ct, 0x85E8_1354_0F0A_B405);
        let mut out = [0u8; 8];
        des.decrypt_unit(&mut m, ct, &mut out);
        assert_eq!(u64::from_be_bytes(out), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn roundtrip_many_blocks() {
        let (space, des) = native();
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        des.init(&mut m, 0x0E32_9232_EA6D_0D73);
        for i in 0..32u64 {
            let block = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let e = des.encrypt_unit(&mut m, block);
            let mut out = [0u8; 8];
            des.decrypt_unit(&mut m, e, &mut out);
            assert_eq!(u64::from_be_bytes(out), block);
        }
    }

    #[test]
    fn weak_key_all_zeros_still_roundtrips() {
        let (space, des) = native();
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        des.init(&mut m, 0);
        let e = des.encrypt_unit(&mut m, 0x1234_5678_9ABC_DEF0);
        let mut out = [0u8; 8];
        des.decrypt_unit(&mut m, e, &mut out);
        assert_eq!(u64::from_be_bytes(out), 0x1234_5678_9ABC_DEF0);
    }

    #[test]
    fn complementation_property() {
        // DES(¬key, ¬plain) = ¬DES(key, plain) — a strong structural check.
        let (space, des) = native();
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        let key = 0x1334_5779_9BBC_DFF1u64;
        let pt = 0x0123_4567_89AB_CDEFu64;
        des.init(&mut m, key);
        let ct = des.encrypt_unit(&mut m, pt);
        des.init(&mut m, !key);
        let ct_complement = des.encrypt_unit(&mut m, !pt);
        assert_eq!(ct_complement, !ct);
    }

    #[test]
    fn des_is_far_more_expensive_than_simplified_safer() {
        // The paper's premise for rejecting DES in the experiment.
        let mut space = AddressSpace::new();
        let des = Des::alloc(&mut space);
        let safer = crate::SimplifiedSafer::alloc(&mut space);
        let mut m = SimMem::new(&space, &HostModel::ss10_30());
        des.init(&mut m, 0x1334_5779_9BBC_DFF1);
        safer.init(&mut m, [1; 8]);
        let _ = m.take_stats();
        let _ = des.encrypt_unit(&mut m, 7);
        let des_cost = {
            let s = m.take_stats();
            s.compute_ops + s.data_accesses()
        };
        let _ = safer.encrypt_unit(&mut m, 7);
        let safer_cost = {
            let s = m.take_stats();
            s.compute_ops + s.data_accesses()
        };
        assert!(des_cost > 10 * safer_cost, "{des_cost} vs {safer_cost}");
    }
}
