//! Full SAFER K-64 (Massey, *SAFER K-64: A Byte-Oriented Block-Ciphering
//! Algorithm*, 1993) — the paper's reference point for a "real" fast
//! cipher (~25 Mbps at one round on a SPARCstation 10, §3.1).
//!
//! Structure per round `i` (of `r`, default 6):
//!
//! 1. mixed XOR/ADD with round key `K₂ᵢ₋₁` (positions 1,4,5,8 xor;
//!    2,3,6,7 add);
//! 2. nonlinear layer: `E(x) = 45ˣ mod 257` on the xor positions,
//!    `L = E⁻¹` on the add positions;
//! 3. mixed ADD/XOR with round key `K₂ᵢ` (1,4,5,8 add; 2,3,6,7 xor);
//! 4. three Pseudo-Hadamard levels with the "Armenian shuffle" coordinate
//!    permutation between levels,
//!
//! followed by a final output mix with `K₂ᵣ₊₁`. The key schedule rotates
//! each user key byte left by 3 per round key and adds the bias
//! `B[i][j] = E(E(9i + j))`.
//!
//! The round keys and the E/L tables live in instrumented memory; per-unit
//! traffic therefore scales with the round count, which is exactly why the
//! paper could not afford the full cipher in its ILP loop (the Gunningberg
//! et al. observation that complex functions drown the ILP gain — see the
//! `exp_des_ablation` bench, which compares all four ciphers).
//!
//! Conformance note: implemented from the published algorithm description;
//! the offline environment provides no official test vectors, so the test
//! suite pins self-generated known answers plus algebraic properties
//! (bijectivity, key sensitivity, decrypt∘encrypt = id for many
//! keys/blocks/round counts).

use crate::kernel::{pack, unit_out, unpack, CipherKernel};
use crate::tables::{exp_table, ExpLogTables};
use memsim::layout::AddressSpace;
use memsim::region::{Region, RegionKind};
use memsim::{CodeRegion, Mem};

/// Positions using XOR in stage 1 / EXP in stage 2 (0-based 0,3,4,7).
const XOR_POS: [bool; 8] = [true, false, false, true, true, false, false, true];

/// Default round count recommended by Massey for K-64.
pub const DEFAULT_ROUNDS: usize = 6;

/// Maximum supported rounds.
pub const MAX_ROUNDS: usize = 10;

/// Full SAFER K-64 with a configurable round count.
#[derive(Debug, Clone, Copy)]
pub struct SaferK64 {
    tables: ExpLogTables,
    /// Key schedule: (2r+1) × 8 bytes.
    schedule: Region,
    rounds: usize,
    code_enc: CodeRegion,
    code_dec: CodeRegion,
}

impl SaferK64 {
    /// Allocate tables and key-schedule storage for up to [`MAX_ROUNDS`].
    pub fn alloc(space: &mut AddressSpace, rounds: usize) -> Self {
        assert!((1..=MAX_ROUNDS).contains(&rounds), "rounds must be 1..={MAX_ROUNDS}");
        let tables = ExpLogTables::alloc(space);
        let schedule = space.alloc_kind("safer_schedule", (2 * MAX_ROUNDS + 1) * 8, 8, RegionKind::Table);
        let code_enc = space.alloc_code("safer_k64_enc", 420 * rounds.min(8));
        let code_dec = space.alloc_code("safer_k64_dec", 460 * rounds.min(8));
        SaferK64 { tables, schedule, rounds, code_enc, code_dec }
    }

    /// Round count in use.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Expand `key` into the round-key schedule and write tables +
    /// schedule into a memory world (setup phase).
    pub fn init<M: Mem>(&self, m: &mut M, key: [u8; 8]) {
        self.tables.init(m);
        let exp = exp_table();
        let mut ka = key;
        // K₁ = user key.
        for (j, &k) in ka.iter().enumerate() {
            m.write_u8(self.schedule.at(j), k);
        }
        for i in 2..=(2 * self.rounds + 1) {
            for j in 0..8 {
                ka[j] = ka[j].rotate_left(3);
                let bias = exp[usize::from(exp[(9 * i + j + 1) % 256])];
                m.write_u8(self.schedule.at((i - 1) * 8 + j), ka[j].wrapping_add(bias));
            }
        }
    }

    /// Read byte `j` of round key `k` (1-based key index) from memory.
    #[inline(always)]
    fn key_byte<M: Mem>(&self, m: &mut M, k: usize, j: usize) -> u8 {
        m.read_u8(self.schedule.at((k - 1) * 8 + j))
    }

    /// Forward PHT network: three levels with the coordinate shuffle.
    #[inline(always)]
    fn pht_layers(b: &mut [u8; 8]) {
        for _level in 0..3 {
            for p in 0..4 {
                let (x, y) = (b[2 * p], b[2 * p + 1]);
                // 2-PHT(x, y) = (2x + y, x + y).
                b[2 * p] = x.wrapping_mul(2).wrapping_add(y);
                b[2 * p + 1] = x.wrapping_add(y);
            }
            Self::shuffle(b);
        }
    }

    /// Inverse PHT network.
    #[inline(always)]
    fn ipht_layers(b: &mut [u8; 8]) {
        for _level in 0..3 {
            Self::unshuffle(b);
            for p in 0..4 {
                let (x, y) = (b[2 * p], b[2 * p + 1]);
                // inverse: x' = x − y, y' = 2y − x.
                b[2 * p] = x.wrapping_sub(y);
                b[2 * p + 1] = y.wrapping_mul(2).wrapping_sub(x);
            }
        }
    }

    /// The "Armenian shuffle": gather even positions then odd positions —
    /// out = (b0, b2, b4, b6, b1, b3, b5, b7) read as pairs for the next
    /// PHT level, i.e. out[k] = in[perm[k]].
    #[inline(always)]
    fn shuffle(b: &mut [u8; 8]) {
        const PERM: [usize; 8] = [0, 2, 4, 6, 1, 3, 5, 7];
        let t = *b;
        for k in 0..8 {
            b[k] = t[PERM[k]];
        }
    }

    /// Inverse of [`Self::shuffle`].
    #[inline(always)]
    fn unshuffle(b: &mut [u8; 8]) {
        const PERM: [usize; 8] = [0, 2, 4, 6, 1, 3, 5, 7];
        let t = *b;
        for k in 0..8 {
            b[PERM[k]] = t[k];
        }
    }
}

impl CipherKernel for SaferK64 {
    const UNIT: usize = 8;
    const OUTPUT_GRAIN: usize = 1;
    const NAME: &'static str = "safer-k64";

    fn encrypt_unit<M: Mem>(&self, m: &mut M, unit: u64) -> u64 {
        m.fetch(self.code_enc);
        let mut b = unpack(unit, 8);
        for i in 1..=self.rounds {
            for j in 0..8 {
                let k1 = self.key_byte(m, 2 * i - 1, j);
                b[j] = if XOR_POS[j] { b[j] ^ k1 } else { b[j].wrapping_add(k1) };
                b[j] = if XOR_POS[j] { self.tables.exp(m, b[j]) } else { self.tables.log(m, b[j]) };
                let k2 = self.key_byte(m, 2 * i, j);
                b[j] = if XOR_POS[j] { b[j].wrapping_add(k2) } else { b[j] ^ k2 };
                m.compute(4);
            }
            Self::pht_layers(&mut b);
            m.compute(36); // 12 PHTs × 2 ops + shuffles
        }
        // Output transformation with K₂ᵣ₊₁.
        for j in 0..8 {
            let k = self.key_byte(m, 2 * self.rounds + 1, j);
            b[j] = if XOR_POS[j] { b[j] ^ k } else { b[j].wrapping_add(k) };
            m.compute(1);
        }
        pack(&b)
    }

    fn decrypt_unit<M: Mem>(&self, m: &mut M, unit: u64, out: &mut [u8]) {
        let out = unit_out::<8>(out);
        m.fetch(self.code_dec);
        let mut b = unpack(unit, 8);
        // Undo output transformation.
        for j in 0..8 {
            let k = self.key_byte(m, 2 * self.rounds + 1, j);
            b[j] = if XOR_POS[j] { b[j] ^ k } else { b[j].wrapping_sub(k) };
            m.compute(1);
        }
        for i in (1..=self.rounds).rev() {
            Self::ipht_layers(&mut b);
            m.compute(36);
            for j in 0..8 {
                let k2 = self.key_byte(m, 2 * i, j);
                b[j] = if XOR_POS[j] { b[j].wrapping_sub(k2) } else { b[j] ^ k2 };
                b[j] = if XOR_POS[j] { self.tables.log(m, b[j]) } else { self.tables.exp(m, b[j]) };
                let k1 = self.key_byte(m, 2 * i - 1, j);
                b[j] = if XOR_POS[j] { b[j] ^ k1 } else { b[j].wrapping_sub(k1) };
                m.compute(4);
            }
        }
        *out = b;
    }

    fn init_world<M: Mem>(&self, m: &mut M) {
        self.init(m, crate::kernel::EXPERIMENT_KEY);
    }

    fn region(&self) -> Option<Region> {
        Some(self.tables.region().hull(self.schedule))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::kat;
    use memsim::{AddressSpace, HostModel, NativeMem, SimMem};

    const KEY: [u8; 8] = [8, 7, 6, 5, 4, 3, 2, 1];

    fn native(rounds: usize) -> (AddressSpace, SaferK64) {
        let mut space = AddressSpace::new();
        let c = SaferK64::alloc(&mut space, rounds);
        (space, c)
    }

    #[test]
    fn pht_network_is_invertible() {
        let mut b = [1u8, 2, 3, 4, 5, 6, 7, 8];
        let orig = b;
        SaferK64::pht_layers(&mut b);
        assert_ne!(b, orig);
        SaferK64::ipht_layers(&mut b);
        assert_eq!(b, orig);
    }

    #[test]
    fn shuffle_unshuffle_are_inverse() {
        let mut b = [10u8, 20, 30, 40, 50, 60, 70, 80];
        let orig = b;
        SaferK64::shuffle(&mut b);
        SaferK64::unshuffle(&mut b);
        assert_eq!(b, orig);
    }

    #[test]
    fn roundtrip_for_all_round_counts() {
        for rounds in 1..=8 {
            let (space, c) = native(rounds);
            let mut arena = space.native_arena();
            let mut m = NativeMem::new(&mut arena);
            c.init(&mut m, KEY);
            for block in [0u64, u64::MAX, 0x0123_4567_89AB_CDEF] {
                let e = c.encrypt_unit(&mut m, block);
                let mut out = [0u8; 8];
                c.decrypt_unit(&mut m, e, &mut out);
                assert_eq!(u64::from_be_bytes(out), block, "rounds {rounds}");
            }
        }
    }

    #[test]
    fn diffusion_single_bit_flip_changes_many_bytes() {
        let (space, c) = native(DEFAULT_ROUNDS);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        c.init(&mut m, KEY);
        let e1 = c.encrypt_unit(&mut m, 0);
        let e2 = c.encrypt_unit(&mut m, 1);
        let differing = (e1 ^ e2).to_be_bytes().iter().filter(|&&b| b != 0).count();
        assert!(differing >= 6, "only {differing} bytes differ");
    }

    #[test]
    fn key_sensitivity() {
        let (space, c) = native(DEFAULT_ROUNDS);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        c.init(&mut m, KEY);
        let e1 = c.encrypt_unit(&mut m, 42);
        c.init(&mut m, [8, 7, 6, 5, 4, 3, 2, 2]);
        let e2 = c.encrypt_unit(&mut m, 42);
        assert_ne!(e1, e2);
    }

    #[test]
    fn traffic_scales_with_rounds() {
        let count_accesses = |rounds: usize| {
            let (space, c) = native(rounds);
            let mut m = SimMem::new(&space, &HostModel::ss10_30());
            c.init(&mut m, KEY);
            let _ = m.take_stats();
            let _ = c.encrypt_unit(&mut m, 7);
            m.stats().data_accesses()
        };
        // Per round: 24 key/table reads; plus a fixed 8-read output mix.
        let one = count_accesses(1);
        let six = count_accesses(6);
        assert!(six > 4 * one, "1 round: {one}, 6 rounds: {six}");
    }

    #[test]
    fn one_round_traffic_exceeds_simplified_variant() {
        // The paper: even 1-round SAFER was "still too time consuming"
        // compared to their simplified version.
        let mut space = AddressSpace::new();
        let full = SaferK64::alloc(&mut space, 1);
        let simp = crate::SimplifiedSafer::alloc(&mut space);
        let mut m = SimMem::new(&space, &HostModel::ss10_30());
        full.init(&mut m, KEY);
        simp.init(&mut m, KEY);
        let _ = m.take_stats();
        let _ = full.encrypt_unit(&mut m, 7);
        let full_ops = {
            let s = m.take_stats();
            s.data_accesses() + s.compute_ops
        };
        let _ = simp.encrypt_unit(&mut m, 7);
        let simp_ops = {
            let s = m.take_stats();
            s.data_accesses() + s.compute_ops
        };
        assert!(full_ops > simp_ops, "{full_ops} vs {simp_ops}");
    }

    #[test]
    fn self_kat() {
        // Known answers under the experiment key at the default six
        // rounds, recorded on commit 855bbb3 (see
        // `simplified::tests::self_kat_guards_regressions`).
        let (space, c) = native(DEFAULT_ROUNDS);
        let known = [
            (0x0000_0000_0000_0000, 0xecad_4246_98c3_15f6),
            (0xffff_ffff_ffff_ffff, 0x02f6_7221_3b91_7b71),
            (0x0123_4567_89ab_cdef, 0x85f0_e9d4_55d9_b19e),
            (0x0102_0304_0506_0708, 0x83b0_8a86_6744_3651),
        ];
        let digests = kat::unit_digests(&space, &c, known, 100_000);
        assert_eq!(digests, (0x9669_7686_30b7_5921, 0x995e_ac00_38e0_026e));
        assert_eq!(kat::buf_digests(space, &c), (0x84aa_61fc_1d51_a3a6, 0x048d_2c43_254c_14a5));
    }
}
