//! The SAFER exponential/logarithm S-box pair.
//!
//! SAFER K-64 (Massey '93) builds its nonlinear layer from the discrete
//! exponential `E(i) = 45^i mod 257` (with the group element 256
//! represented as byte 0) and its inverse logarithm `L = E⁻¹`. 45
//! generates the multiplicative group of GF(257), so `E` is a bijection on
//! bytes.
//!
//! The paper's §4.2 attributes much of the simplified cipher's cache
//! behaviour to these two 256-byte tables being re-fetched when the ILP
//! loop's streaming traffic evicts them — which is why the tables live in
//! *simulated memory* here (allocated via [`ExpLogTables::alloc`]) rather
//! than in Rust constants.

use memsim::layout::AddressSpace;
use memsim::region::{Region, RegionKind};
use memsim::Mem;

/// Compute `45^i mod 257`, mapping 256 → 0 (the standard SAFER convention).
pub fn exp45(i: u8) -> u8 {
    // 45^i mod 257 by square-and-multiply over u32.
    let mut result: u32 = 1;
    let mut base: u32 = 45;
    let mut e = u32::from(i);
    while e > 0 {
        if e & 1 == 1 {
            result = (result * base) % 257;
        }
        base = (base * base) % 257;
        e >>= 1;
    }
    // 45^0 = 1, …, and the value 256 is represented as byte 0.
    (result % 256) as u8 // 256 % 256 == 0; all other values < 256 unchanged… but 256 only
}

/// Host-side (non-instrumented) exp table, for key-schedule biases and
/// tests.
pub fn exp_table() -> [u8; 256] {
    let mut t = [0u8; 256];
    for (i, slot) in t.iter_mut().enumerate() {
        *slot = exp45(i as u8);
    }
    t
}

/// Host-side log table: `log[exp[i]] = i`.
pub fn log_table() -> [u8; 256] {
    let exp = exp_table();
    let mut log = [0u8; 256];
    for (i, &e) in exp.iter().enumerate() {
        log[usize::from(e)] = i as u8;
    }
    log
}

/// The exp/log table pair, resident in (instrumented) memory.
#[derive(Debug, Clone, Copy)]
pub struct ExpLogTables {
    exp: Region,
    log: Region,
}

impl ExpLogTables {
    /// Allocate both 256-byte tables in `space`.
    pub fn alloc(space: &mut AddressSpace) -> Self {
        ExpLogTables {
            exp: space.alloc_kind("safer_exp", 256, 64, RegionKind::Table),
            log: space.alloc_kind("safer_log", 256, 64, RegionKind::Table),
        }
    }

    /// Write the table contents into a memory world (setup; exclude from
    /// measurement phases).
    pub fn init<M: Mem>(&self, m: &mut M) {
        let exp = exp_table();
        let log = log_table();
        for i in 0..256 {
            m.write_u8(self.exp.at(i), exp[i]);
            m.write_u8(self.log.at(i), log[i]);
        }
    }

    /// Exponential lookup: one 1-byte table read.
    #[inline(always)]
    pub fn exp<M: Mem>(&self, m: &mut M, x: u8) -> u8 {
        m.lookup_u8(self.exp.base, x)
    }

    /// Logarithm lookup: one 1-byte table read.
    #[inline(always)]
    pub fn log<M: Mem>(&self, m: &mut M, x: u8) -> u8 {
        m.lookup_u8(self.log.base, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::{AddressSpace, NativeMem};

    #[test]
    fn exp45_known_values() {
        assert_eq!(exp45(0), 1); // 45^0
        assert_eq!(exp45(1), 45);
        // 45^2 = 2025 = 7*257 + 226 → 226.
        assert_eq!(exp45(2), 226);
        // 45^128 ≡ -1 ≡ 256 (45 is a generator), represented as 0.
        assert_eq!(exp45(128), 0);
    }

    #[test]
    fn exp_is_a_bijection() {
        let t = exp_table();
        let mut seen = [false; 256];
        for &v in &t {
            assert!(!seen[usize::from(v)], "duplicate value {v}");
            seen[usize::from(v)] = true;
        }
    }

    #[test]
    fn log_inverts_exp() {
        let exp = exp_table();
        let log = log_table();
        for i in 0..256 {
            assert_eq!(log[usize::from(exp[i])], i as u8);
            assert_eq!(exp[usize::from(log[i])], i as u8);
        }
    }

    #[test]
    fn in_memory_tables_match_host_tables() {
        let mut space = AddressSpace::new();
        let tables = ExpLogTables::alloc(&mut space);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        tables.init(&mut m);
        let exp = exp_table();
        let log = log_table();
        for i in 0..=255u8 {
            assert_eq!(tables.exp(&mut m, i), exp[usize::from(i)]);
            assert_eq!(tables.log(&mut m, i), log[usize::from(i)]);
        }
    }
}
