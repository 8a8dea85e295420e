//! CRC-32 (IEEE 802.3 polynomial), table-driven, over instrumented memory.
//!
//! CRC is the paper's canonical example of an **ordering-constrained**
//! data-manipulation function (§2.2, citing Feldmeier & McAuley): the
//! feedback shift register forces strictly serial byte order, so the
//! part-B→C→A reordering that makes header/data dependencies tractable for
//! the Internet checksum is *not available* — `ilp-core` refuses to build a
//! reordered segment plan around a CRC stage (see
//! `ilp_core::segment`).
//!
//! The 256-entry × 4-byte lookup table is stored in simulated memory and
//! read through [`memsim::Mem`] one entry per input byte, so its cache
//! residency is measured exactly like the SAFER log/exp tables in the
//! paper's §4.2 analysis.

use memsim::layout::AddressSpace;
use memsim::region::{Region, RegionKind};
use memsim::Mem;

/// The IEEE 802.3 / zlib polynomial, reflected form.
pub const POLY: u32 = 0xEDB8_8320;

/// Compute the (host-side) CRC table entries. Pure function of [`POLY`].
fn table_entry(i: u8) -> u32 {
    let mut c = u32::from(i);
    for _ in 0..8 {
        c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
    }
    c
}

/// A CRC-32 kernel whose lookup table lives in simulated memory.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    table: Region,
}

impl Crc32 {
    /// Allocate the 1 KB lookup table in `space`. Call
    /// [`Crc32::init`] on each memory world before use.
    pub fn alloc(space: &mut AddressSpace) -> Self {
        let table = space.alloc_kind("crc32_table", 256 * 4, 64, RegionKind::Table);
        Crc32 { table }
    }

    /// The table, the only memory the kernel touches.
    pub fn region(&self) -> Region {
        self.table
    }

    /// Write the table contents into a memory world. Setup work — uses
    /// ordinary writes, so run it before `SimMem::take_stats` if table
    /// initialisation should be excluded from a measurement phase.
    pub fn init<M: Mem>(&self, m: &mut M) {
        for i in 0..=255u8 {
            m.write_u32_be(self.table.at(4 * usize::from(i)), table_entry(i));
        }
    }

    /// Register ops per input byte (xor, shift, index arithmetic).
    pub const OPS_PER_BYTE: u32 = 4;

    /// Process `len` bytes at `addr`, continuing from `state` (use
    /// `0xFFFF_FFFF` to start). One 1-byte data read and one 4-byte table
    /// read per input byte.
    pub fn update_buf<M: Mem>(&self, m: &mut M, addr: usize, len: usize, state: u32) -> u32 {
        let mut crc = state;
        for i in 0..len {
            let byte = m.read_u8(addr + i);
            crc = self.update_byte(m, crc, byte);
        }
        crc
    }

    /// Feed a single byte already held in a register (streaming form).
    #[inline(always)]
    pub fn update_byte<M: Mem>(&self, m: &mut M, crc: u32, byte: u8) -> u32 {
        let idx = usize::from((crc as u8) ^ byte);
        let entry = m.read_u32_be(self.table.at(4 * idx));
        m.compute(Self::OPS_PER_BYTE);
        entry ^ (crc >> 8)
    }

    /// Final value: complement of the state.
    pub fn finish(state: u32) -> u32 {
        !state
    }

    /// Convenience: CRC-32 of one buffer from scratch.
    pub fn checksum_buf<M: Mem>(&self, m: &mut M, addr: usize, len: usize) -> u32 {
        Self::finish(self.update_buf(m, addr, len, 0xFFFF_FFFF))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::{HostModel, NativeMem, SimMem};

    fn setup(bytes: &[u8]) -> (AddressSpace, Crc32, Region) {
        let mut space = AddressSpace::new();
        let crc = Crc32::alloc(&mut space);
        let buf = space.alloc("buf", bytes.len().max(1), 8);
        (space, crc, buf)
    }

    #[test]
    fn check_value_123456789() {
        // The universal CRC-32 check value: CRC32("123456789") = 0xCBF43926.
        let data = b"123456789";
        let (space, crc, buf) = setup(data);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        crc.init(&mut m);
        m.bytes_mut(buf.base, data.len()).copy_from_slice(data);
        assert_eq!(crc.checksum_buf(&mut m, buf.base, data.len()), 0xCBF43926);
    }

    #[test]
    fn empty_input_is_zero() {
        let (space, crc, buf) = setup(&[]);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        crc.init(&mut m);
        assert_eq!(crc.checksum_buf(&mut m, buf.base, 0), 0);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data: Vec<u8> = (0..100).map(|i| (i * 17 + 3) as u8).collect();
        let (space, crc, buf) = setup(&data);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        crc.init(&mut m);
        m.bytes_mut(buf.base, data.len()).copy_from_slice(&data);
        let one = crc.checksum_buf(&mut m, buf.base, data.len());
        let mut state = 0xFFFF_FFFFu32;
        for &b in &data {
            state = crc.update_byte(&mut m, state, b);
        }
        assert_eq!(Crc32::finish(state), one);
    }

    #[test]
    fn split_is_order_sensitive() {
        // Demonstrates the ordering constraint: summing parts in the wrong
        // order changes the result (unlike the Internet checksum).
        let data: Vec<u8> = (0..32).collect();
        let (space, crc, buf) = setup(&data);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        crc.init(&mut m);
        m.bytes_mut(buf.base, data.len()).copy_from_slice(&data);
        let serial = crc.update_buf(&mut m, buf.base, 32, 0xFFFF_FFFF);
        let tail_first = {
            let s = crc.update_buf(&mut m, buf.base + 16, 16, 0xFFFF_FFFF);
            crc.update_buf(&mut m, buf.base, 16, s)
        };
        assert_ne!(serial, tail_first);
    }

    #[test]
    fn table_reads_are_counted_per_byte() {
        let data = [0xAAu8; 64];
        let (space, crc, buf) = setup(&data);
        let mut m = SimMem::new(&space, &HostModel::ss10_30());
        crc.init(&mut m);
        m.poke(buf.base, &data);
        let _ = m.take_stats(); // drop init-phase counts
        let _ = crc.checksum_buf(&mut m, buf.base, 64);
        let s = m.stats();
        assert_eq!(s.reads_for(memsim::RegionKind::Table).total(), 64);
        assert_eq!(s.reads.total(), 128); // 64 data + 64 table
    }

    #[test]
    fn sim_matches_native() {
        let data: Vec<u8> = (0..255).collect();
        let (space, crc, buf) = setup(&data);
        let mut arena = space.native_arena();
        let mut nat = NativeMem::new(&mut arena);
        crc.init(&mut nat);
        nat.bytes_mut(buf.base, data.len()).copy_from_slice(&data);
        let want = crc.checksum_buf(&mut nat, buf.base, data.len());
        let mut sim = SimMem::new(&space, &HostModel::axp3000_500());
        crc.init(&mut sim);
        sim.poke(buf.base, &data);
        assert_eq!(crc.checksum_buf(&mut sim, buf.base, data.len()), want);
    }
}
