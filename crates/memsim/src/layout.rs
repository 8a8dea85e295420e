//! Address-space layout: sequential, aligned allocation of named regions.
//!
//! Data regions are laid out from a base address upward with the requested
//! alignment, mimicking the static/heap image of the paper's C process.
//! Text (code) regions live in a disjoint high range so instruction fetches
//! and data accesses never alias; they are not backed by arena bytes
//! (instruction *contents* are irrelevant, only their addresses matter to
//! the I-cache simulation).

use crate::mem::CodeRegion;
use crate::region::{Region, RegionKind};

/// Base address of the data arena. Non-zero so that address arithmetic bugs
/// (treating 0 as valid) surface in tests.
const DATA_BASE: usize = 0x1_0000;

/// Base address of the text segment (never overlaps data).
const TEXT_BASE: usize = 0x100_0000;

/// Native arenas from this size up are given a memory mapping of their
/// own (the size from which glibc maps a *first* request).
const MAPPED_FROM: usize = 128 << 10;

/// What such an arena reserves: just over the 32 MiB at which glibc's
/// sliding mmap threshold stops, so the request is mapped however many
/// arenas of that size the process has freed before.
const MAPPED_RESERVE: usize = (32 << 20) + 4096;

/// Builder and registry for the simulated process image.
///
/// Allocate every buffer and table the protocol stack needs up front, then
/// create either a [`crate::NativeMem`] arena or a [`crate::SimMem`] over
/// the finished layout.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    regions: Vec<Region>,
    code: Vec<CodeRegion>,
    next_data: usize,
    next_text: usize,
}

impl AddressSpace {
    /// Empty address space.
    pub fn new() -> Self {
        AddressSpace {
            regions: Vec::new(),
            code: Vec::new(),
            next_data: DATA_BASE,
            next_text: TEXT_BASE,
        }
    }

    /// Allocate a data region of `len` bytes aligned to `align` (a power of
    /// two), classified as [`RegionKind::Buffer`].
    pub fn alloc(&mut self, name: &'static str, len: usize, align: usize) -> Region {
        self.alloc_kind(name, len, align, RegionKind::Buffer)
    }

    /// Allocate a data region with an explicit [`RegionKind`].
    ///
    /// # Panics
    /// Panics if `align` is not a power of two or `len == 0`.
    pub fn alloc_kind(
        &mut self,
        name: &'static str,
        len: usize,
        align: usize,
        kind: RegionKind,
    ) -> Region {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        assert!(len > 0, "zero-length region {name}");
        assert!(kind != RegionKind::Text, "use alloc_code for text regions");
        let base = round_up(self.next_data, align);
        self.next_data = base + len;
        let region = Region { name, base, len, kind };
        self.regions.push(region);
        region
    }

    /// Allocate a code region of `len` bytes of (virtual) instruction
    /// memory. Used by kernels to declare the footprint of their inner
    /// loops; see [`crate::Mem::fetch`].
    pub fn alloc_code(&mut self, name: &'static str, len: usize) -> CodeRegion {
        // Instruction fetch granularity never needs finer than line
        // alignment; 64 is ≥ every line size we simulate.
        let base = round_up(self.next_text, 64);
        self.next_text = base + len;
        let code = CodeRegion { name, base, len };
        self.code.push(code);
        self.regions.push(Region { name, base, len, kind: RegionKind::Text });
        code
    }

    /// Total bytes of data arena required (text regions excluded).
    pub fn data_size(&self) -> usize {
        self.next_data - DATA_BASE
    }

    /// First address of the data arena.
    pub fn data_base(&self) -> usize {
        DATA_BASE
    }

    /// All regions (data and text) in allocation order.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Find the region containing `addr`, if any.
    pub fn region_of(&self, addr: usize) -> Option<&Region> {
        self.regions.iter().find(|r| r.contains(addr))
    }

    /// A plain byte vector sized for the data arena, indexable by simulated
    /// address minus [`Self::data_base`]. [`crate::NativeMem`] adds the
    /// offset back, so kernels use identical addresses in both worlds.
    ///
    /// A process that builds world after world (every benchmark pair,
    /// every sweep point) frees one multi-megabyte arena and asks for the
    /// next. Left to `malloc` the second and later ones are carved from
    /// the heap, where one small allocation landing in the freed arena's
    /// place sends the next arena to fresh memory and leaves the old
    /// pages resident — peak RSS doubles by heap-layout accident. So a
    /// large arena reserves (never touches) enough address space that
    /// the allocator maps it separately and returns it to the system when
    /// it is dropped; resident memory is the pages a world wrote, once.
    pub fn native_arena(&self) -> Vec<u8> {
        let len = self.data_size();
        if len < MAPPED_FROM {
            return vec![0u8; len];
        }
        let mut arena = vec![0u8; len.max(MAPPED_RESERVE)];
        arena.truncate(len);
        arena
    }
}

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new()
    }
}

fn round_up(value: usize, align: usize) -> usize {
    (value + align - 1) & !(align - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_aligned_allocation() {
        let mut space = AddressSpace::new();
        let a = space.alloc("a", 10, 8);
        let b = space.alloc("b", 100, 64);
        assert_eq!(a.base % 8, 0);
        assert_eq!(b.base % 64, 0);
        assert!(b.base >= a.end());
    }

    #[test]
    fn regions_do_not_overlap() {
        let mut space = AddressSpace::new();
        let mut got = Vec::new();
        for (i, len) in [(0, 13), (1, 64), (2, 1), (3, 4096), (4, 7)] {
            let name: &'static str = ["r0", "r1", "r2", "r3", "r4"][i];
            got.push(space.alloc(name, len, 4));
        }
        for w in got.windows(2) {
            assert!(w[0].end() <= w[1].base);
        }
    }

    #[test]
    fn text_and_data_are_disjoint() {
        let mut space = AddressSpace::new();
        let d = space.alloc("d", 1 << 20, 8);
        let c = space.alloc_code("loop", 256);
        assert!(c.base >= TEXT_BASE);
        assert!(d.end() < TEXT_BASE);
    }

    #[test]
    fn region_of_finds_owner() {
        let mut space = AddressSpace::new();
        let a = space.alloc("a", 32, 8);
        let b = space.alloc("b", 32, 8);
        assert_eq!(space.region_of(a.base + 5).unwrap().name, "a");
        assert_eq!(space.region_of(b.base).unwrap().name, "b");
        assert!(space.region_of(b.end() + 1000).is_none());
    }

    #[test]
    fn native_arena_covers_data() {
        let mut space = AddressSpace::new();
        let r = space.alloc("r", 1000, 16);
        let arena = space.native_arena();
        assert!(arena.len() >= r.end() - space.data_base());
    }

    #[test]
    fn a_large_native_arena_is_exactly_the_data_and_reserves_its_own_mapping() {
        let mut space = AddressSpace::new();
        let r = space.alloc("files", 3 * MAPPED_FROM, 64);
        let arena = space.native_arena();
        assert_eq!(arena.len(), space.data_size());
        assert_eq!(arena.len(), r.end() - space.data_base());
        assert!(arena.capacity() >= MAPPED_RESERVE);
        assert!(arena.iter().all(|&b| b == 0));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_alignment_panics() {
        AddressSpace::new().alloc("x", 8, 3);
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn zero_len_panics() {
        AddressSpace::new().alloc("x", 0, 8);
    }
}
