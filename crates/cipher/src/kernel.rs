//! The [`CipherKernel`] trait: a cipher as an ILP-fusible data manipulation.
//!
//! A kernel transforms one *processing unit* (§2.1 of the paper — 8 bytes
//! for the block ciphers, 4 for the very simple one) that is **held in
//! registers**, passed in and out as a big-endian-packed `u64`. Key,
//! table and scratch traffic happens inside the call through
//! [`memsim::Mem`], so it is counted in both the fused and the layered
//! implementations — exactly the paper's situation, where ILP removes the
//! *data* reads/writes between layers but cannot remove table lookups.
//!
//! [`encrypt_buf`]/[`decrypt_buf`] provide the layered (non-ILP) form: a
//! full pass over a buffer, reading the source word-wise and writing the
//! destination at the cipher's natural *output granularity*
//! ([`CipherKernel::OUTPUT_GRAIN`]), as one [`Mem::window`] whose kernel
//! region is [`CipherKernel::region`]. The byte-oriented SAFER variants
//! write single bytes — the behaviour behind the paper's observation that
//! "the encryption and decryption functions manipulate data on a 1-byte
//! basis and they write single bytes into the memory", which drives the
//! 1-byte cache-miss pathology of Figure 14.

use memsim::{Mem, Region, UnitStep, Window};

/// A symmetric cipher usable as an ILP stage.
///
/// Input/output units are packed big-endian into the high bytes of a
/// `u64`; a kernel with `UNIT == 4` uses only the high 4 bytes. A kernel
/// is a value — the addresses of what it keeps in memory — so a loop
/// holds its own copy in registers.
pub trait CipherKernel: Copy {
    /// Natural processing-unit size in bytes (the paper's `Lx`).
    const UNIT: usize;

    /// Granularity at which the cipher naturally emits output bytes:
    /// 1 for the byte-oriented SAFER family, [`Self::UNIT`] for word ciphers.
    /// The ILP loop uses this when storing the transformed unit.
    const OUTPUT_GRAIN: usize;

    /// Short name for reports.
    const NAME: &'static str;

    /// Encrypt one unit held in registers.
    fn encrypt_unit<M: Mem>(&self, m: &mut M, unit: u64) -> u64;

    /// Decrypt one unit held in registers, storing each plaintext byte, in
    /// wire order, into `out` as the kernel computes it. `out` is where the
    /// plaintext goes — inside a window, the unit's place in the
    /// destination — or, for a caller that wants the value in a register,
    /// a local array. (Encryption returns its unit packed: its last step,
    /// the 2-PHT, is register work on the whole unit.)
    ///
    /// # Panics
    /// Panics unless `out` is [`Self::UNIT`] bytes long.
    fn decrypt_unit<M: Mem>(&self, m: &mut M, unit: u64, out: &mut [u8]);

    /// Unit size as a value (for plan negotiation).
    fn unit(&self) -> usize {
        Self::UNIT
    }

    /// Write what the kernel keeps in memory — tables, key schedule,
    /// under the fixed key every experiment runs with — into a memory
    /// world. Each world (native arena, each simulated host) needs its
    /// own pass before the first unit is processed. The default is for
    /// kernels that keep nothing in memory.
    fn init_world<M: Mem>(&self, _m: &mut M) {}

    /// The one region the unit kernels touch — tables, key schedule and
    /// scratch, which the kernel's `alloc` lays out back to back — or
    /// `None` for a kernel that keeps nothing in memory. A chunk's steady
    /// state proves it once ([`Mem::window`]).
    fn region(&self) -> Option<Region> {
        None
    }
}

/// The key every experiment runs the SAFER family with.
pub(crate) const EXPERIMENT_KEY: [u8; 8] = *b"ILP95key";

/// Pack the first `len` bytes of `bytes` big-endian into a u64's high bytes.
#[inline(always)]
pub fn pack(bytes: &[u8]) -> u64 {
    let mut out = 0u64;
    for (i, &b) in bytes.iter().enumerate() {
        out |= u64::from(b) << (56 - 8 * i);
    }
    out
}

/// Unpack the high `len` bytes of a u64 into an array.
#[inline(always)]
pub fn unpack(unit: u64, len: usize) -> [u8; 8] {
    let mut out = [0u8; 8];
    for (i, slot) in out.iter_mut().enumerate().take(len) {
        *slot = (unit >> (56 - 8 * i)) as u8;
    }
    out
}

/// `out` as the `N`-byte unit a kernel decrypts into.
///
/// # Panics
/// Panics unless `out` is `N` bytes long.
#[inline(always)]
pub(crate) fn unit_out<const N: usize>(out: &mut [u8]) -> &mut [u8; N] {
    let len = out.len();
    out.try_into().unwrap_or_else(|_| panic!("a {len}-byte destination for a {N}-byte cipher unit"))
}

/// Layered (non-ILP) encryption pass: read `len` bytes at `src` word-wise,
/// encrypt unit by unit, write to `dst` at the cipher's output granularity.
///
/// # Panics
/// Panics unless `len` is a multiple of the cipher's unit size (the
/// encryption layer pads messages to unit alignment before this call), and
/// unless source, destination and the kernel's region are disjoint spans of
/// memory ([`Mem::window`]).
pub fn encrypt_buf<C: CipherKernel, M: Mem>(c: &C, m: &mut M, src: usize, dst: usize, len: usize) {
    pass::<C, M, false>(*c, m, src, dst, len);
}

/// Layered (non-ILP) decryption pass; see [`encrypt_buf`].
pub fn decrypt_buf<C: CipherKernel, M: Mem>(c: &C, m: &mut M, src: usize, dst: usize, len: usize) {
    pass::<C, M, true>(*c, m, src, dst, len);
}

/// One layered pass as one [`Mem::window`]: a cipher unit is one window
/// unit of one or two words, read as 4-byte words (the BSD-style access
/// pattern the paper's Figure 13 counts).
fn pass<C: CipherKernel, M: Mem, const DECRYPT: bool>(c: C, m: &mut M, src: usize, dst: usize, len: usize) {
    assert_eq!(len % C::UNIT, 0, "unaligned cipher buffer");
    let step = &mut Pass::<C, DECRYPT>(c);
    match C::UNIT {
        8 => m.window::<2>(Window { src, dst, units: len / 8 }, step),
        4 => m.window::<1>(Window { src, dst, units: len / 4 }, step),
        u => panic!("a {u}-byte cipher unit is not one or two words"),
    }
}

/// A cipher's unit kernel as a window step: the window's words, packed
/// big-endian into the high bytes of the kernel's `u64`, one way or back —
/// decrypted straight into the unit's destination, encrypted into a packed
/// unit whose bytes are then emitted.
struct Pass<C, const DECRYPT: bool>(C);

impl<C: CipherKernel, const W: usize, const DECRYPT: bool> UnitStep<W> for Pass<C, DECRYPT> {
    #[inline(always)]
    fn region(&self) -> Option<Region> {
        self.0.region()
    }

    #[inline(always)]
    fn emit<K: Mem>(&mut self, k: &mut K, unit: [u32; W], out: &mut [u8]) {
        let packed = unit.iter().fold(0u64, |x, &w| x << 32 | u64::from(w)) << (64 - 32 * W);
        if DECRYPT {
            self.0.decrypt_unit(k, packed, out);
        } else {
            out.copy_from_slice(&self.0.encrypt_unit(k, packed).to_be_bytes()[..4 * W]);
        }
    }

    /// At the cipher's output granularity: single bytes for the SAFER
    /// family, words otherwise.
    #[inline(always)]
    fn store<K: Mem>(&mut self, k: &mut K, addr: usize, unit: [u32; W]) {
        match C::OUTPUT_GRAIN {
            1 => k.write_words_as_bytes(addr, unit),
            _ => k.write_words_be(addr, unit),
        }
    }
}

/// Known-answer digests for the cipher tests. The values the tests
/// compare them with are literals recorded on the commit *before* the
/// kernels were last rewritten, so a rewrite that moves encryption and
/// decryption consistently — which every round-trip test survives —
/// still fails.
#[cfg(test)]
pub(crate) mod kat {
    use super::*;
    use memsim::{AddressSpace, NativeMem};

    /// The input blocks: xorshift64 from a fixed seed, stepped before use.
    fn blocks() -> impl Iterator<Item = u64> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        std::iter::repeat_with(move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
    }

    /// FNV-1a-style fold over whole words.
    fn fold(words: impl Iterator<Item = u64>) -> u64 {
        words.fold(0xcbf2_9ce4_8422_2325, |h, w| (h ^ w).wrapping_mul(0x100_0000_01b3))
    }

    /// Under the experiment key `c` must take each `(plain, cipher)` pair
    /// one way and back; then the `(encrypt, decrypt)` digests of its unit
    /// kernels, each direction applied to the same first `n` blocks.
    pub(crate) fn unit_digests<C: CipherKernel>(
        space: &AddressSpace,
        c: &C,
        known: [(u64, u64); 4],
        n: usize,
    ) -> (u64, u64) {
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        c.init_world(&mut m);
        let decrypt = |m: &mut NativeMem<'_>, unit: u64| {
            let mut out = [0u8; 8];
            c.decrypt_unit(m, unit, &mut out[..C::UNIT]);
            u64::from_be_bytes(out)
        };
        for (plain, cipher) in known {
            assert_eq!(c.encrypt_unit(&mut m, plain), cipher, "encrypt {plain:#018x}");
            assert_eq!(decrypt(&mut m, cipher), plain, "decrypt {cipher:#018x}");
        }
        let enc = fold(blocks().take(n).map(|x| c.encrypt_unit(&mut m, x)));
        let dec = fold(blocks().take(n).map(|x| decrypt(&mut m, x)));
        (enc, dec)
    }

    /// `(encrypt_buf, decrypt_buf)` digests of one 1 KiB buffer of blocks
    /// under the experiment key, both passes reading the same plaintext.
    pub(crate) fn buf_digests<C: CipherKernel>(mut space: AddressSpace, c: &C) -> (u64, u64) {
        const LEN: usize = 1024;
        let [src, enc, dec] = ["src", "enc", "dec"].map(|name| space.alloc(name, LEN, 8).base);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        c.init_world(&mut m);
        for (off, x) in (0..LEN).step_by(8).zip(blocks()) {
            m.write_u64_be(src + off, x);
        }
        encrypt_buf(c, &mut m, src, enc, LEN);
        decrypt_buf(c, &mut m, src, dec, LEN);
        let mut digest = |base: usize| fold((0..LEN).step_by(8).map(|off| m.read_u64_be(base + off)));
        (digest(enc), digest(dec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::{AddressSpace, NativeMem};

    /// A toy involutive kernel for trait-machinery tests.
    #[derive(Clone, Copy)]
    struct XorFeed;

    impl CipherKernel for XorFeed {
        const UNIT: usize = 8;
        const OUTPUT_GRAIN: usize = 1;
        const NAME: &'static str = "xorfeed";
        fn encrypt_unit<M: Mem>(&self, m: &mut M, unit: u64) -> u64 {
            m.compute(1);
            unit ^ 0xFEED_FACE_CAFE_F00D
        }
        fn decrypt_unit<M: Mem>(&self, m: &mut M, unit: u64, out: &mut [u8]) {
            *unit_out(out) = self.encrypt_unit(m, unit).to_be_bytes();
        }
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let bytes = [1u8, 2, 3, 4, 5, 6, 7, 8];
        assert_eq!(unpack(pack(&bytes), 8), bytes);
        let four = [9u8, 8, 7, 6];
        assert_eq!(&unpack(pack(&four), 4)[..4], &four);
    }

    #[test]
    fn pack_is_big_endian() {
        assert_eq!(pack(&[0xAB, 0, 0, 0, 0, 0, 0, 0]), 0xAB00_0000_0000_0000);
        assert_eq!(pack(&[0, 0, 0, 0, 0, 0, 0, 0xCD]), 0xCD);
    }

    #[test]
    fn buf_roundtrip_through_toy_kernel() {
        let mut space = AddressSpace::new();
        let src = space.alloc("src", 64, 8);
        let enc = space.alloc("enc", 64, 8);
        let dec = space.alloc("dec", 64, 8);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        let plain: Vec<u8> = (0..64).collect();
        m.bytes_mut(src.base, 64).copy_from_slice(&plain);
        encrypt_buf(&XorFeed, &mut m, src.base, enc.base, 64);
        assert_ne!(m.bytes(enc.base, 64), &plain[..]);
        decrypt_buf(&XorFeed, &mut m, enc.base, dec.base, 64);
        assert_eq!(m.bytes(dec.base, 64), &plain[..]);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_buffer_panics() {
        let mut space = AddressSpace::new();
        let src = space.alloc("src", 64, 8);
        let dst = space.alloc("dst", 64, 8);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        encrypt_buf(&XorFeed, &mut m, src.base, dst.base, 12);
    }

    #[test]
    fn byte_grain_output_writes_bytes() {
        use memsim::{HostModel, SimMem, SizeClass};
        let mut space = AddressSpace::new();
        let src = space.alloc("src", 32, 8);
        let dst = space.alloc("dst", 32, 8);
        let mut m = SimMem::new(&space, &HostModel::ss10_30());
        encrypt_buf(&XorFeed, &mut m, src.base, dst.base, 32);
        let s = m.stats();
        // 32 B at OUTPUT_GRAIN 1: 32 one-byte writes; reads are 4-byte words.
        assert_eq!(s.writes.by_size(SizeClass::B1), 32);
        assert_eq!(s.reads.by_size(SizeClass::B4), 8);
    }
}
