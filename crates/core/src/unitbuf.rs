//! The register-resident exchange unit.
//!
//! A [`UnitBuf`] holds one exchange unit (`Le` bytes, at most
//! [`crate::units::MAX_EXCHANGE_UNIT`]) while it travels through the
//! fused stages of an ILP loop. It is a small fixed array of host-order
//! words that the optimiser keeps in registers once the loop's unit
//! width is a constant — the buffer itself never touches the
//! instrumented memory, which is the whole point: in the paper's ideal
//! ILP, "all the other operations should work on registers".

use crate::units::MAX_EXCHANGE_UNIT;

/// One exchange unit in flight between fused stages: up to four wire
/// words held as host-order `u32`s, so reading or replacing a word is a
/// register move and a byte is a shift — no byte array to re-pack
/// big-endian on every access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitBuf {
    words: [u32; MAX_EXCHANGE_UNIT / 4],
    len: usize,
}

impl UnitBuf {
    /// An empty unit of capacity `len` bytes (must be a multiple of 4 —
    /// word filters deal in words — and at most the register budget).
    pub fn new(len: usize) -> Self {
        assert!(len > 0 && len <= MAX_EXCHANGE_UNIT, "bad exchange unit {len}");
        assert_eq!(len % 4, 0, "exchange unit must be whole words");
        UnitBuf { words: [0; MAX_EXCHANGE_UNIT / 4], len }
    }

    /// Unit length in bytes.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Unit length in 32-bit words.
    #[inline(always)]
    pub fn words(&self) -> usize {
        self.len / 4
    }

    /// Always false — a unit has fixed nonzero capacity.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Read wire word `i`.
    #[inline(always)]
    pub fn word(&self, i: usize) -> u32 {
        debug_assert!(i < self.words());
        self.words[i]
    }

    /// Overwrite wire word `i`.
    #[inline(always)]
    pub fn set_word(&mut self, i: usize, w: u32) {
        debug_assert!(i < self.words());
        self.words[i] = w;
    }

    /// Read the 8-byte chunk starting at word `2 * i` as a u64
    /// (big-endian) — the block-cipher view.
    #[inline(always)]
    pub fn chunk64(&self, i: usize) -> u64 {
        (u64::from(self.word(2 * i)) << 32) | u64::from(self.word(2 * i + 1))
    }

    /// Overwrite an 8-byte chunk.
    #[inline(always)]
    pub fn set_chunk64(&mut self, i: usize, v: u64) {
        self.set_word(2 * i, (v >> 32) as u32);
        self.set_word(2 * i + 1, v as u32);
    }

    /// Replace the first `W` words — the whole of a `W`-word unit.
    #[inline(always)]
    pub fn load<const W: usize>(&mut self, words: [u32; W]) {
        debug_assert_eq!(W, self.words());
        self.words[..W].copy_from_slice(&words);
    }

    /// The first `W` words — the whole of a `W`-word unit.
    #[inline(always)]
    pub fn to_array<const W: usize>(&self) -> [u32; W] {
        debug_assert_eq!(W, self.words());
        core::array::from_fn(|i| self.words[i])
    }

    /// Write the unit into `out`: its words big-endian, `len()` bytes in
    /// wire order.
    ///
    /// # Panics
    /// Panics unless `out` is `len()` bytes long.
    #[inline(always)]
    pub fn write_be(&self, out: &mut [u8]) {
        assert_eq!(out.len(), self.len, "a {}-byte destination for a {}-byte unit", out.len(), self.len);
        for (slot, w) in out.as_chunks_mut::<4>().0.iter_mut().zip(self.words) {
            *slot = w.to_be_bytes();
        }
    }

    /// Byte `i` in wire (big-endian) order: what the word views must
    /// agree with.
    #[cfg(test)]
    pub fn byte(&self, i: usize) -> u8 {
        debug_assert!(i < self.len);
        (self.words[i / 4] >> (24 - 8 * (i % 4))) as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_roundtrip() {
        let mut u = UnitBuf::new(8);
        u.set_word(0, 0x01020304);
        u.set_word(1, 0xAABBCCDD);
        assert_eq!(u.word(0), 0x01020304);
        assert_eq!(u.word(1), 0xAABBCCDD);
        assert_eq!(u.words(), 2);
    }

    #[test]
    fn chunk64_is_big_endian_concatenation() {
        let mut u = UnitBuf::new(8);
        u.set_word(0, 0x01020304);
        u.set_word(1, 0x05060708);
        assert_eq!(u.chunk64(0), 0x0102_0304_0506_0708);
        u.set_chunk64(0, 0x1112_1314_1516_1718);
        assert_eq!(u.word(0), 0x11121314);
        assert_eq!(u.word(1), 0x15161718);
    }

    #[test]
    fn bytes_match_word_layout() {
        let mut u = UnitBuf::new(4);
        u.set_word(0, 0xCAFEBABE);
        assert_eq!(u.byte(0), 0xCA);
        assert_eq!(u.byte(3), 0xBE);
    }

    #[test]
    fn sixteen_byte_unit() {
        let mut u = UnitBuf::new(16);
        u.set_chunk64(0, 1);
        u.set_chunk64(1, 2);
        assert_eq!(u.chunk64(1), 2);
    }

    #[test]
    fn word_byte_and_chunk_views_agree_for_every_unit_width() {
        let wire: [u8; 16] = core::array::from_fn(|i| (0xA1 + 0x1D * i) as u8);
        for len in [4, 8, 16] {
            let mut u = UnitBuf::new(len);
            for (i, w) in wire[..len].chunks_exact(4).enumerate() {
                u.set_word(i, u32::from_be_bytes(w.try_into().unwrap()));
            }
            assert_eq!((u.len(), u.words()), (len, len / 4));
            for (i, &b) in wire[..len].iter().enumerate() {
                assert_eq!(u.byte(i), b, "byte {i} of a {len}-byte unit");
            }
            for (i, c) in wire[..len].chunks_exact(8).enumerate() {
                let want = u64::from_be_bytes(c.try_into().unwrap());
                assert_eq!(u.chunk64(i), want);
                u.set_chunk64(i, !want);
                assert_eq!(u.chunk64(i), !want);
                assert_eq!((u.word(2 * i), u.word(2 * i + 1)), ((!want >> 32) as u32, !want as u32));
                assert_eq!(u.byte(8 * i + 7), !c[7]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "whole words")]
    fn non_word_unit_rejected() {
        let _ = UnitBuf::new(6);
    }

    #[test]
    #[should_panic(expected = "bad exchange unit")]
    fn oversized_unit_rejected() {
        let _ = UnitBuf::new(24);
    }
}
