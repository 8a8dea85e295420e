//! Internet checksum (RFC 1071), the TCP checksum of the paper's stack.
//!
//! The checksum's natural processing unit is 2 bytes (§2.1 of the paper),
//! but like the BSD implementations of the day the buffer kernels here load
//! 4-byte words and split them in registers — the memory traffic is what
//! the paper's Figure 13 counts, and it is word traffic.
//!
//! Three forms are provided:
//!
//! * [`checksum_buf`] — one pass over a buffer (the non-ILP `tcp_output`
//!   step 4 of the paper's Figure 3: one read access per word).
//! * [`InetChecksum`] — a register-resident streaming accumulator for
//!   fusion into ILP loops: words produced by earlier stages are added
//!   without any memory access.
//! * [`PseudoHeader`] — the TCP pseudo-header contribution.
//!
//! One's-complement addition is commutative and associative, so partial
//! sums over message parts can be combined in any order — the property
//! that lets the ILP loop process part B before parts C and A and still
//! patch the header checksum last.

use memsim::Mem;

/// Streaming Internet-checksum accumulator. Lives entirely in registers —
/// fusing it into a loop adds compute operations but zero memory traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InetChecksum {
    /// Running sum with every carry deferred to [`InetChecksum::fold`]:
    /// 2^16 ≡ 1 (mod 0xFFFF), so a 32-bit word can be added whole and
    /// the 64-bit total folded down once. Adding is one branch-free add;
    /// 2^32 word additions (16 GiB through one accumulator) fit.
    sum: u64,
}

impl InetChecksum {
    /// Fresh accumulator.
    pub fn new() -> Self {
        InetChecksum { sum: 0 }
    }

    /// Add one 16-bit big-endian word.
    #[inline(always)]
    pub fn add_u16(&mut self, word: u16) {
        self.sum += u64::from(word);
    }

    /// Add a 32-bit big-endian word (two 16-bit halves).
    #[inline(always)]
    pub fn add_u32(&mut self, word: u32) {
        self.sum += u64::from(word);
    }

    /// Add a 64-bit big-endian word (four 16-bit halves) — the natural
    /// unit when fused after an 8-byte-block cipher stage.
    #[inline(always)]
    pub fn add_u64(&mut self, word: u64) {
        self.add_u32((word >> 32) as u32);
        self.add_u32(word as u32);
    }

    /// Add a final odd byte, padded with a zero low byte per RFC 1071.
    #[inline(always)]
    pub fn add_final_byte(&mut self, byte: u8) {
        self.add_u16(u16::from(byte) << 8);
    }

    /// Combine with another partial sum (any order — the checksum is not
    /// ordering-constrained). Both parts must cover an even byte count at
    /// even offsets.
    #[inline(always)]
    pub fn combine(&mut self, other: InetChecksum) {
        let folded = other.fold();
        self.add_u16(folded);
    }

    /// Fold to 16 bits without complementing (partial-sum form).
    #[inline(always)]
    pub fn fold(self) -> u16 {
        let mut s = self.sum;
        while s >> 16 != 0 {
            s = (s & 0xFFFF) + (s >> 16);
        }
        s as u16
    }

    /// Final one's-complement checksum value for the header field.
    #[inline(always)]
    pub fn finish(self) -> u16 {
        !self.fold()
    }

    /// Number of register operations per 32-bit word added, for
    /// [`memsim::Mem::compute`] accounting (two adds plus amortised fold
    /// and shift work).
    pub const OPS_PER_U32: u32 = 4;
}

/// The TCP pseudo-header (RFC 793): source/destination IPv4 address,
/// protocol, and TCP segment length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PseudoHeader {
    /// Source IPv4 address.
    pub src: u32,
    /// Destination IPv4 address.
    pub dst: u32,
    /// IP protocol number (6 for TCP).
    pub protocol: u8,
    /// TCP header + payload length in bytes.
    pub tcp_len: u16,
}

impl PseudoHeader {
    /// Add this pseudo-header's contribution to a running checksum.
    /// Pure register work: the pseudo-header is synthesised, never stored.
    #[inline(always)]
    pub fn add_to(&self, sum: &mut InetChecksum) {
        sum.add_u32(self.src);
        sum.add_u32(self.dst);
        sum.add_u16(u16::from(self.protocol));
        sum.add_u16(self.tcp_len);
    }
}

/// One-shot checksum of `len` bytes at `addr`: 4-byte reads with register
/// splitting, byte tail per RFC 1071. This is the non-ILP checksum pass.
pub fn checksum_buf<M: Mem>(m: &mut M, addr: usize, len: usize) -> InetChecksum {
    let mut sum = InetChecksum::new();
    add_buf(m, addr, len, &mut sum);
    sum
}

/// Add `len` bytes at `addr` to an existing accumulator.
pub fn add_buf<M: Mem>(m: &mut M, addr: usize, len: usize, sum: &mut InetChecksum) {
    let words = len / 4;
    for i in 0..words {
        let w = m.read_u32_be(addr + 4 * i);
        sum.add_u32(w);
        m.compute(InetChecksum::OPS_PER_U32);
    }
    let mut off = words * 4;
    if len - off >= 2 {
        let w = m.read_u16_be(addr + off);
        sum.add_u16(w);
        m.compute(2);
        off += 2;
    }
    if off < len {
        let b = m.read_u8(addr + off);
        sum.add_final_byte(b);
        m.compute(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::{AddressSpace, NativeMem};

    /// Reference RFC 1071 implementation over a byte slice: a 16-bit
    /// one's-complement adder with the end-around carry applied on every
    /// addition — nothing deferred, nothing to overflow.
    fn reference(bytes: &[u8]) -> u16 {
        let mut sum = 0u32;
        let mut add = |w: u16| {
            sum += u32::from(w);
            sum = (sum & 0xFFFF) + (sum >> 16);
        };
        let mut chunks = bytes.chunks_exact(2);
        for c in &mut chunks {
            add(u16::from_be_bytes([c[0], c[1]]));
        }
        if let [b] = chunks.remainder() {
            add(u16::from(*b) << 8);
        }
        !(sum as u16)
    }

    /// Seeded pseudo-random bytes (xorshift; tests only need variety).
    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    fn with_buf(bytes: &[u8], f: impl FnOnce(&mut NativeMem<'_>, usize)) {
        let mut space = AddressSpace::new();
        let r = space.alloc("buf", bytes.len().max(1), 8);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        m.bytes_mut(r.base, bytes.len()).copy_from_slice(bytes);
        f(&mut m, r.base);
    }

    /// Bytes and sums copied from RFC 1071 §3's worked example, not
    /// produced by this crate: `00 01 f2 03 f4 f5 f6 f7` adds up to
    /// `2ddf0`, folds to `ddf2`, and its checksum is `220d`.
    #[test]
    fn rfc1071_worked_example() {
        let bytes = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        with_buf(&bytes, |m, addr| {
            let sum = checksum_buf(m, addr, 8);
            assert_eq!(sum.fold(), 0xddf2);
            assert_eq!(sum.finish(), 0x220d);
            // The RFC adds the four 16-bit words in two pairs; so may we.
            let mut halves = checksum_buf(m, addr, 4);
            halves.combine(checksum_buf(m, addr + 4, 4));
            assert_eq!((halves.fold(), halves.finish()), (0xddf2, 0x220d));
        });
        // The same bytes at every alignment within a word: `add_buf`'s
        // wide reads must not care where the buffer starts.
        for shift in 0..4 {
            let mut shifted = vec![0xAA; shift];
            shifted.extend_from_slice(&bytes);
            with_buf(&shifted, |m, addr| {
                let mut sum = InetChecksum::new();
                add_buf(m, addr + shift, 8, &mut sum);
                assert_eq!(sum.finish(), 0x220d, "buffer at word offset {shift}");
            });
        }
    }

    #[test]
    fn matches_reference_on_assorted_lengths() {
        for len in (0..=65).chain([1023, 1024]) {
            for seed in 1..=8u64 {
                let bytes = random_bytes(seed * 0x9E37_79B9 + len as u64, len);
                with_buf(&bytes, |m, addr| {
                    let got = checksum_buf(m, addr, len).finish();
                    assert_eq!(got, reference(&bytes), "len {len} seed {seed}");
                });
            }
        }
    }

    #[test]
    fn every_add_width_and_any_mix_of_them_agree_with_the_reference() {
        let bytes = random_bytes(0xC0FFEE, 8 * 97);
        let want = reference(&bytes);
        let words: Vec<u64> =
            bytes.chunks_exact(8).map(|c| u64::from_be_bytes(c.try_into().unwrap())).collect();
        // One width throughout, then the width chosen per 8-byte group.
        for pick in [|_| 0, |_| 1, |_| 2, |i: usize| i % 3, |i: usize| (i * 7 + i / 5) % 3] {
            let mut s = InetChecksum::new();
            for (i, &w) in words.iter().enumerate() {
                match pick(i) {
                    0 => s.add_u64(w),
                    1 => {
                        s.add_u32((w >> 32) as u32);
                        s.add_u32(w as u32);
                    }
                    _ => {
                        for shift in [48, 32, 16, 0] {
                            s.add_u16((w >> shift) as u16);
                        }
                    }
                }
            }
            assert_eq!(s.finish(), want);
        }
    }

    #[test]
    fn all_zeros_checksums_to_ffff() {
        with_buf(&[0u8; 32], |m, addr| {
            assert_eq!(checksum_buf(m, addr, 32).finish(), 0xFFFF);
        });
    }

    #[test]
    fn streaming_u64_matches_buffer_pass() {
        let bytes: Vec<u8> = (0..64u8).collect();
        with_buf(&bytes, |m, addr| {
            let one_shot = checksum_buf(m, addr, 64).finish();
            let mut s = InetChecksum::new();
            for i in 0..8 {
                s.add_u64(m.read_u64_be(addr + 8 * i));
            }
            assert_eq!(s.finish(), one_shot);
        });
    }

    #[test]
    fn partial_sums_combine_in_any_order() {
        // The non-ordering-constrained property the B→C→A schedule needs.
        let bytes: Vec<u8> = (0..48).map(|i| (i * 73 + 11) as u8).collect();
        with_buf(&bytes, |m, addr| {
            let whole = checksum_buf(m, addr, 48).finish();
            // Shaped like a message: a one-block part A, the bulk, a short tail.
            let a = checksum_buf(m, addr, 8);
            let b = checksum_buf(m, addr + 8, 36);
            let c = checksum_buf(m, addr + 44, 4);
            for order in [[b, c, a], [c, a, b], [a, b, c], [c, b, a]] {
                let mut s = InetChecksum::new();
                for part in order {
                    s.combine(part);
                }
                assert_eq!(s.finish(), whole);
            }
        });
    }

    #[test]
    fn odd_length_parts_break_combining() {
        // Why `combine` demands even byte counts at even offsets: an
        // odd-length part checksummed on its own pads its trailing byte
        // with a zero *low* byte (RFC 1071), but in the whole message
        // that byte is the *high* half of a 16-bit pair with the next
        // part's first byte. Splitting at an odd offset therefore breaks
        // the pairing and the combined sum silently diverges — which is
        // what the `debug_assert!`s in the fused B→C→A senders guard
        // against. The even split of the same bytes agrees exactly.
        let bytes: Vec<u8> = (0..20).map(|i| (i * 29 + 5) as u8).collect();
        with_buf(&bytes, |m, addr| {
            let whole = checksum_buf(m, addr, 20).finish();
            let mut odd = InetChecksum::new();
            odd.combine(checksum_buf(m, addr, 7));
            odd.combine(checksum_buf(m, addr + 7, 13));
            assert_ne!(odd.finish(), whole, "odd-offset split must not reassociate");
            let mut even = InetChecksum::new();
            even.combine(checksum_buf(m, addr, 8));
            even.combine(checksum_buf(m, addr + 8, 12));
            assert_eq!(even.finish(), whole, "even split combines exactly");
        });
    }

    #[test]
    fn pseudo_header_contribution() {
        let ph = PseudoHeader { src: 0x0A000001, dst: 0x0A000002, protocol: 6, tcp_len: 1044 };
        let mut s = InetChecksum::new();
        ph.add_to(&mut s);
        let mut expect = InetChecksum::new();
        for w in [0x0A00u16, 0x0001, 0x0A00, 0x0002, 0x0006, 1044] {
            expect.add_u16(w);
        }
        assert_eq!(s.fold(), expect.fold());
    }

    #[test]
    fn verify_of_correct_segment_is_zero() {
        // A segment whose checksum field holds finish() sums to 0xFFFF,
        // i.e. verification yields 0 after complement.
        let mut bytes: Vec<u8> = (0..20).map(|i| (i * 7) as u8).collect();
        // Pretend offset 10 is the checksum field: zero it, sum, insert.
        bytes[10] = 0;
        bytes[11] = 0;
        let csum = reference(&bytes);
        bytes[10] = (csum >> 8) as u8;
        bytes[11] = csum as u8;
        with_buf(&bytes, |m, addr| {
            assert_eq!(checksum_buf(m, addr, 20).finish(), 0);
        });
    }

    #[test]
    fn deferred_fold_does_not_overflow() {
        // Every addend at its maximum, well past where a 32-bit deferred
        // sum would have had to fold (2^16 halfwords = 128 KiB).
        let mut s = InetChecksum::new();
        for _ in 0..200_000 {
            s.add_u16(0xFFFF);
        }
        assert_eq!(s.fold(), 0xFFFF);
        let bytes = vec![0xFFu8; 256 * 1024 + 6];
        with_buf(&bytes, |m, addr| {
            let sum = checksum_buf(m, addr, bytes.len());
            assert_eq!((sum.fold(), sum.finish()), (0xFFFF, reference(&bytes)));
        });
    }

    #[test]
    fn memory_traffic_is_one_read_per_word() {
        use memsim::{HostModel, Mem, SimMem};
        let mut space = AddressSpace::new();
        let r = space.alloc("buf", 1024, 8);
        let mut m = SimMem::new(&space, &HostModel::ss10_30());
        let _ = checksum_buf(&mut m, r.base, 1024);
        let s = m.stats();
        assert_eq!(s.reads.total(), 256);
        assert_eq!(s.writes.total(), 0);
        assert_eq!(s.compute_ops, 256 * u64::from(InetChecksum::OPS_PER_U32));
        // Silence unused-import warning for Mem (trait needed for read calls inside).
        let _ = <SimMem as Mem>::read_u8;
    }
}
