//! Minimal IPv4 — the network layer under the kernel part.
//!
//! The paper's kernel component sits between the user-level TCP and IP:
//! "for sending data, the main task of the kernel part is to pass the
//! messages received from the user-level TCP to IP. On the receiving
//! side, the kernel part demultiplexes IP packets to the corresponding
//! user-level TCP connection" (§3.1). This module provides the IPv4
//! machinery those sentences assume: the one 20-byte header layout of
//! this workspace (version/IHL, total length, identification,
//! flags/fragment offset, TTL, protocol, header checksum, addresses)
//! and the admission test every receiver applies to it
//! ([`Ipv4Header::admits`]).
//!
//! The layout is read and written through [`Mem`], so in-simulation
//! header work is costed; plain byte buffers (the TUN and UDP backends'
//! syscall buffers) go through the same code over a
//! `NativeMem::with_base(buf, 0)` view — see `netback::ipv4`. Nothing
//! fragments: the paper's largest TPDU is 1280 B + headers, well under
//! Ethernet's 1500, and every kernel part asserts a segment fits its
//! slot.

use checksum::internet::checksum_buf;
use memsim::Mem;

/// IPv4 header length without options (we never emit options, mirroring
/// the fixed-size-header discipline of the TCP above).
pub const IP_HEADER_LEN: usize = 20;

/// The protocol number carried in our packets.
pub const PROTO_TCP: u8 = 6;

/// Byte offsets of the IPv4 header fields.
mod field {
    pub const VER_IHL: usize = 0;
    pub const TOS: usize = 1;
    pub const TOTAL_LEN: usize = 2;
    pub const IDENT: usize = 4;
    pub const FLAGS_FRAG: usize = 6;
    pub const TTL: usize = 8;
    pub const PROTOCOL: usize = 9;
    pub const CHECKSUM: usize = 10;
    pub const SRC: usize = 12;
    pub const DST: usize = 16;
}

/// "More fragments" flag bit in the flags/fragment-offset word.
const MF: u16 = 0x2000;

/// A typed window over 20 bytes of (instrumented) memory holding an
/// IPv4 header.
#[derive(Debug, Clone, Copy)]
pub struct Ipv4Header {
    addr: usize,
}

impl Ipv4Header {
    /// View the bytes at `addr` as an IPv4 header.
    pub fn at(addr: usize) -> Self {
        Ipv4Header { addr }
    }

    /// Write a complete header (checksum filled in).
    #[allow(clippy::too_many_arguments)]
    pub fn build<M: Mem>(
        &self,
        m: &mut M,
        src: u32,
        dst: u32,
        payload_len: usize,
        ident: u16,
        frag_offset_words: u16,
        more_fragments: bool,
        ttl: u8,
    ) {
        m.write_u8(self.addr + field::VER_IHL, 0x45); // v4, 5 words
        m.write_u8(self.addr + field::TOS, 0);
        m.write_u16_be(self.addr + field::TOTAL_LEN, (IP_HEADER_LEN + payload_len) as u16);
        m.write_u16_be(self.addr + field::IDENT, ident);
        let flags = frag_offset_words | if more_fragments { MF } else { 0 };
        m.write_u16_be(self.addr + field::FLAGS_FRAG, flags);
        m.write_u8(self.addr + field::TTL, ttl);
        m.write_u8(self.addr + field::PROTOCOL, PROTO_TCP);
        m.write_u16_be(self.addr + field::CHECKSUM, 0);
        m.write_u32_be(self.addr + field::SRC, src);
        m.write_u32_be(self.addr + field::DST, dst);
        m.compute(12);
        let csum = checksum_buf(m, self.addr, IP_HEADER_LEN).finish();
        m.write_u16_be(self.addr + field::CHECKSUM, csum);
    }

    /// Total length field (header + payload).
    pub fn total_len<M: Mem>(&self, m: &mut M) -> usize {
        m.read_u16_be(self.addr + field::TOTAL_LEN) as usize
    }

    /// Protocol number.
    pub fn protocol<M: Mem>(&self, m: &mut M) -> u8 {
        m.read_u8(self.addr + field::PROTOCOL)
    }

    /// Destination address.
    pub fn dst<M: Mem>(&self, m: &mut M) -> u32 {
        m.read_u32_be(self.addr + field::DST)
    }

    /// Source address.
    pub fn src<M: Mem>(&self, m: &mut M) -> u32 {
        m.read_u32_be(self.addr + field::SRC)
    }

    /// Verify the header checksum (sums to zero when intact).
    pub fn verify<M: Mem>(&self, m: &mut M) -> bool {
        checksum_buf(m, self.addr, IP_HEADER_LEN).finish() == 0
    }

    /// The IP admission test, stated once for every receiver: `len`
    /// bytes arrived and they hold a whole header, which verifies,
    /// carries TCP, is addressed to `local_ip` (`None` for a backend
    /// that demultiplexes for any local address) and declares exactly
    /// those `len` bytes. Nothing is read when fewer than
    /// [`IP_HEADER_LEN`] bytes arrived, so a receiver may subtract the
    /// header length from an admitted `len`.
    pub fn admits<M: Mem>(&self, m: &mut M, len: usize, local_ip: Option<u32>) -> bool {
        len >= IP_HEADER_LEN
            && self.verify(m)
            && self.protocol(m) == PROTO_TCP
            && local_ip.is_none_or(|ip| self.dst(m) == ip)
            && self.total_len(m) == len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::region::Region;
    use memsim::{AddressSpace, NativeMem};

    fn with_mem(f: impl FnOnce(&mut NativeMem<'_>, Region)) {
        let mut space = AddressSpace::new();
        let pkt = space.alloc("pkt", 2048, 8);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        f(&mut m, pkt);
    }

    #[test]
    fn header_roundtrip_and_checksum() {
        with_mem(|m, pkt| {
            let h = Ipv4Header::at(pkt.base);
            h.build(m, 0x0A000001, 0x0A000002, 1044, 77, 0, false, 64);
            assert_eq!(h.total_len(m), 1064);
            assert_eq!(m.read_u16_be(pkt.at(field::IDENT)), 77);
            assert_eq!(m.read_u8(pkt.at(field::TTL)), 64);
            assert_eq!(h.protocol(m), PROTO_TCP);
            assert_eq!(h.src(m), 0x0A000001);
            assert_eq!(h.dst(m), 0x0A000002);
            assert_eq!(m.read_u16_be(pkt.at(field::FLAGS_FRAG)), 0, "unfragmented");
            assert!(h.verify(m), "fresh header must verify");
            assert!(h.admits(m, 1064, Some(0x0A000002)) && h.admits(m, 1064, None));
            assert!(!h.admits(m, 1063, None), "declared length must match what arrived");
            assert!(!h.admits(m, 1064, Some(0x0A000003)), "addressed elsewhere");
            // Corrupt a byte: verification must fail.
            let b = m.read_u8(pkt.at(4));
            m.write_u8(pkt.at(4), b ^ 0x10);
            assert!(!h.verify(m));
        });
    }

    /// What the fuzz loop below found, fixed: a 10-byte datagram in a
    /// buffer whose first 20 bytes (the rest stale) verify as a header
    /// declaring 10 bytes used to be admitted, and `poll_input` then
    /// computed `10 - IP_HEADER_LEN`.
    #[test]
    fn a_datagram_shorter_than_an_ip_header_is_never_admitted() {
        with_mem(|m, pkt| {
            let h = Ipv4Header::at(pkt.base);
            h.build(m, 1, 2, 0, 7, 0, false, 64);
            m.write_u16_be(pkt.at(field::TOTAL_LEN), 10);
            m.write_u16_be(pkt.at(field::CHECKSUM), 0);
            let csum = checksum_buf(m, pkt.base, IP_HEADER_LEN).finish();
            m.write_u16_be(pkt.at(field::CHECKSUM), csum);
            assert!(h.verify(m) && h.total_len(m) == 10, "a header that says what arrived");
            assert!(!h.admits(m, 10, None));
        });
    }

    /// Fuzz: `admits` over datagrams of every length 0…64 that end
    /// where the arena ends (one byte further is a `NativeMem` panic) —
    /// random bytes, and random bytes behind a header that verifies, so
    /// the walk gets past the checksum to the protocol, address and
    /// length rules. It never panics, and it admits exactly the
    /// datagrams whose header declares the bytes that arrived.
    #[test]
    fn fuzz_admits_never_panics_at_any_length() {
        let mut rng = crate::rng::XorShift64::new(0x1B_AD_1B);
        let mut space = AddressSpace::new();
        let buf = space.alloc("dgram", 64, 4);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        for round in 0..20_000usize {
            let len = round % 65;
            let at = buf.end() - len;
            for i in 0..len {
                m.write_u8(at + i, rng.next_u64() as u8);
            }
            let h = Ipv4Header::at(at);
            let declared = rng.index(65);
            let valid = len >= IP_HEADER_LEN && rng.below(2) == 0;
            if valid {
                h.build(&mut m, 1, 2, 0, 3, 0, false, 64);
                m.write_u16_be(at + field::TOTAL_LEN, declared as u16);
                m.write_u16_be(at + field::CHECKSUM, 0);
                let csum = checksum_buf(&mut m, at, IP_HEADER_LEN).finish();
                m.write_u16_be(at + field::CHECKSUM, csum);
            }
            let local = [None, Some(2), Some(9)][rng.index(3)];
            let admitted = h.admits(&mut m, len, local);
            if valid {
                assert_eq!(admitted, declared == len && local != Some(9), "len {len} declared {declared}");
            }
        }
    }
}
