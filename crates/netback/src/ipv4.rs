//! The `&[u8]` accessor of the one IPv4 layout.
//!
//! [`utcp::Ipv4Header`] states the 20-byte header — field offsets,
//! checksum rule, admission test — once, over [`memsim::Mem`], because
//! in-simulation header work must be costed. A socket or TUN device
//! hands the kernel plain byte buffers; this module runs that same code
//! over them (a [`NativeMem`] view with base 0 is a byte slice with
//! `Mem`'s verbs), so there is no second set of offsets to keep in
//! step. Always compiled, though [`build`]'s only in-tree consumer is
//! behind the `tun` feature; [`admit`] fronts both backends' receive
//! queues.

use memsim::NativeMem;
use utcp::ip::IP_HEADER_LEN;
use utcp::wire::TCP_HEADER_LEN;
use utcp::Ipv4Header;

/// Offset of the TCP destination port inside an inner datagram.
const DST_PORT_OFF: usize = IP_HEADER_LEN + 2;

/// Write a complete unfragmented header (checksum filled in) into
/// `buf[..20]`.
///
/// # Panics
/// Panics if `buf` is shorter than [`IP_HEADER_LEN`] or
/// `IP_HEADER_LEN + payload_len` exceeds `u16::MAX` — both are caller
/// bugs, not wire conditions.
pub fn build(buf: &mut [u8], src: u32, dst: u32, payload_len: usize, ident: u16, ttl: u8) {
    assert!(buf.len() >= IP_HEADER_LEN, "need {IP_HEADER_LEN} bytes for an IPv4 header");
    assert!(IP_HEADER_LEN + payload_len <= u16::MAX as usize, "IPv4 total length overflow");
    Ipv4Header::at(0).build(&mut NativeMem::with_base(buf, 0), src, dst, payload_len, ident, 0, false, ttl);
}

/// The rule for what a backend may queue, stated once: an inner
/// datagram is at least `IP_HEADER_LEN + TCP_HEADER_LEN` bytes, opens
/// with an option-less IPv4 header that passes
/// [`Ipv4Header::admits`] for exactly the bytes present, and carries
/// its TCP destination port at offset 22 — which is what `admit`
/// returns. Arbitrary input never panics.
pub fn admit(packet: &[u8]) -> Option<u16> {
    if packet.len() < IP_HEADER_LEN + TCP_HEADER_LEN || packet[0] != 0x45 {
        return None;
    }
    let mut hdr = [0u8; IP_HEADER_LEN];
    hdr.copy_from_slice(&packet[..IP_HEADER_LEN]);
    Ipv4Header::at(0)
        .admits(&mut NativeMem::with_base(&mut hdr, 0), packet.len(), None)
        .then(|| u16::from_be_bytes([packet[DST_PORT_OFF], packet[DST_PORT_OFF + 1]]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::{AddressSpace, NativeMem};
    use utcp::rng::XorShift64;

    #[test]
    fn roundtrip() {
        let mut buf = [0u8; IP_HEADER_LEN + 100];
        build(&mut buf, 0x0A00_0001, 0x0A00_0002, 100, 42, 64);
        buf[DST_PORT_OFF..DST_PORT_OFF + 2].copy_from_slice(&8080u16.to_be_bytes());
        assert_eq!(admit(&buf), Some(8080));
        assert_eq!(buf[8], 64, "TTL");
        let m = &mut NativeMem::with_base(&mut buf, 0);
        let h = Ipv4Header::at(0);
        assert_eq!(h.src(m), 0x0A00_0001);
        assert_eq!(h.dst(m), 0x0A00_0002);
        assert_eq!(h.total_len(m), IP_HEADER_LEN + 100);
        assert_eq!(h.protocol(m), utcp::ip::PROTO_TCP);
    }

    /// The byte-slice accessor and the instrumented-memory accessor
    /// must produce bit-identical headers — one layout, two costing
    /// regimes.
    #[test]
    fn matches_the_mem_based_builder_byte_for_byte() {
        let mut space = AddressSpace::new();
        let region = space.alloc("ip", 64, 8);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        for (src, dst, plen, ident, ttl) in [
            (0x0A00_0001u32, 0x0A00_0002u32, 0usize, 1u16, 64u8),
            (0xC0A8_0101, 0x7F00_0001, 1516, 0xBEEF, 1),
            (0, u32::MAX, 20, u16::MAX, 255),
        ] {
            Ipv4Header::at(region.base).build(&mut m, src, dst, plen, ident, 0, false, ttl);
            let reference = m.bytes(region.base, IP_HEADER_LEN).to_vec();
            let mut ours = [0u8; IP_HEADER_LEN];
            build(&mut ours, src, dst, plen, ident, ttl);
            assert_eq!(ours[..], reference[..], "src={src:#x} dst={dst:#x} plen={plen}");
        }
    }

    #[test]
    fn corruption_is_caught() {
        let mut buf = [0u8; IP_HEADER_LEN + TCP_HEADER_LEN];
        build(&mut buf, 1, 2, TCP_HEADER_LEN, 7, 64);
        assert!(admit(&buf).is_some());
        for i in 0..IP_HEADER_LEN {
            let mut dam = buf;
            dam[i] ^= 0x10;
            assert!(admit(&dam).is_none(), "flip at byte {i} undetected");
        }
    }

    /// A header-only packet used to index past its end looking for the
    /// destination port; 24..40 bytes used to queue a datagram with no
    /// complete TCP header.
    #[test]
    fn every_length_with_a_valid_header_is_rejected_or_routed() {
        for len in 0..=64usize {
            let mut buf = vec![0u8; len.max(IP_HEADER_LEN)];
            build(&mut buf, 1, 2, len.saturating_sub(IP_HEADER_LEN), 9, 64);
            if len >= DST_PORT_OFF + 2 {
                buf[DST_PORT_OFF..DST_PORT_OFF + 2].copy_from_slice(&9000u16.to_be_bytes());
            }
            let expect = (len >= IP_HEADER_LEN + TCP_HEADER_LEN).then_some(9000);
            assert_eq!(admit(&buf[..len]), expect, "length {len}");
        }
    }

    #[test]
    fn fuzz_random_bytes_never_panic() {
        let mut rng = XorShift64::new(0x1234_5678);
        for _ in 0..20_000 {
            let len = rng.below(64) as usize;
            let mut buf: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            // Half the time behind a header that verifies, so the walk
            // gets past the checksum to the length and port rules.
            if len >= IP_HEADER_LEN && rng.below(2) == 0 {
                build(&mut buf, 1, 2, rng.below(64) as usize, 3, 64);
            }
            let _ = admit(&buf);
        }
    }
}
