//! The `&[u8]` accessor of the one IPv4 layout.
//!
//! [`utcp::Ipv4Header`] states the 20-byte header — field offsets,
//! checksum rule, admission test — once, over [`memsim::Mem`], because
//! in-simulation header work must be costed. A socket or TUN device
//! hands the kernel plain byte buffers; [`admit`] runs that same code
//! over them (a [`NativeMem`] view with base 0 is a byte slice with
//! `Mem`'s verbs), so there is no second set of offsets to keep in
//! step. Outgoing headers need no accessor here: both devices send the
//! datagram [`utcp::kernelpart::system_copy`] assembled in instrumented
//! memory.

use memsim::NativeMem;
use utcp::ip::IP_HEADER_LEN;
use utcp::wire::TCP_HEADER_LEN;
use utcp::{Ipv4Header, SLOT_LEN};

/// Offset of the TCP destination port inside an inner datagram.
const DST_PORT_OFF: usize = IP_HEADER_LEN + 2;

/// The rule for what a backend may queue, stated once: an inner
/// datagram is at least `IP_HEADER_LEN + TCP_HEADER_LEN` bytes and at
/// most one [`SLOT_LEN`] kernel slot, opens with an option-less IPv4
/// header that passes [`Ipv4Header::admits`] for exactly the bytes
/// present, and carries its TCP destination port at offset 22 — which
/// is what `admit` returns. Arbitrary input never panics.
pub fn admit(packet: &[u8]) -> Option<u16> {
    if !(IP_HEADER_LEN + TCP_HEADER_LEN..=SLOT_LEN).contains(&packet.len()) || packet[0] != 0x45 {
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
    use utcp::rng::XorShift64;

    /// A header from 1 to 2 for `payload_len` bytes, written over
    /// `buf[..IP_HEADER_LEN]` by the one builder.
    fn header(buf: &mut [u8], payload_len: usize, ident: u16) {
        Ipv4Header::at(0).build(&mut NativeMem::with_base(buf, 0), 1, 2, payload_len, ident, 0, false, 64);
    }

    #[test]
    fn roundtrip() {
        let mut buf = [0u8; IP_HEADER_LEN + 100];
        let m = &mut NativeMem::with_base(&mut buf, 0);
        Ipv4Header::at(0).build(m, 0x0A00_0001, 0x0A00_0002, 100, 42, 0, false, 64);
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

    #[test]
    fn corruption_is_caught() {
        let mut buf = [0u8; IP_HEADER_LEN + TCP_HEADER_LEN];
        header(&mut buf, TCP_HEADER_LEN, 7);
        assert!(admit(&buf).is_some());
        for i in 0..IP_HEADER_LEN {
            let mut dam = buf;
            dam[i] ^= 0x10;
            assert!(admit(&dam).is_none(), "flip at byte {i} undetected");
        }
    }

    /// A header-only packet used to index past its end looking for the
    /// destination port; 24..40 bytes used to queue a datagram with no
    /// complete TCP header; a datagram past one kernel slot would
    /// overrun the slot it is deposited into.
    #[test]
    fn every_length_with_a_valid_header_is_rejected_or_routed() {
        for len in (0..=64usize).chain(SLOT_LEN - 1..=SLOT_LEN + 1) {
            let mut buf = vec![0u8; len.max(IP_HEADER_LEN)];
            header(&mut buf, len.saturating_sub(IP_HEADER_LEN), 9);
            if len >= DST_PORT_OFF + 2 {
                buf[DST_PORT_OFF..DST_PORT_OFF + 2].copy_from_slice(&9000u16.to_be_bytes());
            }
            let expect = (IP_HEADER_LEN + TCP_HEADER_LEN..=SLOT_LEN).contains(&len).then_some(9000);
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
                header(&mut buf, rng.below(64) as usize, 3);
            }
            let _ = admit(&buf);
        }
    }
}
