//! The accept handshake: binding a live client to a pre-allocated
//! session over real datagrams.
//!
//! The paper's harness "opens" its one connection pair by construction.
//! A server cannot: clients arrive, and each must tell the server which
//! pre-allocated session it is claiming and synchronise sequence
//! numbers. The exchange is a two-message SYN / SYN-ACK carried through
//! the same kernel part as the data — checksummed, droppable, and
//! retried — so connection setup exercises the demultiplexer exactly
//! like data does:
//!
//! * **SYN** (client ctrl port → server listen port): `seq` carries the
//!   client's ISS; an 8-byte payload names the client's data port and
//!   its scheduler weight. The weight word is informational: the server
//!   parses and checksums it, and decides nothing from it — schedulers
//!   take their weights from [`crate::ServerConfig::weights`].
//! * **SYN-ACK** (listen port → client ctrl port): `seq` carries the
//!   server's ISS, `ack` the client's ISS + 1.
//!
//! Both carry a full TCP checksum over the pseudo-header; a corrupted or
//! dropped handshake segment is simply re-sent by the client's retry
//! timer.

use checksum::internet::checksum_buf;
use checksum::{InetChecksum, PseudoHeader};
use memsim::region::Region;
use memsim::Mem;
use utcp::ip::PROTO_TCP;
use utcp::{
    Datagram, EndpointId, Ipv4Header, KernelPart, TcpFlags, TcpHeader, IP_HEADER_LEN,
    TCP_HEADER_LEN,
};

/// The server's well-known listen port.
pub const LISTEN_PORT: u16 = 9000;

/// SYN payload: data port (4 bytes BE) + scheduler weight (4 bytes BE).
pub const SYN_PAYLOAD_LEN: usize = 8;

/// What a valid SYN told the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynInfo {
    /// The client's initial sequence number.
    pub iss: u32,
    /// The data port the client will receive the transfer on.
    pub data_port: u16,
    /// The weight word of the payload, as sent. Informational — no
    /// scheduler reads it (see the module docs).
    pub weight: u32,
    /// The client's IP (SYN-ACK destination).
    pub src_ip: u32,
    /// The client's control port (SYN-ACK destination port).
    pub ctrl_port: u16,
}

/// Sum pseudo-header + TCP header + payload of a staged datagram; zero
/// means the segment verifies.
fn segment_sum<M: Mem>(m: &mut M, d: &Datagram, src_ip: u32, dst_ip: u32) -> u16 {
    let payload_len = d.len - IP_HEADER_LEN - TCP_HEADER_LEN;
    let mut sum = InetChecksum::new();
    PseudoHeader {
        src: src_ip,
        dst: dst_ip,
        protocol: PROTO_TCP,
        tcp_len: (TCP_HEADER_LEN + payload_len) as u16,
    }
    .add_to(&mut sum);
    TcpHeader::at(d.addr + IP_HEADER_LEN).add_to_checksum(m, &mut sum);
    sum.combine(checksum_buf(m, d.addr + IP_HEADER_LEN + TCP_HEADER_LEN, payload_len));
    sum.finish()
}

/// IP-validate a staged datagram addressed to `local_ip`; returns the
/// header on success.
fn ip_check<M: Mem>(m: &mut M, d: &Datagram, local_ip: u32) -> Option<Ipv4Header> {
    let ip = Ipv4Header::at(d.addr);
    ip.admits(m, d.len, Some(local_ip)).then_some(ip)
}

/// Client side: emit a SYN claiming `data_port` with `weight`. `scratch`
/// stages the header + payload (≥ `TCP_HEADER_LEN + SYN_PAYLOAD_LEN`
/// bytes); the kernel part copies it out synchronously, so one scratch
/// region can be shared by every client.
#[allow(clippy::too_many_arguments)]
pub fn client_send_syn<M: Mem>(
    m: &mut M,
    lb: &mut impl KernelPart,
    scratch: Region,
    client_ip: u32,
    server_ip: u32,
    ctrl_port: u16,
    iss: u32,
    data_port: u16,
    weight: u32,
) {
    let payload = scratch.at(TCP_HEADER_LEN);
    m.write_u32_be(payload, u32::from(data_port));
    m.write_u32_be(payload + 4, weight);
    let hdr = TcpHeader::at(scratch.base);
    hdr.build(m, ctrl_port, LISTEN_PORT, iss, 0, TcpFlags::SYN, 0);
    let payload_sum = checksum_buf(m, payload, SYN_PAYLOAD_LEN);
    let pseudo = PseudoHeader {
        src: client_ip,
        dst: server_ip,
        protocol: PROTO_TCP,
        tcp_len: (TCP_HEADER_LEN + SYN_PAYLOAD_LEN) as u16,
    };
    let csum = hdr.segment_checksum(m, pseudo, payload_sum);
    hdr.set_checksum(m, csum);
    lb.send(m, client_ip, server_ip, LISTEN_PORT, scratch.base, payload, SYN_PAYLOAD_LEN);
}

/// Server side: validate and parse one datagram from the listen queue.
/// Returns `None` for anything that is not a well-formed, correctly
/// checksummed SYN — the caller just drops it, as a listener drops
/// stray segments.
pub fn parse_syn<M: Mem>(m: &mut M, d: &Datagram, server_ip: u32) -> Option<SynInfo> {
    if d.len != IP_HEADER_LEN + TCP_HEADER_LEN + SYN_PAYLOAD_LEN {
        return None;
    }
    let ip = ip_check(m, d, server_ip)?;
    let src_ip = ip.src(m);
    let hdr = TcpHeader::at(d.addr + IP_HEADER_LEN);
    let flags = hdr.flags(m);
    if !flags.contains(TcpFlags::SYN) || flags.contains(TcpFlags::ACK) {
        return None;
    }
    if segment_sum(m, d, src_ip, server_ip) != 0 {
        return None;
    }
    let data_port_word = m.read_u32_be(d.addr + IP_HEADER_LEN + TCP_HEADER_LEN);
    if data_port_word > u32::from(u16::MAX) {
        return None;
    }
    Some(SynInfo {
        iss: hdr.seq(m),
        data_port: data_port_word as u16,
        weight: m.read_u32_be(d.addr + IP_HEADER_LEN + TCP_HEADER_LEN + 4),
        src_ip,
        ctrl_port: hdr.src_port(m),
    })
}

/// Server side: answer an accepted SYN with a SYN-ACK carrying the
/// server's ISS.
#[allow(clippy::too_many_arguments)]
pub fn server_send_syn_ack<M: Mem>(
    m: &mut M,
    lb: &mut impl KernelPart,
    scratch: Region,
    server_ip: u32,
    client_ip: u32,
    ctrl_port: u16,
    server_iss: u32,
    client_iss: u32,
) {
    let hdr = TcpHeader::at(scratch.base);
    hdr.build(
        m,
        LISTEN_PORT,
        ctrl_port,
        server_iss,
        client_iss.wrapping_add(1),
        TcpFlags::SYN_ACK,
        0,
    );
    let pseudo = PseudoHeader {
        src: server_ip,
        dst: client_ip,
        protocol: PROTO_TCP,
        tcp_len: TCP_HEADER_LEN as u16,
    };
    let csum = hdr.segment_checksum(m, pseudo, InetChecksum::new());
    hdr.set_checksum(m, csum);
    lb.send(m, server_ip, client_ip, ctrl_port, scratch.base, scratch.base, 0);
}

/// Client side: drain the control endpoint looking for a valid SYN-ACK;
/// returns the server's ISS when one arrives. Anything malformed is
/// discarded (the retry timer re-sends the SYN).
pub fn client_poll_syn_ack<M: Mem>(
    m: &mut M,
    lb: &mut impl KernelPart,
    ctrl: EndpointId,
    client_ip: u32,
    expected_ack: u32,
) -> Option<u32> {
    while let Some(d) = lb.recv_into(m, ctrl) {
        if d.len != IP_HEADER_LEN + TCP_HEADER_LEN {
            continue;
        }
        let Some(ip) = ip_check(m, &d, client_ip) else { continue };
        let src_ip = ip.src(m);
        let hdr = TcpHeader::at(d.addr + IP_HEADER_LEN);
        if !hdr.flags(m).contains(TcpFlags::SYN_ACK) {
            continue;
        }
        if hdr.ack(m) != expected_ack {
            continue;
        }
        if segment_sum(m, &d, src_ip, client_ip) != 0 {
            continue;
        }
        return Some(hdr.seq(m));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use utcp::Loopback;
    use memsim::layout::AddressSpace;
    use memsim::NativeMem;

    const SERVER_IP: u32 = 0x0A00_0001;
    const CLIENT_IP: u32 = 0x0A00_0042;

    struct Fixture {
        space: AddressSpace,
        lb: Loopback,
        listen: EndpointId,
        ctrl: EndpointId,
        scratch: Region,
    }

    fn fixture() -> Fixture {
        let mut space = AddressSpace::new();
        let mut lb = Loopback::new(&mut space);
        let listen = lb.register(LISTEN_PORT);
        let ctrl = lb.register(40_000);
        let scratch = space.alloc("hs_scratch", 64, 8);
        Fixture { space, lb, listen, ctrl, scratch }
    }

    #[test]
    fn syn_roundtrips_through_the_kernel_part() {
        let mut f = fixture();
        let mut arena = f.space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        client_send_syn(
            &mut m, &mut f.lb, f.scratch, CLIENT_IP, SERVER_IP, 40_000, 0x1234, 30_007, 3,
        );
        let d = f.lb.recv_into(&mut m, f.listen).expect("SYN routed to the listener");
        let info = parse_syn(&mut m, &d, SERVER_IP).expect("valid SYN");
        assert_eq!(
            info,
            SynInfo {
                iss: 0x1234,
                data_port: 30_007,
                weight: 3,
                src_ip: CLIENT_IP,
                ctrl_port: 40_000,
            }
        );
    }

    #[test]
    fn corrupted_syn_is_dropped() {
        let mut f = fixture();
        f.lb.set_faults(utcp::FaultPlan { corrupt_every: 1, ..Default::default() });
        let mut arena = f.space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        client_send_syn(
            &mut m, &mut f.lb, f.scratch, CLIENT_IP, SERVER_IP, 40_000, 0x1234, 30_007, 1,
        );
        let d = f.lb.recv_into(&mut m, f.listen).expect("delivered (corrupted in flight)");
        assert_eq!(parse_syn(&mut m, &d, SERVER_IP), None, "checksum must reject");
    }

    #[test]
    fn syn_ack_roundtrip_carries_both_isses() {
        let mut f = fixture();
        let mut arena = f.space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        server_send_syn_ack(
            &mut m, &mut f.lb, f.scratch, SERVER_IP, CLIENT_IP, 40_000, 0x8000_0001, 0x1234,
        );
        let server_iss =
            client_poll_syn_ack(&mut m, &mut f.lb, f.ctrl, CLIENT_IP, 0x1235)
                .expect("valid SYN-ACK");
        assert_eq!(server_iss, 0x8000_0001);
        assert!(client_poll_syn_ack(&mut m, &mut f.lb, f.ctrl, CLIENT_IP, 0x1235).is_none());
    }

    #[test]
    fn syn_ack_with_wrong_ack_is_ignored() {
        let mut f = fixture();
        let mut arena = f.space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        server_send_syn_ack(
            &mut m, &mut f.lb, f.scratch, SERVER_IP, CLIENT_IP, 40_000, 0x8000_0001, 0x9999,
        );
        assert!(client_poll_syn_ack(&mut m, &mut f.lb, f.ctrl, CLIENT_IP, 0x1235).is_none());
    }

    /// A kernel part that hands up the datagrams a test laid in memory —
    /// bytes no sender of ours wrote.
    struct Canned(Vec<Datagram>);

    impl KernelPart for Canned {
        fn register(&mut self, _port: u16) -> EndpointId {
            EndpointId::from_index(0)
        }
        fn send<M: Mem>(&mut self, _: &mut M, _: u32, _: u32, _: u16, _: usize, _: usize, _: usize) {}
        fn recv_into<M: Mem>(&mut self, _: &mut M, _: EndpointId) -> Option<Datagram> {
            self.0.pop()
        }
        fn pending(&self, _: EndpointId) -> usize {
            self.0.len()
        }
        fn counters(&self) -> utcp::KernelCounters {
            utcp::KernelCounters::default()
        }
    }

    /// The bytes of the one datagram queued at `ep`.
    fn wire_bytes(m: &mut NativeMem<'_>, lb: &mut Loopback, ep: EndpointId) -> Vec<u8> {
        let d = lb.recv_into(m, ep).expect("one datagram queued");
        m.bytes(d.addr, d.len).to_vec()
    }

    /// Fuzz: both handshake parsers over bytes we did not write, each
    /// datagram ending where the arena ends (one byte further is a
    /// `NativeMem` panic): random bytes at every length 0…64, bare and
    /// behind an IP header that verifies, and a valid SYN / SYN-ACK
    /// under every single-bit flip and every truncation. Neither parser
    /// panics, and neither accepts anything but the untouched original.
    #[test]
    fn fuzz_handshake_parsers_never_panic() {
        let mut f = fixture();
        let buf = f.space.alloc("fuzz", 64, 4);
        let mut arena = f.space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        client_send_syn(
            &mut m, &mut f.lb, f.scratch, CLIENT_IP, SERVER_IP, 40_000, 0x1234, 30_007, 3,
        );
        let syn = wire_bytes(&mut m, &mut f.lb, f.listen);
        server_send_syn_ack(
            &mut m, &mut f.lb, f.scratch, SERVER_IP, CLIENT_IP, 40_000, 0x8000_0001, 0x1234,
        );
        let syn_ack = wire_bytes(&mut m, &mut f.lb, f.ctrl);

        // Lay `bytes` against the end of the arena and run both parsers.
        let parse = |m: &mut NativeMem<'_>, bytes: &[u8]| {
            let d = Datagram { addr: buf.end() - bytes.len(), len: bytes.len() };
            for (i, &b) in bytes.iter().enumerate() {
                m.write_u8(d.addr + i, b);
            }
            let mut canned = Canned(vec![d]);
            (
                parse_syn(m, &d, SERVER_IP),
                client_poll_syn_ack(m, &mut canned, f.ctrl, CLIENT_IP, 0x1235),
            )
        };

        assert!(matches!(parse(&mut m, &syn), (Some(info), None) if info.iss == 0x1234));
        assert_eq!(parse(&mut m, &syn_ack), (None, Some(0x8000_0001)));
        for original in [&syn, &syn_ack] {
            for cut in 0..original.len() {
                assert_eq!(parse(&mut m, &original[..cut]), (None, None), "cut at {cut}");
            }
            for bit in 0..8 * original.len() {
                let mut flipped = original.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_eq!(parse(&mut m, &flipped), (None, None), "bit {bit}");
            }
        }

        let mut rng = utcp::rng::XorShift64::new(0x5_1A_CC);
        for round in 0..13_000usize {
            let len = round % 65;
            let mut bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            if len >= IP_HEADER_LEN && rng.below(2) == 0 {
                let dst = [SERVER_IP, CLIENT_IP][rng.index(2)];
                for (i, &b) in bytes.iter().enumerate() {
                    m.write_u8(buf.base + i, b);
                }
                Ipv4Header::at(buf.base).build(&mut m, 7, dst, len - IP_HEADER_LEN, 1, 0, false, 64);
                bytes[..IP_HEADER_LEN].copy_from_slice(m.bytes(buf.base, IP_HEADER_LEN));
            }
            assert_eq!(parse(&mut m, &bytes), (None, None), "random bytes, length {len}");
        }
    }

    #[test]
    fn stray_data_segment_is_not_a_syn() {
        let mut f = fixture();
        let mut arena = f.space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        // A DATA-flagged segment with a SYN-sized payload.
        let payload = f.scratch.at(TCP_HEADER_LEN);
        m.write_u32_be(payload, 30_007);
        m.write_u32_be(payload + 4, 1);
        let hdr = TcpHeader::at(f.scratch.base);
        hdr.build(&mut m, 40_000, LISTEN_PORT, 7, 0, TcpFlags::DATA, 0);
        let pseudo = PseudoHeader {
            src: CLIENT_IP,
            dst: SERVER_IP,
            protocol: PROTO_TCP,
            tcp_len: (TCP_HEADER_LEN + SYN_PAYLOAD_LEN) as u16,
        };
        let sum = checksum_buf(&mut m, payload, SYN_PAYLOAD_LEN);
        let csum = hdr.segment_checksum(&mut m, pseudo, sum);
        hdr.set_checksum(&mut m, csum);
        f.lb.send(&mut m, CLIENT_IP, SERVER_IP, LISTEN_PORT, f.scratch.base, payload, SYN_PAYLOAD_LEN);
        let d = f.lb.recv_into(&mut m, f.listen).unwrap();
        assert_eq!(parse_syn(&mut m, &d, SERVER_IP), None);
    }
}
