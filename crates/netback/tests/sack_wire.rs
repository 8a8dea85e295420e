//! SACK wire identity: the RFC 2018 option a receiver emits for an
//! out-of-order segment must be byte-identical whether the segment was
//! produced by the ILP or the non-ILP send path, and whether the ACK
//! travelled the in-process loop-back or a real UDP socket.
//!
//! The receiver's ACKs are aimed at a *capture port* registered
//! directly on the backend (not at a connection), so the test reads the
//! raw datagram exactly as the kernel part framed it — IPv4 header, TCP
//! header with a widened data offset, then `NOP NOP kind=5 len=10` and
//! one big-endian sequence pair. The four captures (2 paths × 2
//! backends) must agree on every TCP byte.

use checksum::internet::checksum_buf;
use ilp_core::Reject;
use memsim::{AddressSpace, NativeMem};
use netback::UdpBackend;
use std::time::{Duration, Instant};
use utcp::ip::IP_HEADER_LEN;
use utcp::{Connection, KernelPart, Loopback, UtcpConfig, TCP_HEADER_LEN};

const TX_IP: u32 = 0x0A00_0001;
const RX_IP: u32 = 0x0A00_0002;
const TX_PORT: u16 = 1000;
const RX_PORT: u16 = 2000;
/// Where the receiver aims its ACKs — registered raw, not as a
/// connection, so the ACK datagram can be captured byte-for-byte.
const CAP_PORT: u16 = 3000;
const TX_ISS: u32 = 0x1111_0000;
const RX_ISS: u32 = 0x2222_0000;
/// How far ahead of the receiver's expectation the segment lands.
const GAP: u32 = 80;
const PAYLOAD: usize = 100;

fn tx_cfg() -> UtcpConfig {
    UtcpConfig {
        local_port: TX_PORT,
        peer_port: RX_PORT,
        local_ip: TX_IP,
        peer_ip: RX_IP,
        ..Default::default()
    }
}

fn rx_cfg() -> UtcpConfig {
    UtcpConfig { peer_port: CAP_PORT, ..tx_cfg().mirror() }
}

/// Send one payload through the chosen path.
fn send_one<K: KernelPart>(
    m: &mut NativeMem,
    tx: &mut Connection,
    net: &mut K,
    src: usize,
    ilp: bool,
) {
    let data: Vec<u8> = (0..PAYLOAD).map(|i| (i * 7 + 3) as u8).collect();
    m.bytes_mut(src, PAYLOAD).copy_from_slice(&data);
    if ilp {
        use ilp_core::ilp_run;
        use xdr::stream::OpaqueSource;
        let (extent, mut writer) = tx.begin_ilp_send(PAYLOAD).expect("ring space");
        let mut source = OpaqueSource::new(src, PAYLOAD);
        let mut tap = ilp_core::ChecksumTap::new();
        ilp_run(m, &mut source, &mut tap, &mut writer, 1, None).expect("fused send loop");
        tx.commit_send(m, net, extent, tap.sum());
    } else {
        tx.send_buf(m, net, src, PAYLOAD).expect("send");
    }
}

/// Deliver the segment to `rx`, where it lands out of order; the dup
/// ACK carrying the SACK option goes out inside `finish_recv`.
fn deliver_ooo<K: KernelPart>(
    m: &mut NativeMem,
    rx: &mut Connection,
    net: &mut K,
    deadline: Instant,
) {
    loop {
        if let Some(d) = rx.poll_input(m, net) {
            assert!(!d.in_order, "the segment must land ahead of rcv_nxt");
            let sum = checksum_buf(m, d.payload_addr, d.payload_len);
            // Out of order: rejected for delivery, held for SACK — and
            // not for its checksum, on a clean wire.
            let verdict = rx.finish_recv(m, net, &d, sum);
            assert_eq!(verdict, Err(Reject::Malformed("out-of-order segment")));
            return;
        }
        assert!(Instant::now() < deadline, "data segment never arrived");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Pull the raw ACK datagram off the capture endpoint.
fn capture<K: KernelPart>(
    m: &mut NativeMem,
    net: &mut K,
    ep: utcp::EndpointId,
    deadline: Instant,
) -> Vec<u8> {
    loop {
        if let Some(d) = net.recv_into(m, ep) {
            return m.bytes(d.addr, d.len).to_vec();
        }
        assert!(Instant::now() < deadline, "SACK ACK never arrived at the capture port");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// One run over the loop-back; returns the raw ACK frame.
fn sack_ack_over_loopback(ilp: bool) -> Vec<u8> {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut space = AddressSpace::new();
    let mut lb = Loopback::new(&mut space);
    let cap = KernelPart::register(&mut lb, CAP_PORT);
    let mut tx = Connection::new(&mut space, &mut lb, tx_cfg(), TX_ISS);
    let mut rx = Connection::new(&mut space, &mut lb, rx_cfg(), RX_ISS);
    tx.set_peer_iss(RX_ISS);
    // The receiver expects GAP bytes *before* the sender's first
    // sequence number, so the very first segment is a future one.
    rx.set_peer_iss(TX_ISS.wrapping_sub(GAP));
    let src = space.alloc("src", 2048, 8);
    let mut arena = space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    send_one(&mut m, &mut tx, &mut lb, src.base, ilp);
    deliver_ooo(&mut m, &mut rx, &mut lb, deadline);
    capture(&mut m, &mut lb, cap, deadline)
}

/// One run over real UDP sockets; `None` when the sandbox denies them.
fn sack_ack_over_udp(ilp: bool) -> Option<Vec<u8>> {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut space = AddressSpace::new();
    let mut tx_net = UdpBackend::bind(&mut space, "127.0.0.1:0").ok()?;
    let mut rx_net = UdpBackend::bind(&mut space, "127.0.0.1:0").ok()?;
    tx_net.set_peer(rx_net.local_addr().ok()?).ok()?;
    rx_net.set_peer(tx_net.local_addr().ok()?).ok()?;
    let cap = KernelPart::register(&mut tx_net, CAP_PORT);
    let mut tx = Connection::new(&mut space, &mut tx_net, tx_cfg(), TX_ISS);
    let mut rx = Connection::new(&mut space, &mut rx_net, rx_cfg(), RX_ISS);
    tx.set_peer_iss(RX_ISS);
    rx.set_peer_iss(TX_ISS.wrapping_sub(GAP));
    let src = space.alloc("src", 2048, 8);
    let mut arena = space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    send_one(&mut m, &mut tx, &mut tx_net, src.base, ilp);
    deliver_ooo(&mut m, &mut rx, &mut rx_net, deadline);
    Some(capture(&mut m, &mut tx_net, cap, deadline))
}

/// Assert the frame is a well-formed SACK ACK and return its TCP bytes.
fn check_sack_frame(frame: &[u8]) -> &[u8] {
    // 20 IP + 20 TCP + 2 NOPs + kind/len + one 8-byte block.
    assert_eq!(frame.len(), IP_HEADER_LEN + TCP_HEADER_LEN + 12, "frame length");
    let tcp = &frame[IP_HEADER_LEN..];
    let data_off = (tcp[12] >> 4) as usize;
    assert_eq!(data_off, 8, "20-byte header + 12 option bytes = 8 words");
    assert_eq!(&tcp[20..24], &[1, 1, 5, 10], "NOP NOP kind=5 len=10");
    let edge = |o: usize| u32::from_be_bytes([tcp[o], tcp[o + 1], tcp[o + 2], tcp[o + 3]]);
    assert_eq!(edge(24), TX_ISS, "SACK left edge = the held segment's seq");
    assert_eq!(edge(28), TX_ISS.wrapping_add(PAYLOAD as u32), "right edge");
    let ack = u32::from_be_bytes([tcp[8], tcp[9], tcp[10], tcp[11]]);
    assert_eq!(ack, TX_ISS.wrapping_sub(GAP), "cumulative ACK stays at rcv_nxt");
    tcp
}

#[test]
fn sack_ack_bytes_are_identical_across_paths_and_backends() {
    let lb_non = sack_ack_over_loopback(false);
    let lb_ilp = sack_ack_over_loopback(true);
    check_sack_frame(&lb_non);
    assert_eq!(lb_non, lb_ilp, "ILP vs non-ILP SACK ACK over loop-back");

    let (Some(udp_non), Some(udp_ilp)) = (sack_ack_over_udp(false), sack_ack_over_udp(true))
    else {
        eprintln!("skipping UDP leg: sandbox denies sockets");
        return;
    };
    check_sack_frame(&udp_non);
    assert_eq!(udp_non, udp_ilp, "ILP vs non-ILP SACK ACK over UDP");
    assert_eq!(
        check_sack_frame(&lb_non),
        check_sack_frame(&udp_non),
        "loop-back and UDP must frame the identical TCP segment"
    );
}
