//! Lifecycle wire identity: the SYN, SYN-ACK and ACK that open a
//! connection, and the FIN and RST TPDUs that close it, must be
//! byte-identical whether the data segment between them was produced by
//! the ILP or the non-ILP send path, and whether the frames travel the
//! in-process loop-back or real UDP sockets.
//!
//! Every control segment stays inside the paper's fixed data-TPDU
//! header discipline: a SYN takes one sequence slot before the data, a
//! FIN is a zero-payload FIN|ACK header occupying one slot after it, a
//! RST is a bare header at `snd_nxt` consuming none. The sender opens a
//! connection to a listener on the *capture port*, and the test reads
//! each frame exactly as the kernel part framed it: the open as the
//! listener and the sender staged it, then data segment, FIN and (after
//! an abort) RST straight off the capture port's queue. The captures
//! (2 paths × 2 backends) must agree on every TCP byte.

use memsim::{AddressSpace, Mem, NativeMem};
use netback::UdpBackend;
use std::time::{Duration, Instant};
use utcp::ip::IP_HEADER_LEN;
use utcp::{Connection, KernelPart, Loopback, State, UtcpConfig, TCP_HEADER_LEN};

const TX_IP: u32 = 0x0A00_0001;
const CAP_IP: u32 = 0x0A00_0002;
const TX_PORT: u16 = 1000;
/// Where the sender aims everything: a listener whose queue the test
/// reads raw once the connection is open.
const CAP_PORT: u16 = 3000;
const TX_ISS: u32 = 0x3333_0000;
const PEER_ISS: u32 = 0x4444_0000;
const PAYLOAD: usize = 96;

fn tx_cfg() -> UtcpConfig {
    UtcpConfig {
        local_port: TX_PORT,
        peer_port: CAP_PORT,
        local_ip: TX_IP,
        peer_ip: CAP_IP,
        ..Default::default()
    }
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

/// Pull the next raw datagram off the capture endpoint.
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
        assert!(Instant::now() < deadline, "datagram never arrived at the capture port");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Emit the three frames over an open connection: data, close (FIN),
/// abort (RST).
fn emit_teardown<K: KernelPart>(m: &mut NativeMem, tx: &mut Connection, net: &mut K, src: usize, ilp: bool) {
    send_one(m, tx, net, src, ilp);
    // Established → FIN immediately: the FIN rides one sequence slot
    // behind the still-unacknowledged data segment.
    tx.close(m, net);
    // FinWait1 → abort: a RST at snd_nxt, consuming no sequence number.
    tx.abort(m, net);
}

/// Poll `c` until it reaches `want` (the datagram may still be crossing
/// a socket) and return the frame that moved it, as staged for the
/// initial stage: its IPv4 total length says how long it was.
fn open_step<K: KernelPart>(m: &mut NativeMem, c: &mut Connection, net: &mut K, want: State) -> Vec<u8> {
    let deadline = Instant::now() + Duration::from_secs(10);
    while c.state() != want {
        assert!(c.poll_input(m, net).is_none(), "no data during the open");
        assert!(Instant::now() < deadline, "never reached {want:?}, still {:?}", c.state());
        std::thread::sleep(Duration::from_millis(1));
    }
    let at = c.recv_region().base;
    let len = usize::from(m.read_u16_be(at + 2));
    m.bytes(at, len).to_vec()
}

/// Every frame of one connection's life over one loop-back: SYN,
/// SYN-ACK, ACK, a data segment sent on `ilp`'s path, FIN, RST.
fn frames_over_loopback(ilp: bool) -> Vec<Vec<u8>> {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut space = AddressSpace::new();
    let mut lb = Loopback::new(&mut space);
    let mut cap = Connection::new(&mut space, &mut lb, tx_cfg().mirror(), PEER_ISS);
    cap.listen();
    let mut tx = Connection::new(&mut space, &mut lb, tx_cfg(), TX_ISS);
    let src = space.alloc("src", 2048, 8);
    let mut arena = space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    tx.connect(&mut m, &mut lb);
    let mut frames = vec![
        open_step(&mut m, &mut cap, &mut lb, State::SynRcvd),
        open_step(&mut m, &mut tx, &mut lb, State::Established),
        open_step(&mut m, &mut cap, &mut lb, State::Established),
    ];
    emit_teardown(&mut m, &mut tx, &mut lb, src.base, ilp);
    frames.extend((0..3).map(|_| capture(&mut m, &mut lb, cap.endpoint(), deadline)));
    frames
}

/// The same life over two real UDP sockets; `None` when the sandbox
/// denies them.
fn frames_over_udp(ilp: bool) -> Option<Vec<Vec<u8>>> {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut space = AddressSpace::new();
    let mut tx_net = UdpBackend::bind(&mut space, "127.0.0.1:0").ok()?;
    let mut cap_net = UdpBackend::bind(&mut space, "127.0.0.1:0").ok()?;
    tx_net.set_peer(cap_net.local_addr().ok()?).ok()?;
    cap_net.set_peer(tx_net.local_addr().ok()?).ok()?;
    let mut cap = Connection::new(&mut space, &mut cap_net, tx_cfg().mirror(), PEER_ISS);
    cap.listen();
    let mut tx = Connection::new(&mut space, &mut tx_net, tx_cfg(), TX_ISS);
    let src = space.alloc("src", 2048, 8);
    let mut arena = space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    tx.connect(&mut m, &mut tx_net);
    let mut frames = vec![
        open_step(&mut m, &mut cap, &mut cap_net, State::SynRcvd),
        open_step(&mut m, &mut tx, &mut tx_net, State::Established),
        open_step(&mut m, &mut cap, &mut cap_net, State::Established),
    ];
    emit_teardown(&mut m, &mut tx, &mut tx_net, src.base, ilp);
    frames.extend((0..3).map(|_| capture(&mut m, &mut cap_net, cap.endpoint(), deadline)));
    Some(frames)
}

/// Assert the frame is a bare fixed-header control TPDU with the given
/// flags and sequence number.
fn check_ctl_frame(frame: &[u8], flags: u8, seq: u32, what: &str) {
    assert_eq!(frame.len(), IP_HEADER_LEN + TCP_HEADER_LEN, "{what}: bare fixed header");
    let tcp = &frame[IP_HEADER_LEN..];
    assert_eq!((tcp[12] >> 4) as usize, 5, "{what}: 20-byte header, no options");
    assert_eq!(tcp[13], flags, "{what}: flags byte");
    let got_seq = u32::from_be_bytes([tcp[4], tcp[5], tcp[6], tcp[7]]);
    assert_eq!(got_seq, seq, "{what}: sequence number");
}

#[test]
fn fin_and_rst_bytes_are_identical_across_paths_and_backends() {
    let lb_n = frames_over_loopback(false);
    let lb_i = frames_over_loopback(true);
    // The data sits one past the SYN, the FIN in the slot right after
    // the payload; the RST one past the FIN (the FIN consumed a slot,
    // RSTs do not).
    let fin_seq = TX_ISS.wrapping_add(1 + PAYLOAD as u32);
    let rst_seq = fin_seq.wrapping_add(1);
    check_ctl_frame(&lb_n[4], 0x11, fin_seq, "loop-back FIN");
    check_ctl_frame(&lb_n[5], 0x04, rst_seq, "loop-back RST");
    assert_eq!(lb_n, lb_i, "ILP vs non-ILP open, data segment, FIN and RST over loop-back");

    let (Some(udp_n), Some(udp_i)) = (frames_over_udp(false), frames_over_udp(true)) else {
        eprintln!("skipping UDP leg: sandbox denies sockets");
        return;
    };
    check_ctl_frame(&udp_n[4], 0x11, fin_seq, "UDP FIN");
    check_ctl_frame(&udp_n[5], 0x04, rst_seq, "UDP RST");
    assert_eq!(udp_n[4..], udp_i[4..], "ILP vs non-ILP FIN and RST over UDP");
    for (what, (l, u)) in ["data segment", "FIN", "RST"].into_iter().zip(lb_n[3..].iter().zip(&udp_n[3..])) {
        assert_eq!(&l[IP_HEADER_LEN..], &u[IP_HEADER_LEN..], "loop-back and UDP must frame the identical {what}");
    }
}

#[test]
fn handshake_bytes_are_bare_headers_identical_across_backends() {
    let lb = frames_over_loopback(false);
    check_ctl_frame(&lb[0], 0x02, TX_ISS, "loop-back SYN");
    check_ctl_frame(&lb[1], 0x12, PEER_ISS, "loop-back SYN-ACK");
    check_ctl_frame(&lb[2], 0x10, TX_ISS.wrapping_add(1), "loop-back ACK");
    let Some(udp) = frames_over_udp(false) else {
        eprintln!("skipping UDP leg: sandbox denies sockets");
        return;
    };
    for (what, (l, u)) in ["SYN", "SYN-ACK", "ACK"].into_iter().zip(lb.iter().zip(&udp)) {
        assert_eq!(&l[IP_HEADER_LEN..], &u[IP_HEADER_LEN..], "loop-back and UDP must frame the identical {what}");
    }
}
