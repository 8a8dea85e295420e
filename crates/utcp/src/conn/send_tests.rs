// Send-sequence tests: windows, slow start, the RTT estimator, the
// retransmission timer. Part of `conn::tests` (see `tests.rs`).

/// Guards the docs against drifting back to the old "stop-and-go
/// with a fixed advertised window" description: Jacobson slow
/// start opens the congestion window with every ACK of an epoch.
#[test]
fn cwnd_opens_across_an_epoch() {
    let mut w = world();
    let mut arena = w.space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    let initial = w.tx.cwnd();
    assert_eq!(initial, 2 * MTU as u32, "slow start begins at 2 MSS");
    let mut prev = initial;
    for round in 0..32usize {
        m.bytes_mut(w.src.base, 512).copy_from_slice(&[round as u8; 512]);
        transfer(&mut w, &mut m, 512);
        let now = w.tx.cwnd();
        assert!(now >= prev, "cwnd shrank {prev} -> {now} in a loss-free epoch");
        prev = now;
    }
    // Below ssthresh each ACK grows cwnd by the bytes it advances,
    // so the epoch's growth is exactly the payload it acked.
    assert_eq!(prev, initial + 32 * 512, "slow start: one increment per ACK");
}

#[test]
fn retransmission_recovers_from_loss() {
    let mut w = world();
    w.lb.set_faults(FaultPlan { drop_every: 3, ..Default::default() });
    let mut arena = w.space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    let mut received = Vec::new();
    let mut to_send: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i + 1; 80]).collect();
    to_send.reverse();
    let mut pending = to_send.pop();
    for _ in 0..600 {
        if let Some(data) = &pending {
            m.bytes_mut(w.src.base, 80).copy_from_slice(data);
            if w.tx.send_buf(&mut m, &mut w.lb, w.src.base, 80).is_ok() {
                pending = to_send.pop();
            }
        }
        while let Some(d) = w.rx.poll_input(&mut m, &mut w.lb) {
            let sum = checksum_buf(&mut m, d.payload_addr, d.payload_len);
            if w.rx.finish_recv(&mut m, &mut w.lb, &d, sum).is_ok() {
                received.push(m.bytes(d.payload_addr, d.payload_len).to_vec());
            }
        }
        let _ = w.tx.poll_input(&mut m, &mut w.lb); // consume ACKs
        w.tx.tick(&mut m, &mut w.lb);
        if received.len() == 6 && w.tx.in_flight() == 0 {
            break;
        }
    }
    assert_eq!(received.len(), 6, "all messages delivered despite drops");
    for (i, data) in received.iter().enumerate() {
        assert_eq!(data, &vec![i as u8 + 1; 80]);
    }
    assert!(w.tx.stats.retransmits > 0, "loss must have caused retransmission");
}

#[test]
fn window_blocks_when_unacked() {
    let mut w = world();
    w.tx.snd.peer_window = 150;
    let mut arena = w.space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    w.tx.send_buf(&mut m, &mut w.lb, w.src.base, 100).unwrap();
    assert_eq!(
        w.tx.send_buf(&mut m, &mut w.lb, w.src.base, 100),
        Err(SendError::WindowClosed)
    );
}

#[test]
fn advertised_window_caps_outstanding_data() {
    // A small advertised window must cap *total* outstanding bytes,
    // not just the size of any single segment: 100-byte segments all
    // individually fit a 250-byte window, but the third must be
    // refused because 200 bytes are already in flight.
    let mut w = world();
    w.tx.snd.peer_window = 250;
    let mut arena = w.space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    w.tx.send_buf(&mut m, &mut w.lb, w.src.base, 100).unwrap();
    w.tx.send_buf(&mut m, &mut w.lb, w.src.base, 100).unwrap();
    assert_eq!(w.tx.in_flight(), 200);
    assert_eq!(
        w.tx.send_buf(&mut m, &mut w.lb, w.src.base, 100),
        Err(SendError::WindowClosed),
        "200 in flight + 100 exceeds the 250-byte advertised window"
    );
    assert!(!w.tx.can_send(100), "can_send must agree with reserve");
    assert!(w.tx.can_send(50), "a 50-byte segment still fits the window");
    // The receiver ACKs the burst, not the segment: accepting the first
    // of the two queued segments opens nothing yet, accepting the
    // second empties the queue and sends the one ACK for both.
    accept_one(&mut w, &mut m).expect("first data segment").unwrap();
    assert!(w.tx.poll_input(&mut m, &mut w.lb).is_none());
    assert_eq!(w.tx.in_flight(), 200, "the ACK waits for the rest of the burst");
    accept_one(&mut w, &mut m).expect("second data segment").unwrap();
    assert_eq!(w.rx.stats.acks_sent, 1);
    assert!(w.tx.poll_input(&mut m, &mut w.lb).is_none());
    assert_eq!(w.tx.in_flight(), 0, "one cumulative ACK retired both");
    send_burst(&mut w, &mut m, 2, 100);
    assert_eq!(w.tx.in_flight(), 200, "window reopened by the acked bytes");
}

#[test]
fn one_ack_for_a_burst_grows_cwnd_exactly_as_the_per_segment_acks_would() {
    // (ssthresh − initial cwnd): slow start throughout, congestion
    // avoidance throughout, and a burst that crosses from one into the
    // other part-way through a segment.
    for headroom in [u32::MAX / 8, 0, 1000] {
        let (mut burst, mut single) = (world(), world());
        for w in [&mut burst, &mut single] {
            w.tx.snd.ssthresh = w.tx.snd.cwnd + headroom;
            let mut arena = w.space.native_arena();
            let mut m = NativeMem::new(&mut arena);
            send_burst(w, &mut m, 6, 512);
        }
        let (una, wnd, none) = (burst.tx.snd_una(), burst.tx.peer_window(), SackBlocks::default());
        let mut arena = burst.space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        burst.tx.process_ack(&mut m, &mut burst.lb, una.wrapping_add(6 * 512), wnd, &none);
        let mut arena = single.space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        for seg in 1..=6 {
            single.tx.process_ack(&mut m, &mut single.lb, una.wrapping_add(seg * 512), wnd, &none);
        }
        assert_eq!(burst.tx.snd, single.tx.snd, "headroom {headroom}");
        assert_eq!((burst.tx.stats.acks_received, single.tx.stats.acks_received), (1, 6));
        let grown = burst.tx.cwnd() - 2 * MTU as u32;
        match headroom {
            0 => assert_eq!(grown, MTU as u32, "avoidance: one MSS per cwnd of acknowledged bytes"),
            1000 => assert_eq!(grown, 1000, "slow start to ssthresh, then not yet a full cwnd"),
            _ => assert_eq!(grown, 6 * 512, "slow start: the bytes acknowledged"),
        }
    }
}

#[test]
fn mtu_enforced() {
    let mut w = world();
    let mut arena = w.space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    assert!(matches!(
        w.tx.send_buf(&mut m, &mut w.lb, w.src.base, 4000),
        Err(SendError::TooLarge { .. })
    ));
}

#[test]
fn ilp_send_path_matches_non_ilp_bytes_on_wire() {
    // Send the same payload through both paths; the receiver must see
    // identical bytes and valid checksums.
    use ilp_core::{ilp_run, Identity};
    use xdr::stream::OpaqueSource;
    let mut w = world();
    let mut arena = w.space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    let data: Vec<u8> = (0..128).map(|i| (i * 5 + 2) as u8).collect();
    m.bytes_mut(w.src.base, 128).copy_from_slice(&data);

    // ILP: identity transform fused with nothing, checksum from a tap.
    let (extent, mut writer) = w.tx.begin_ilp_send(128).unwrap();
    let mut source = OpaqueSource::new(w.src.base, 128);
    let mut tap = ilp_core::ChecksumTap::new();
    ilp_run(&mut m, &mut source, &mut tap, &mut writer, 1, None).unwrap();
    w.tx.commit_send(&mut m, &mut w.lb, extent, tap.sum());

    let d = w.rx.poll_input(&mut m, &mut w.lb).unwrap();
    assert!(verify_checksum(&mut m, &d), "ILP-built checksum must verify");
    assert_eq!(m.bytes(d.payload_addr, 128), &data[..]);
    let sum = checksum_buf(&mut m, d.payload_addr, d.payload_len);
    w.rx.finish_recv(&mut m, &mut w.lb, &d, sum).unwrap();
    let _ = w.tx.poll_input(&mut m, &mut w.lb);
    assert_eq!(w.tx.in_flight(), 0);
    // Silence "unused" on helper regions used by other tests.
    let _ = w.dst_check;
    let _ = Identity;
}

#[test]
fn slow_start_opens_the_window() {
    let mut w = world();
    let mut arena = w.space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    let mss = MTU as u32;
    assert_eq!(w.tx.cwnd(), 2 * mss, "initial window = 2 MSS");
    // Each acknowledged message grows cwnd by up to one MSS while in
    // slow start.
    let before = w.tx.cwnd();
    for _ in 0..4 {
        m.bytes_mut(w.src.base, 100).copy_from_slice(&[1u8; 100]);
        let _ = transfer(&mut w, &mut m, 100);
    }
    assert!(w.tx.cwnd() > before, "window must grow: {} -> {}", before, w.tx.cwnd());
}

#[test]
fn timeout_collapses_to_slow_start_and_backs_off_rto() {
    let mut w = world();
    w.lb.set_faults(FaultPlan { drop_every: 3, ..Default::default() });
    let mut arena = w.space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    // Grow the window first.
    for _ in 0..6 {
        m.bytes_mut(w.src.base, 200).copy_from_slice(&[2u8; 200]);
        if w.tx.send_buf(&mut m, &mut w.lb, w.src.base, 200).is_ok() {
            while let Some(d) = w.rx.poll_input(&mut m, &mut w.lb) {
                let sum = checksum_buf(&mut m, d.payload_addr, d.payload_len);
                let _ = w.rx.finish_recv(&mut m, &mut w.lb, &d, sum);
            }
            let _ = w.tx.poll_input(&mut m, &mut w.lb);
        }
    }
    let rto_before = w.tx.rto();
    let cwnd_before = w.tx.cwnd();
    // Force an unacknowledged segment and run the clock past RTO.
    m.bytes_mut(w.src.base, 200).copy_from_slice(&[3u8; 200]);
    // Swallow everything so nothing gets through.
    w.lb.set_faults(FaultPlan { drop_every: 1, ..Default::default() });
    w.tx.send_buf(&mut m, &mut w.lb, w.src.base, 200).unwrap();
    for _ in 0..rto_before + 2 {
        w.tx.tick(&mut m, &mut w.lb);
    }
    assert!(w.tx.stats.retransmits > 0, "RTO must have fired");
    assert_eq!(w.tx.cwnd(), MTU as u32, "timeout collapses cwnd to one MSS");
    assert!(w.tx.rto() > rto_before || w.tx.rto() == 16 * INITIAL_RTO, "RTO backs off");
    let _ = cwnd_before;
}

#[test]
fn rtt_estimator_converges_and_karn_skips_retransmits() {
    let mut w = world();
    let mut arena = w.space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    assert!(w.tx.srtt_ticks().is_none());
    // Loop-back delivers within the same tick: samples are ~0–1 ticks.
    for _ in 0..5 {
        m.bytes_mut(w.src.base, 64).copy_from_slice(&[4u8; 64]);
        let _ = transfer(&mut w, &mut m, 64);
        w.tx.tick(&mut m, &mut w.lb);
    }
    let srtt = w.tx.srtt_ticks().expect("estimator has samples");
    assert!(srtt < 4.0, "loop-back RTT must be small, got {srtt}");
    assert!(w.tx.rto() >= 2, "RTO floor");
}

#[test]
fn stale_acks_leave_cwnd_untouched() {
    let mut w = world();
    let mut arena = w.space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    m.bytes_mut(w.src.base, 100).copy_from_slice(&[5u8; 100]);
    let _ = transfer(&mut w, &mut m, 100);
    let cwnd = w.tx.cwnd();
    let una = w.tx.snd_una();
    let wnd = w.tx.peer_window();
    let none = SackBlocks::default();
    // An already-ACKed sequence, and an ACK beyond snd_nxt.
    for stale in [una.wrapping_sub(100), una.wrapping_add(1)] {
        w.tx.process_ack(&mut m, &mut w.lb, stale, wnd, &none);
        assert_eq!(w.tx.cwnd(), cwnd, "stale ACK {stale:#x} must not grow cwnd");
        assert_eq!(w.tx.snd_una(), una, "stale ACK {stale:#x} must not move snd_una");
    }
}

#[test]
fn rto_floor_and_cap_are_unified() {
    // The historical bounds: floor 2 ticks, cap 16 × the initial RTO.
    assert_eq!(INITIAL_RTO, 8);
    assert_eq!([0, 2, INITIAL_RTO, 128].map(send::clamp_rto), [2, 2, INITIAL_RTO, 128]);
    assert_eq!(send::clamp_rto(1_000), 128);
}

#[test]
fn buffer_full_surfaces_as_delay_signal() {
    let mut w = world();
    // Tiny ring: 2 segments of 100 fill it.
    let mut space = AddressSpace::new();
    let mut lb = Loopback::new(&mut space);
    let cfg = UtcpConfig {
        local_port: 1,
        peer_port: 2,
        ring_capacity: 256,
        ..Default::default()
    };
    let mut tx = Connection::new(&mut space, &mut lb, cfg, 0);
    let src = space.alloc("src", 512, 8);
    let mut arena = space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    tx.send_buf(&mut m, &mut lb, src.base, 100).unwrap();
    tx.send_buf(&mut m, &mut lb, src.base, 100).unwrap();
    assert!(!tx.can_send(100));
    assert_eq!(tx.send_buf(&mut m, &mut lb, src.base, 100), Err(SendError::BufferFull));
    let _ = &mut w;
}

/// What a connection asked of its kernel part: a send of so many
/// payload bytes, or a flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KernelCall {
    Send(usize),
    Flush,
}

/// The loop-back, logging every send and flush asked of it.
struct Logged<'a> {
    lb: &'a mut Loopback,
    log: Vec<KernelCall>,
}

impl KernelPart for Logged<'_> {
    fn register(&mut self, port: u16) -> EndpointId {
        self.lb.register(port)
    }
    #[allow(clippy::too_many_arguments)]
    fn send<M: Mem>(&mut self, m: &mut M, src: u32, dst: u32, port: u16, hdr: usize, payload: usize, len: usize) {
        self.log.push(KernelCall::Send(len));
        self.lb.send(m, src, dst, port, hdr, payload, len);
    }
    fn recv_into<M: Mem>(&mut self, m: &mut M, id: EndpointId) -> Option<crate::kernelpart::Datagram> {
        self.lb.recv_into(m, id)
    }
    fn flush(&mut self) {
        self.log.push(KernelCall::Flush);
    }
    fn pending(&self, id: EndpointId) -> usize {
        self.lb.pending(id)
    }
    fn counters(&self) -> crate::backend::KernelCounters {
        self.lb.counters()
    }
}

/// A pair opened by the three-way handshake over a `Logged` loop-back
/// (16 KiB send ring), its arena, and what the open logged.
fn opened_pair() -> (World, Vec<u8>, Vec<KernelCall>) {
    let mut space = AddressSpace::new();
    let mut lb = Loopback::new(&mut space);
    let cfg = UtcpConfig { local_port: 1000, peer_port: 2000, ..Default::default() };
    let mut tx = Connection::new(&mut space, &mut lb, cfg, 1000);
    let mut rx = Connection::new(&mut space, &mut lb, cfg.mirror(), 5000);
    let src = space.alloc("src", 4096, 8);
    let dst_check = space.alloc("dst_check", 4096, 8);
    let mut arena = space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    let mut k = Logged { lb: &mut lb, log: Vec::new() };
    rx.listen();
    tx.connect(&mut m, &mut k); // SYN
    assert!(rx.poll_input(&mut m, &mut k).is_none()); // SYN-ACK
    assert!(tx.poll_input(&mut m, &mut k).is_none()); // ACK
    assert!(rx.poll_input(&mut m, &mut k).is_none());
    assert_eq!((tx.life.state, rx.life.state), (State::Established, State::Established));
    let log = k.log;
    (World { space, lb, tx, rx, src, dst_check }, arena, log)
}

/// Send `len`-byte segments until one is refused; returns, for each
/// accepted send, whether a flush followed it, and the refusal.
fn flushes_until_refused(w: &mut World, m: &mut NativeMem<'_>, len: usize) -> (Vec<bool>, SendError) {
    let mut k = Logged { lb: &mut w.lb, log: Vec::new() };
    let mut flushed = Vec::new();
    loop {
        if let Err(e) = w.tx.send_buf(m, &mut k, w.src.base, len) {
            assert!(k.log.is_empty(), "a refused send asks nothing of the kernel part");
            return (flushed, e);
        }
        match k.log.drain(..).as_slice() {
            [KernelCall::Send(n)] if *n == len => flushed.push(false),
            [KernelCall::Send(n), KernelCall::Flush] if *n == len => flushed.push(true),
            other => panic!("send {}: {other:?}", flushed.len()),
        }
    }
}

/// `n` accepted sends, only the last of them followed by a flush.
fn last_of(n: usize) -> Vec<bool> {
    (0..n).map(|i| i + 1 == n).collect()
}

#[test]
fn the_send_that_closes_the_peer_window_or_cwnd_flushes_the_kernel_part() {
    // No SYN, SYN-ACK or ACK of the open flushes.
    let (mut w, mut arena, open) = opened_pair();
    assert_eq!(open, [KernelCall::Send(0); 3]);
    let mut m = NativeMem::new(&mut arena);
    // Peer window: four of 250 fill 1 000 bytes.
    w.tx.snd.peer_window = 1000;
    assert_eq!(flushes_until_refused(&mut w, &mut m, 250), (last_of(4), SendError::WindowClosed));
    // Its ACK is bare and flushes nothing.
    let mut k = Logged { lb: &mut w.lb, log: Vec::new() };
    let mut received = 0;
    while let Some(d) = w.rx.poll_input(&mut m, &mut k) {
        let sum = checksum_buf(&mut m, d.payload_addr, d.payload_len);
        received += usize::from(w.rx.finish_recv(&mut m, &mut k, &d, sum).is_ok());
    }
    while w.tx.poll_input(&mut m, &mut k).is_some() {}
    assert_eq!((received, k.log.as_slice()), (4, &[KernelCall::Send(0)][..]), "one ACK for the burst");
    assert_eq!(w.tx.in_flight(), 0);
    // Congestion window: 2 MSS grown by the 1 000 acked bytes holds
    // four segments of 1 000, not five.
    w.tx.snd.peer_window = u16::MAX;
    assert_eq!(w.tx.cwnd(), 2 * MTU as u32 + 1000);
    assert_eq!(flushes_until_refused(&mut w, &mut m, 1000), (last_of(4), SendError::WindowClosed));
    // The RTO retransmission goes out with the window still closed (it
    // collapsed to one MSS): it flushes too.
    let mut k = Logged { lb: &mut w.lb, log: Vec::new() };
    while w.tx.stats.retransmits == 0 {
        w.tx.tick(&mut m, &mut k);
    }
    assert_eq!(k.log, [KernelCall::Send(1000), KernelCall::Flush]);
    // The FIN is bare and flushes nothing.
    k.log.clear();
    w.tx.close(&mut m, &mut k);
    assert_eq!(k.log, [KernelCall::Send(0)]);
}

#[test]
fn the_send_that_fills_the_ring_flushes_the_kernel_part_wrap_waste_included() {
    // Ring-limited: sixteen of 1 024 fill 16 KiB.
    let (mut w, mut arena, _) = opened_pair();
    let mut m = NativeMem::new(&mut arena);
    (w.tx.snd.peer_window, w.tx.snd.cwnd) = (u16::MAX, 1 << 20);
    assert_eq!(flushes_until_refused(&mut w, &mut m, 1024), (last_of(16), SendError::BufferFull));

    // Wrap waste decides: a 500-byte segment and fourteen of 1 000 put
    // the tail at 14 500; acking the 500 leaves 2 384 bytes free. The
    // next 1 000 ends at 15 500, and the one after it would have to skip
    // the 884-byte fragment at the end, which the ring no longer has
    // room for — though 1 384 bytes are free.
    let (mut w, mut arena, _) = opened_pair();
    let mut m = NativeMem::new(&mut arena);
    (w.tx.snd.peer_window, w.tx.snd.cwnd) = (u16::MAX, 1 << 20);
    let mut k = Logged { lb: &mut w.lb, log: Vec::new() };
    w.tx.send_buf(&mut m, &mut k, w.src.base, 500).unwrap();
    for _ in 0..14 {
        w.tx.send_buf(&mut m, &mut k, w.src.base, 1000).unwrap();
    }
    assert!(!k.log.contains(&KernelCall::Flush));
    let ack = w.tx.snd_una().wrapping_add(500);
    w.tx.process_ack(&mut m, &mut k, ack, u16::MAX, &SackBlocks::default());
    assert_eq!(w.tx.ring.free_bytes(), 16 * 1024 - 14_000);
    assert_eq!(flushes_until_refused(&mut w, &mut m, 1000), (last_of(1), SendError::BufferFull));
    assert!(w.tx.can_send(1000), "can_send ignores wrap waste: it would have missed this flush");
}
