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
    assert_eq!(initial, 2 * w.tx.cfg.mtu as u32, "slow start begins at 2 MSS");
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
        let grown = burst.tx.cwnd() - 2 * 1536;
        match headroom {
            0 => assert_eq!(grown, 1536, "avoidance: one MSS per cwnd of acknowledged bytes"),
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
    assert!(w.rx.verify_checksum(&mut m, &d), "ILP-built checksum must verify");
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
    let mss = 1536u32;
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
    assert_eq!(w.tx.cwnd(), 1536, "timeout collapses cwnd to one MSS");
    assert!(w.tx.rto() > rto_before || w.tx.rto() == 16 * 8, "RTO backs off");
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
    let mut space = AddressSpace::new();
    let mut lb = Loopback::new(&mut space);
    let mk = |space: &mut AddressSpace, lb: &mut Loopback, port: u16, ticks: u32| {
        let cfg = UtcpConfig {
            local_port: port,
            peer_port: port + 1,
            rto_ticks: ticks,
            ..Default::default()
        };
        Connection::new(space, lb, cfg, 0)
    };
    // Default config keeps the historical bounds (floor 2, cap 128).
    let c = mk(&mut space, &mut lb, 10, 8);
    assert_eq!(c.rto_bounds(), (2, 128));
    assert_eq!(c.clamp_rto(0), 2);
    assert_eq!(c.clamp_rto(1_000), 128);
    // Tiny initial RTO: the floor holds, the cap stays above it.
    let c = mk(&mut space, &mut lb, 20, 1);
    assert_eq!(c.rto_bounds(), (2, 16));
    // Degenerate zero: both bounds collapse onto the 2-tick floor.
    let c = mk(&mut space, &mut lb, 30, 0);
    assert_eq!(c.rto_bounds(), (2, 2));
    assert_eq!(c.clamp_rto(77), 2);
    // Large initial RTO: the estimator can no longer undercut it
    // down to a hardcoded 2 ticks.
    let c = mk(&mut space, &mut lb, 40, 100);
    assert_eq!(c.rto_bounds(), (25, 1600));
    assert_eq!(c.clamp_rto(1), 25);
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
