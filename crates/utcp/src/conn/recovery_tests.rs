// Loss-recovery tests: fast retransmit, SACK hole filling, and the
// RTO-only reference. Part of `conn::tests` (see `tests.rs`).

#[test]
fn fast_retransmit_recovers_single_drop_without_rto() {
    let mut w = world();
    let mut arena = w.space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    // Drop exactly the first segment, deliver the other three.
    w.lb.set_faults(FaultPlan { drop_every: 1, ..Default::default() });
    m.bytes_mut(w.src.base, 100).copy_from_slice(&[1u8; 100]);
    w.tx.send_buf(&mut m, &mut w.lb, w.src.base, 100).unwrap();
    w.lb.set_faults(FaultPlan::default());
    for i in 2..=4u8 {
        m.bytes_mut(w.src.base, 100).copy_from_slice(&[i; 100]);
        w.tx.send_buf(&mut m, &mut w.lb, w.src.base, 100).unwrap();
    }
    let mut received = Vec::new();
    drain_without_ticks(&mut w, &mut m, &mut received);
    assert_eq!(received.len(), 4, "all four delivered though the clock never ticked");
    for (i, data) in received.iter().enumerate() {
        assert_eq!(data, &vec![i as u8 + 1; 100], "in-order delivery of message {i}");
    }
    assert_eq!(w.tx.stats.fast_retransmits, 1, "exactly the dropped segment was resent");
    assert_eq!(w.tx.stats.retransmits, 1, "no RTO retransmissions rode along");
    assert!(w.tx.stats.sacked_bytes > 0, "the dup ACKs carried SACK blocks");
    assert!(!w.tx.in_recovery(), "the recovery-point ACK closed the episode");
    // Fast recovery halves to ssthresh (≥ 2 MSS) instead of the
    // timeout's collapse to one MSS.
    assert!(w.tx.cwnd() >= 2 * 1536, "halved, not collapsed: cwnd {}", w.tx.cwnd());
}

#[test]
fn sack_fills_multiple_holes_without_rto() {
    let mut w = world();
    let mut arena = w.space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    // Drop segments 1 and 3 of five; 2, 4, 5 arrive and are held.
    let swallow = FaultPlan { drop_every: 1, ..Default::default() };
    for i in 1..=5u8 {
        if i == 1 || i == 3 {
            w.lb.set_faults(swallow);
        } else {
            w.lb.set_faults(FaultPlan::default());
        }
        m.bytes_mut(w.src.base, 100).copy_from_slice(&[i; 100]);
        w.tx.send_buf(&mut m, &mut w.lb, w.src.base, 100).unwrap();
    }
    w.lb.set_faults(FaultPlan::default());
    let mut received = Vec::new();
    drain_without_ticks(&mut w, &mut m, &mut received);
    assert_eq!(received.len(), 5, "both holes filled without the timer");
    for (i, data) in received.iter().enumerate() {
        assert_eq!(data, &vec![i as u8 + 1; 100], "in-order delivery of message {i}");
    }
    assert_eq!(w.tx.stats.fast_retransmits, 2, "one resend per hole");
    assert_eq!(w.tx.stats.retransmits, 2);
    // Three distinct SACK deliveries: [2], then [4], then [4,5]'s
    // extension — 100 fresh bytes each.
    assert_eq!(w.tx.stats.sacked_bytes, 300);
    assert!(!w.tx.in_recovery());
}

#[test]
fn pure_window_update_is_not_a_dup_ack() {
    let mut w = world();
    let mut arena = w.space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    // Swallow one segment so snd_una stays put with data in flight.
    w.lb.set_faults(FaultPlan { drop_every: 1, ..Default::default() });
    w.tx.send_buf(&mut m, &mut w.lb, w.src.base, 100).unwrap();
    let una = w.tx.snd_una();
    let none = SackBlocks::default();
    // Same ack, changing window: pure window updates, not dup ACKs.
    for wnd in [4000u16, 5000, 6000] {
        w.tx.process_ack(&mut m, &mut w.lb, una, wnd, &none);
    }
    assert_eq!(w.tx.dup_acks(), 0, "window updates must not count toward the threshold");
    assert_eq!(w.tx.stats.fast_retransmits, 0);
    // Same ack, same window: true duplicates.
    for _ in 0..3 {
        w.tx.process_ack(&mut m, &mut w.lb, una, 6000, &none);
    }
    assert_eq!(w.tx.stats.fast_retransmits, 1, "the third true dup ACK arms fast retransmit");
    assert!(w.tx.in_recovery());
}

#[test]
fn loss_recovery_disabled_is_rto_only() {
    let mut space = AddressSpace::new();
    let mut lb = Loopback::new(&mut space);
    let tx_cfg = UtcpConfig {
        local_port: 1000,
        peer_port: 2000,
        loss_recovery: false,
        ..Default::default()
    };
    let (mut tx, mut rx) = Connection::pair(&mut space, &mut lb, tx_cfg, 1000, 5000);
    let src = space.alloc("src", 512, 8);
    let mut arena = space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    // Drop the first of four segments.
    lb.set_faults(FaultPlan { drop_every: 1, ..Default::default() });
    m.bytes_mut(src.base, 100).copy_from_slice(&[1u8; 100]);
    tx.send_buf(&mut m, &mut lb, src.base, 100).unwrap();
    lb.set_faults(FaultPlan::default());
    for i in 2..=4u8 {
        m.bytes_mut(src.base, 100).copy_from_slice(&[i; 100]);
        tx.send_buf(&mut m, &mut lb, src.base, 100).unwrap();
    }
    // Without ticks nothing recovers: dup ACKs are ignored.
    for _ in 0..10 {
        while let Some(d) = rx.poll_input(&mut m, &mut lb) {
            let sum = checksum_buf(&mut m, d.payload_addr, d.payload_len);
            let _ = rx.finish_recv(&mut m, &mut lb, &d, sum);
        }
        while tx.poll_input(&mut m, &mut lb).is_some() {}
    }
    assert_eq!(tx.stats.fast_retransmits, 0, "the baseline never fast-retransmits");
    assert!(tx.in_flight() > 0, "stalled until the timer fires");
    // The timer eventually recovers the stream the slow way.
    let mut drained = false;
    for _ in 0..2_000 {
        tx.tick(&mut m, &mut lb);
        while let Some(d) = rx.poll_input(&mut m, &mut lb) {
            let sum = checksum_buf(&mut m, d.payload_addr, d.payload_len);
            let _ = rx.finish_recv(&mut m, &mut lb, &d, sum);
        }
        while tx.poll_input(&mut m, &mut lb).is_some() {}
        if tx.in_flight() == 0 {
            drained = true;
            break;
        }
    }
    assert!(drained, "RTO recovery must eventually drain the flight");
    assert_eq!(rx.stats.accepted, 4);
    assert!(tx.stats.retransmits > 0);
    assert_eq!(tx.stats.fast_retransmits, 0);
}
