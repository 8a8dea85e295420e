// Lifecycle tests: close, simultaneous close, half-close, FIN loss,
// abort/RST, TIME_WAIT. Part of `conn::tests` (see `tests.rs`).

#[test]
fn clean_close_walks_the_rfc793_path_to_closed() {
    let mut w = world();
    let mut arena = w.space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    m.bytes_mut(w.src.base, 100).copy_from_slice(&[3u8; 100]);
    transfer(&mut w, &mut m, 100);
    w.tx.close(&mut m, &mut w.lb);
    assert_eq!(w.tx.state(), State::FinWait1);
    assert_eq!(w.tx.fin_sent_seq(), Some(1100), "the FIN sits after the 100 data bytes");
    assert_eq!(w.tx.in_flight(), 1, "the FIN consumes one sequence number");
    while w.rx.poll_input(&mut m, &mut w.lb).is_some() {}
    assert_eq!(w.rx.state(), State::CloseWait, "peer FIN consumed in order");
    assert_eq!(w.rx.fin_rcvd_seq(), Some(1100));
    while w.tx.poll_input(&mut m, &mut w.lb).is_some() {}
    assert_eq!(w.tx.state(), State::FinWait2, "our FIN is acknowledged");
    w.rx.close(&mut m, &mut w.lb);
    assert_eq!(w.rx.state(), State::LastAck);
    while w.tx.poll_input(&mut m, &mut w.lb).is_some() {}
    assert_eq!(w.tx.state(), State::TimeWait);
    while w.rx.poll_input(&mut m, &mut w.lb).is_some() {}
    assert_eq!(w.rx.state(), State::Closed, "LAST_ACK dies on the final ACK");
    // TIME_WAIT holds for the full 2·MSL quiet period, then dies.
    for _ in 0..2 * MSL_TICKS - 1 {
        w.tx.tick(&mut m, &mut w.lb);
    }
    assert_eq!(w.tx.state(), State::TimeWait);
    w.tx.tick(&mut m, &mut w.lb);
    assert_eq!(w.tx.state(), State::Closed);
    assert_eq!(w.tx.time_wait_residency(), u64::from(2 * MSL_TICKS));
    assert_eq!((w.tx.stats.fins_sent, w.tx.stats.fins_received), (1, 1));
    assert_eq!((w.rx.stats.fins_sent, w.rx.stats.fins_received), (1, 1));
    assert_eq!(w.tx.in_flight(), 0);
}

#[test]
fn simultaneous_close_crosses_through_closing() {
    let mut w = world();
    let mut arena = w.space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    w.tx.close(&mut m, &mut w.lb);
    w.rx.close(&mut m, &mut w.lb);
    assert_eq!((w.tx.state(), w.rx.state()), (State::FinWait1, State::FinWait1));
    // The FINs crossed in flight: consuming the peer's FIN while our
    // own is unacked lands in CLOSING, not CLOSE_WAIT.
    while w.tx.poll_input(&mut m, &mut w.lb).is_some() {}
    assert_eq!(w.tx.state(), State::Closing);
    // The peer drains its queue in one go — the crossed FIN (→
    // CLOSING) and then our ACK of its FIN (→ TIME_WAIT).
    while w.rx.poll_input(&mut m, &mut w.lb).is_some() {}
    assert_eq!(w.rx.state(), State::TimeWait);
    while w.tx.poll_input(&mut m, &mut w.lb).is_some() {}
    assert_eq!(w.tx.state(), State::TimeWait);
    assert!(drive_to_closed(&mut w, &mut m, 100), "both quiet periods expire");
}

#[test]
fn half_closed_peer_still_streams_until_its_own_close() {
    let mut w = world();
    let mut arena = w.space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    w.tx.close(&mut m, &mut w.lb);
    while w.rx.poll_input(&mut m, &mut w.lb).is_some() {}
    while w.tx.poll_input(&mut m, &mut w.lb).is_some() {}
    assert_eq!((w.tx.state(), w.rx.state()), (State::FinWait2, State::CloseWait));
    // CLOSE_WAIT may still send; FIN_WAIT_2 still accepts and ACKs.
    for round in 0..3u8 {
        m.bytes_mut(w.src.base, 60).copy_from_slice(&[round; 60]);
        w.rx.send_buf(&mut m, &mut w.lb, w.src.base, 60).unwrap();
        let d = w.tx.poll_input(&mut m, &mut w.lb).expect("data drains into FIN_WAIT_2");
        let sum = checksum_buf(&mut m, d.payload_addr, d.payload_len);
        w.tx.finish_recv(&mut m, &mut w.lb, &d, sum).unwrap();
        while w.rx.poll_input(&mut m, &mut w.lb).is_some() {}
    }
    assert_eq!(w.tx.stats.accepted, 3, "half-closed drain delivered");
    w.rx.close(&mut m, &mut w.lb);
    assert_eq!(w.rx.state(), State::LastAck);
    assert!(drive_to_closed(&mut w, &mut m, 200));
    assert_eq!(w.rx.stats.fins_sent, 1);
}

#[test]
fn lost_fin_is_retransmitted_by_the_timer() {
    let mut w = world();
    let mut arena = w.space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    w.lb.set_faults(FaultPlan { drop_every: 1, ..Default::default() });
    w.tx.close(&mut m, &mut w.lb); // the FIN evaporates
    w.lb.set_faults(FaultPlan::default());
    assert_eq!(w.tx.state(), State::FinWait1);
    assert!(w.rx.poll_input(&mut m, &mut w.lb).is_none());
    assert_eq!(w.rx.state(), State::Established, "peer saw nothing");
    let before = w.tx.stats.retransmits;
    let mut recovered = false;
    for _ in 0..200 {
        w.tx.tick(&mut m, &mut w.lb);
        while w.rx.poll_input(&mut m, &mut w.lb).is_some() {}
        if w.rx.state() == State::CloseWait {
            recovered = true;
            break;
        }
    }
    assert!(recovered, "the retransmitted FIN must land");
    assert!(w.tx.stats.retransmits > before, "the timer re-sent the FIN");
    assert_eq!(w.rx.stats.fins_received, 1);
    while w.tx.poll_input(&mut m, &mut w.lb).is_some() {}
    w.rx.close(&mut m, &mut w.lb);
    assert!(drive_to_closed(&mut w, &mut m, 200));
}

#[test]
fn abort_resets_the_peer_and_dead_connections_answer_with_rst() {
    let mut w = world();
    let mut arena = w.space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    m.bytes_mut(w.src.base, 80).copy_from_slice(&[5u8; 80]);
    w.tx.send_buf(&mut m, &mut w.lb, w.src.base, 80).unwrap();
    w.rx.abort(&mut m, &mut w.lb);
    assert_eq!(w.rx.state(), State::Closed);
    assert_eq!(w.rx.stats.resets_sent, 1);
    // The RST lands on the sender: teardown is total.
    assert!(w.tx.poll_input(&mut m, &mut w.lb).is_none());
    assert_eq!(w.tx.state(), State::Closed);
    assert_eq!(w.tx.stats.resets_received, 1);
    assert_eq!(w.tx.in_flight(), 0, "nothing left to retransmit");
    // The unread data still sits in the dead connection's queue;
    // the closed machine answers it with a RST of its own…
    assert!(w.rx.poll_input(&mut m, &mut w.lb).is_none());
    assert_eq!(w.rx.stats.resets_sent, 2);
    // …which the already-closed sender drops (never RST a RST).
    assert!(w.tx.poll_input(&mut m, &mut w.lb).is_none());
    assert_eq!(w.tx.stats.resets_sent, 0);
    assert_eq!(w.tx.state(), State::Closed);
}

#[test]
fn time_wait_ignores_rst_and_restarts_on_retransmitted_fin() {
    let mut w = world();
    let mut arena = w.space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    w.tx.close(&mut m, &mut w.lb);
    while w.rx.poll_input(&mut m, &mut w.lb).is_some() {}
    while w.tx.poll_input(&mut m, &mut w.lb).is_some() {}
    w.rx.close(&mut m, &mut w.lb);
    // Drop the ACK of the peer's FIN so the peer must retransmit it.
    w.lb.set_faults(FaultPlan { drop_every: 1, ..Default::default() });
    while w.tx.poll_input(&mut m, &mut w.lb).is_some() {}
    w.lb.set_faults(FaultPlan::default());
    assert_eq!((w.tx.state(), w.rx.state()), (State::TimeWait, State::LastAck));
    // Part-way through the quiet period the retransmitted FIN
    // arrives: TIME_WAIT re-ACKs it and restarts the 2·MSL clock.
    for _ in 0..MSL_TICKS {
        w.tx.tick(&mut m, &mut w.lb);
        w.rx.tick(&mut m, &mut w.lb);
    }
    assert_eq!(w.tx.state(), State::TimeWait);
    while w.tx.poll_input(&mut m, &mut w.lb).is_some() {}
    while w.rx.poll_input(&mut m, &mut w.lb).is_some() {}
    assert_eq!(w.rx.state(), State::Closed, "re-ACK releases LAST_ACK");
    // A stray in-window RST must NOT cut the quiet period short.
    w.rx.life.state = State::Established; // puppet the dead peer into a RST
    w.rx.abort(&mut m, &mut w.lb);
    while w.tx.poll_input(&mut m, &mut w.lb).is_some() {}
    assert_eq!(w.tx.state(), State::TimeWait, "TIME_WAIT ignores RSTs");
    assert_eq!(w.tx.stats.resets_received, 0);
    // The restarted quiet period runs its full 2·MSL course.
    for _ in 0..2 * MSL_TICKS - 1 {
        w.tx.tick(&mut m, &mut w.lb);
    }
    assert_eq!(w.tx.state(), State::TimeWait);
    w.tx.tick(&mut m, &mut w.lb);
    assert_eq!(w.tx.state(), State::Closed);
    assert!(
        w.tx.time_wait_residency() > u64::from(2 * MSL_TICKS),
        "the restart accumulated extra residency"
    );
}

#[test]
fn send_after_close_is_a_distinct_permanent_error_in_every_shut_state() {
    let mut w = world();
    let mut arena = w.space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    for state in State::ALL {
        w.tx.life.state = state;
        if state.may_send_data() {
            assert!(w.tx.can_send(64), "{state:?} must allow sends");
            w.tx.send_buf(&mut m, &mut w.lb, w.src.base, 64).unwrap();
        } else {
            assert!(!w.tx.can_send(64), "{state:?} must refuse sends");
            assert_eq!(
                w.tx.send_buf(&mut m, &mut w.lb, w.src.base, 64),
                Err(SendError::Closing),
                "{state:?} must report Closing, not transient back-pressure"
            );
            assert!(matches!(w.tx.begin_ilp_send(64), Err(SendError::Closing)));
        }
    }
}
