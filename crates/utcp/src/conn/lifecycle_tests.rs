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

/// A world whose sender listens; the receiver is the one to connect.
fn listening() -> World {
    let mut w = world();
    w.tx.listen();
    w
}

/// Poll both ends until both are `Established` — the listener, the
/// connector, the listener, then one tick each — and return the ticks
/// it took.
fn open_within(w: &mut World, m: &mut NativeMem<'_>, ticks: u32) -> u32 {
    for t in 0..ticks {
        while w.tx.poll_input(m, &mut w.lb).is_some() {}
        while w.rx.poll_input(m, &mut w.lb).is_some() {}
        while w.tx.poll_input(m, &mut w.lb).is_some() {}
        if (w.tx.state(), w.rx.state()) == (State::Established, State::Established) {
            return t;
        }
        w.tx.tick(m, &mut w.lb);
        w.rx.tick(m, &mut w.lb);
    }
    panic!("no open after {ticks} ticks: {:?} / {:?}", w.tx.state(), w.rx.state());
}

/// Dequeue the datagram waiting at `ep` and flip one bit of its TCP
/// sequence number in the kernel slot.
fn take_flipped(m: &mut NativeMem<'_>, lb: &mut Loopback, ep: EndpointId) -> crate::kernelpart::Datagram {
    let d = KernelPart::recv_into(lb, m, ep).expect("a queued datagram");
    let at = d.addr + IP_HEADER_LEN + 4;
    let b = m.read_u8(at);
    m.write_u8(at, b ^ 0x01);
    d
}

#[test]
fn three_way_handshake_opens_both_ends_one_past_each_iss() {
    let mut w = listening();
    let mut arena = w.space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    assert_eq!(w.tx.state(), State::Listen);
    w.rx.connect(&mut m, &mut w.lb);
    assert_eq!((w.rx.state(), w.rx.snd_nxt()), (State::SynSent, 5001), "the SYN takes one number");
    assert_eq!((w.rx.in_flight(), w.rx.syn_in_flight(), w.rx.ring().buffered_bytes()), (1, 1, 0));
    assert!(w.tx.poll_input(&mut m, &mut w.lb).is_none());
    assert_eq!((w.tx.state(), w.tx.rcv_nxt(), w.tx.syn_in_flight()), (State::SynRcvd, 5001, 1));
    assert!(w.rx.poll_input(&mut m, &mut w.lb).is_none());
    assert_eq!((w.rx.state(), w.rx.rcv_nxt(), w.rx.in_flight()), (State::Established, 1001, 0));
    assert!(w.tx.poll_input(&mut m, &mut w.lb).is_none());
    assert_eq!((w.tx.state(), w.tx.in_flight()), (State::Established, 0));
    // Data starts right behind the SYN.
    m.bytes_mut(w.src.base, 100).fill(7);
    assert_eq!(transfer(&mut w, &mut m, 100), vec![7u8; 100]);
    assert_eq!(w.rx.rcv_nxt(), 1101);
    for c in [&w.tx, &w.rx] {
        assert_eq!((c.stats.retransmits, c.stats.rejected), (0, 0));
    }
}

#[test]
fn a_lost_syn_syn_ack_or_final_ack_is_resent_by_the_rto() {
    for (nth, what) in [(1, "SYN"), (2, "SYN-ACK"), (3, "final ACK")] {
        let mut w = listening();
        w.lb.set_faults(FaultPlan { drop_at: nth, drop_burst: 1, ..Default::default() });
        let mut arena = w.space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        w.rx.connect(&mut m, &mut w.lb);
        let took = open_within(&mut w, &mut m, 100);
        assert_eq!(w.lb.dropped, 1, "{what}");
        assert!(took >= INITIAL_RTO, "{what}: open after {took} ticks, before any RTO");
        assert!(w.tx.stats.retransmits + w.rx.stats.retransmits >= 1, "{what}: the timer resent");
        assert_eq!((w.tx.rcv_nxt(), w.rx.rcv_nxt()), (5001, 1001), "{what}");
        assert_eq!((w.tx.in_flight(), w.rx.in_flight()), (0, 0), "{what}");
        assert_eq!(w.tx.rto(), INITIAL_RTO, "{what}: the data phase starts from the initial RTO");
    }
}

#[test]
fn a_duplicated_syn_or_syn_ack_is_answered_again_with_no_state_change() {
    // The SYN: the repeat draws a second SYN-ACK and leaves SYN_RCVD be.
    let mut w = listening();
    let mut arena = w.space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    w.lb.set_faults(FaultPlan { dup_every: 1, ..Default::default() });
    w.rx.connect(&mut m, &mut w.lb);
    w.lb.set_faults(FaultPlan::default());
    assert!(w.tx.poll_input(&mut m, &mut w.lb).is_none());
    assert_eq!(w.tx.state(), State::SynRcvd);
    assert_eq!(KernelPart::pending(&w.lb, w.rx.endpoint()), 2, "each SYN answered with a SYN-ACK");
    assert_eq!(open_within(&mut w, &mut m, 1), 0);

    // The SYN-ACK: the repeat is re-ACKed and leaves ESTABLISHED be.
    let mut w = listening();
    let mut arena = w.space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    w.rx.connect(&mut m, &mut w.lb);
    w.lb.set_faults(FaultPlan { dup_every: 1, ..Default::default() });
    assert!(w.tx.poll_input(&mut m, &mut w.lb).is_none());
    w.lb.set_faults(FaultPlan::default());
    assert!(w.rx.poll_input(&mut m, &mut w.lb).is_none());
    assert_eq!((w.rx.state(), w.rx.rcv_nxt(), w.rx.stats.acks_sent), (State::Established, 1001, 2));
    assert!(w.tx.poll_input(&mut m, &mut w.lb).is_none());
    assert_eq!((w.tx.state(), w.tx.in_flight()), (State::Established, 0));
    for c in [&w.tx, &w.rx] {
        assert_eq!((c.stats.retransmits, c.stats.rejected), (0, 0));
    }
}

#[test]
fn a_corrupted_syn_or_syn_ack_is_rejected_by_its_checksum() {
    // `Loopback`'s corruptor spares payload-free segments, so the bit is
    // flipped in the kernel slot by hand.
    let mut w = listening();
    let mut arena = w.space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    w.rx.connect(&mut m, &mut w.lb);
    let syn = take_flipped(&mut m, &mut w.lb, w.tx.endpoint());
    assert!(w.tx.poll_input(&mut m, &mut Feed(Some(syn))).is_none());
    assert_eq!((w.tx.state(), w.tx.stats.rejected), (State::Listen, 1));
    for _ in 0..INITIAL_RTO {
        w.rx.tick(&mut m, &mut w.lb);
    }
    assert_eq!(w.rx.stats.retransmits, 1, "the RTO resent the SYN");
    assert!(w.tx.poll_input(&mut m, &mut w.lb).is_none());
    assert_eq!(w.tx.state(), State::SynRcvd);
    let syn_ack = take_flipped(&mut m, &mut w.lb, w.rx.endpoint());
    assert!(w.rx.poll_input(&mut m, &mut Feed(Some(syn_ack))).is_none());
    assert_eq!((w.rx.state(), w.rx.stats.rejected), (State::SynSent, 1));
    open_within(&mut w, &mut m, 100);
}

#[test]
fn a_syn_at_a_closed_connection_is_answered_with_a_rst() {
    let mut w = world();
    let mut arena = w.space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    w.tx.life.state = State::Closed; // a dead port
    w.rx.connect(&mut m, &mut w.lb);
    assert!(w.tx.poll_input(&mut m, &mut w.lb).is_none());
    assert_eq!((w.tx.stats.rejected, w.tx.stats.resets_sent), (1, 1));
    let rst = KernelPart::recv_into(&mut w.lb, &mut m, w.rx.endpoint()).expect("the answer");
    assert_eq!(TcpHeader::at(rst.addr + IP_HEADER_LEN).flags(&mut m), TcpFlags::RST);
}

#[test]
fn close_and_abort_in_syn_sent_drop_the_open_silently() {
    for abort in [false, true] {
        let mut w = world();
        let mut arena = w.space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        w.rx.connect(&mut m, &mut w.lb);
        if abort {
            w.rx.abort(&mut m, &mut w.lb);
        } else {
            w.rx.close(&mut m, &mut w.lb);
        }
        assert_eq!((w.rx.state(), w.rx.in_flight(), w.rx.syn_in_flight()), (State::Closed, 0, 0));
        assert_eq!(w.rx.stats.resets_sent, 0, "abort={abort}: nobody to reset yet");
        for _ in 0..4 * MSL_TICKS {
            w.rx.tick(&mut m, &mut w.lb);
        }
        assert_eq!(w.rx.stats.retransmits, 0, "abort={abort}: the SYN is not resent");
    }
}

#[test]
fn a_syn_ack_for_an_earlier_syn_is_rejected() {
    let mut w = listening();
    let mut arena = w.space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    w.rx.connect(&mut m, &mut w.lb);
    assert!(w.tx.poll_input(&mut m, &mut w.lb).is_none());
    let stale = KernelPart::recv_into(&mut w.lb, &mut m, w.rx.endpoint()).expect("the SYN-ACK");
    // The connector gives up and opens again at another ISS; the answer
    // to its first SYN arrives late.
    w.rx.abort(&mut m, &mut w.lb);
    w.rx.reopen(&mut w.lb, 9_000);
    w.rx.connect(&mut m, &mut w.lb);
    assert!(w.rx.poll_input(&mut m, &mut Feed(Some(stale))).is_none());
    assert_eq!((w.rx.state(), w.rx.stats.rejected, w.rx.stats.acks_sent), (State::SynSent, 1, 0));
}

#[test]
fn a_data_segment_at_a_listener_is_rejected() {
    let mut w = listening();
    let mut arena = w.space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    m.bytes_mut(w.src.base, 64).fill(9);
    w.rx.send_buf(&mut m, &mut w.lb, w.src.base, 64).unwrap();
    assert!(w.tx.poll_input(&mut m, &mut w.lb).is_none(), "nothing surfaces before the open");
    assert_eq!((w.tx.state(), w.tx.rcv_nxt(), w.tx.stats.rejected), (State::Listen, 5000, 1));
}

/// Fuzz: bytes we did not write, at a listener and at a connector —
/// every truncation and single-bit flip of a real SYN and SYN-ACK, and
/// random bytes at every length 0…64, bare and behind an IP header that
/// verifies. Nothing panics, and only the untouched original moves
/// either machine.
#[test]
fn fuzz_the_open_moves_the_machine_only_on_the_untouched_segment() {
    // A real SYN and SYN-ACK, as the listener and the connector staged
    // them, then a fresh pair of the same two to offer bytes to.
    let (syn_bytes, syn_ack) = {
        let mut w = listening();
        let mut arena = w.space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        w.rx.connect(&mut m, &mut w.lb);
        let mut staged = |c: &mut Connection| {
            assert!(c.poll_input(&mut m, &mut w.lb).is_none());
            m.bytes(c.recv_region().base, IP_HEADER_LEN + TCP_HEADER_LEN).to_vec()
        };
        (staged(&mut w.tx), staged(&mut w.rx))
    };
    let mut w = listening();
    let mut arena = w.space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    w.rx.connect(&mut m, &mut w.lb);

    // Lay `bytes` against the end of the last region and offer them to
    // both machines; returns their states after.
    let end = w.dst_check.end();
    let mut offer = |m: &mut NativeMem<'_>, bytes: &[u8]| {
        let d = crate::kernelpart::Datagram { addr: end - bytes.len(), len: bytes.len() };
        m.bytes_mut(d.addr, d.len).copy_from_slice(bytes);
        assert!(w.tx.poll_input(m, &mut Feed(Some(d))).is_none());
        assert!(w.rx.poll_input(m, &mut Feed(Some(d))).is_none());
        (w.tx.state(), w.rx.state())
    };
    let still = (State::Listen, State::SynSent);
    for original in [&syn_bytes, &syn_ack] {
        for cut in 0..original.len() {
            assert_eq!(offer(&mut m, &original[..cut]), still, "cut at {cut}");
        }
        for bit in 0..8 * original.len() {
            let mut flipped = original.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(offer(&mut m, &flipped), still, "bit {bit}");
        }
    }
    let mut rng = crate::rng::XorShift64::new(0x5_1A_CC);
    for round in 0..4_000usize {
        let len = round % 65;
        let mut bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        if len >= IP_HEADER_LEN && rng.below(2) == 0 {
            let dst = [0x0A00_0001, 0x0A00_0002][rng.index(2)];
            let ip = w.src.base;
            m.bytes_mut(ip, len).copy_from_slice(&bytes);
            Ipv4Header::at(ip).build(&mut m, 0x0A00_0007, dst, len - IP_HEADER_LEN, 1, 0, false, 64);
            bytes[..IP_HEADER_LEN].copy_from_slice(m.bytes(ip, IP_HEADER_LEN));
        }
        assert_eq!(offer(&mut m, &bytes), still, "random bytes, length {len}");
    }
    assert_eq!(offer(&mut m, &syn_bytes).0, State::SynRcvd, "the untouched SYN opens the listener");
    assert_eq!(offer(&mut m, &syn_ack).1, State::Established, "the untouched SYN-ACK opens the connector");
}
