// Receive-sequence tests: admission, the final-stage verdict, data
// after FIN. Part of `conn::tests` (see `tests.rs`).

#[test]
fn corrupted_payload_rejected_without_state_change() {
    let mut w = world();
    let mut arena = w.space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    m.bytes_mut(w.src.base, 64).copy_from_slice(&[7u8; 64]);
    w.tx.send_buf(&mut m, &mut w.lb, w.src.base, 64).unwrap();
    let d = w.rx.poll_input(&mut m, &mut w.lb).unwrap();
    // Corrupt one staged byte after the system copy.
    let b = m.read_u8(d.payload_addr + 10);
    m.write_u8(d.payload_addr + 10, b ^ 0xFF);
    assert!(!verify_checksum(&mut m, &d));
    let rcv_before = w.rx.rcv.nxt;
    let sum = checksum_buf(&mut m, d.payload_addr, d.payload_len);
    let verdict = w.rx.finish_recv(&mut m, &mut w.lb, &d, sum);
    assert!(matches!(verdict, Err(Reject::BadChecksum { .. })));
    assert_eq!(w.rx.rcv.nxt, rcv_before, "reject must not advance rcv_nxt");
    assert_eq!(w.rx.stats.rejected, 1);
}

/// A real pure ACK waiting in the sender's queue, and the arena it is
/// in. Bare: the receiver accepted 256 bytes and ACKed them, and 768
/// more are in flight. With SACK: the first of two 100-byte segments was
/// dropped, and the receiver ACKs the second with one SACK block.
fn queued_pure_ack(sack: bool) -> (World, Vec<u8>, crate::kernelpart::Datagram) {
    let mut w = world();
    let mut arena = w.space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    if sack {
        w.lb.set_faults(FaultPlan { drop_every: 1, ..Default::default() });
        w.tx.send_buf(&mut m, &mut w.lb, w.src.base, 100).unwrap();
        w.lb.set_faults(FaultPlan::default());
        w.tx.send_buf(&mut m, &mut w.lb, w.src.base, 100).unwrap();
        assert_eq!(accept_one(&mut w, &mut m), Some(Err(Reject::Malformed("out-of-order segment"))));
    } else {
        w.tx.send_buf(&mut m, &mut w.lb, w.src.base, 256).unwrap();
        assert_eq!(accept_one(&mut w, &mut m), Some(Ok(())));
        w.tx.send_buf(&mut m, &mut w.lb, w.src.at(256), 768).unwrap();
    }
    let ack = w.lb.peek(w.tx.endpoint()).expect("the ACK waits for the sender");
    let tcp_len = TCP_HEADER_LEN + if sack { 12 } else { 0 };
    assert_eq!(ack.len, IP_HEADER_LEN + tcp_len, "a pure ACK: header and options only");
    (w, arena, ack)
}

/// The receiver's FIN|ACK (`close`) or RST (`abort`) waiting in the
/// sender's queue, and the arena it is in: a bare header either way.
fn queued_close(rst: bool) -> (World, Vec<u8>, crate::kernelpart::Datagram) {
    let mut w = world();
    let mut arena = w.space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    if rst {
        w.rx.abort(&mut m, &mut w.lb);
    } else {
        w.rx.close(&mut m, &mut w.lb);
    }
    let seg = w.lb.peek(w.tx.endpoint()).expect("the segment waits for the sender");
    assert_eq!(seg.len, IP_HEADER_LEN + TCP_HEADER_LEN, "a bare header");
    (w, arena, seg)
}

/// Every segment without payload is verified before dispatch: no
/// single-bit flip of a pure ACK (bare or SACK-bearing), a FIN|ACK or a
/// RST moves any part of the connection or a counter but `rejected`.
#[test]
fn every_single_bit_flip_of_a_pure_ack_is_rejected_and_moves_nothing() {
    let state = |c: &Connection| {
        let stats = ConnStats { rejected: 0, ..c.stats };
        (c.snd.clone(), c.rcv.clone(), c.rec.clone(), c.life.clone(), stats)
    };
    type Queued = fn() -> (World, Vec<u8>, crate::kernelpart::Datagram);
    let cases: [(&str, Queued); 4] = [
        ("bare ACK", || queued_pure_ack(false)),
        ("SACK ACK", || queued_pure_ack(true)),
        ("FIN|ACK", || queued_close(false)),
        ("RST", || queued_close(true)),
    ];
    for (what, queued) in cases {
        // Unflipped, the segment moves the sender: the case is live.
        let (mut w, mut arena, _) = queued();
        let mut m = NativeMem::new(&mut arena);
        let before = state(&w.tx);
        assert!(w.tx.poll_input(&mut m, &mut w.lb).is_none());
        assert_ne!(state(&w.tx), before, "{what}: the untouched segment moves the sender");
        // Every single-bit flip of its TCP header and options. Bit 9 of
        // the bare ACK's ack field, unverified, once released 512 bytes
        // the receiver had never acknowledged.
        let (_, _, seg) = queued();
        for bit in 0..8 * (seg.len - IP_HEADER_LEN) {
            let (mut w, mut arena, seg) = queued();
            let mut m = NativeMem::new(&mut arena);
            let at = seg.addr + IP_HEADER_LEN + bit / 8;
            let flipped = m.read_u8(at) ^ (0x80 >> (bit % 8));
            m.write_u8(at, flipped);
            let (before, rejected) = (state(&w.tx), w.tx.stats.rejected);
            assert!(w.tx.poll_input(&mut m, &mut w.lb).is_none(), "{what}, bit {bit}: delivered");
            assert_eq!(state(&w.tx), before, "{what}, bit {bit}: the sender moved");
            assert_eq!(w.tx.stats.rejected, rejected + 1, "{what}, bit {bit}: not rejected once");
        }
    }
}

/// A segment without payload and without ACK, SYN, FIN or RST asks for
/// nothing. Even with a valid checksum it is rejected in the poll: handed
/// on as an empty delivery, the final stage would book it accepted and
/// ACK it.
#[test]
fn a_verified_segment_with_no_payload_and_no_control_flag_is_rejected() {
    let (mut w, mut arena, ack) = queued_pure_ack(false);
    let mut m = NativeMem::new(&mut arena);
    let hdr = TcpHeader::at(ack.addr + IP_HEADER_LEN);
    m.write_u8(hdr.addr() + 13, 0); // the flags byte
    hdr.set_checksum(&mut m, 0);
    let pseudo = PseudoHeader {
        src: w.tx.cfg.peer_ip,
        dst: w.tx.cfg.local_ip,
        protocol: PROTO_TCP,
        tcp_len: TCP_HEADER_LEN as u16,
    };
    let csum = hdr.segment_checksum(&mut m, pseudo, InetChecksum::new());
    hdr.set_checksum(&mut m, csum);
    let (before, rcv_nxt) = (w.tx.stats, w.tx.rcv_nxt());
    // Drive whatever surfaces through the final stage, as a receiver would.
    let mut delivered = 0;
    while let Some(d) = w.tx.poll_input(&mut m, &mut w.lb) {
        delivered += 1;
        let sum = checksum_buf(&mut m, d.payload_addr, d.payload_len);
        let _ = w.tx.finish_recv(&mut m, &mut w.lb, &d, sum);
    }
    let after = (w.tx.stats.accepted, w.tx.stats.acks_sent, w.tx.rcv_nxt());
    assert_eq!(after, (before.accepted, before.acks_sent, rcv_nxt), "a phantom accept");
    assert_eq!((delivered, w.tx.stats.rejected), (0, before.rejected + 1));
}

#[test]
fn duplicate_segment_rejected_but_reacked() {
    let mut w = world();
    w.lb.set_faults(FaultPlan { dup_every: 1, ..Default::default() });
    let mut arena = w.space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    send_burst(&mut w, &mut m, 1, 40);
    // The segment and its duplicate are one burst: the accept leaves
    // its ACK to what is still queued ...
    accept_one(&mut w, &mut m).expect("segment delivered").unwrap();
    assert!(w.rx.owes_ack());
    assert_eq!(w.rx.stats.acks_sent, 0);
    // ... and the duplicate is re-ACKed at once, which settles it.
    let d2 = w.rx.poll_input(&mut m, &mut w.lb).expect("duplicate delivered");
    assert!(!d2.in_order);
    let sum2 = checksum_buf(&mut m, d2.payload_addr, d2.payload_len);
    assert!(w.rx.finish_recv(&mut m, &mut w.lb, &d2, sum2).is_err());
    assert_eq!(w.rx.stats.accepted, 1);
    assert_eq!(w.rx.stats.rejected, 1);
    assert_eq!(w.rx.stats.acks_sent, 1, "one repeat ACK, covering the accept too");
    assert!(!w.rx.owes_ack());
    assert!(w.tx.poll_input(&mut m, &mut w.lb).is_none());
    assert_eq!(w.tx.in_flight(), 0);
}

#[test]
fn a_burst_drained_to_none_is_acked_once() {
    let mut w = world();
    let mut arena = w.space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    send_burst(&mut w, &mut m, 5, 100);
    assert_eq!(w.tx.in_flight(), 500);
    while let Some(verdict) = accept_one(&mut w, &mut m) {
        verdict.unwrap();
    }
    assert_eq!((w.rx.stats.accepted, w.rx.stats.acks_sent), (5, 1), "one ACK per burst");
    assert!(!w.rx.owes_ack());
    // That one ACK is cumulative: a single poll retires the whole flight.
    assert!(w.tx.poll_input(&mut m, &mut w.lb).is_none());
    assert_eq!((w.tx.in_flight(), w.tx.stats.acks_received), (0, 1));
}

#[test]
fn out_of_order_arrivals_ack_at_once_and_three_duplicates_still_fast_retransmit() {
    let mut w = world();
    let mut arena = w.space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    // Segment 2 of six is lost; 1 and 3–6 sit in one burst.
    let swallow = FaultPlan { drop_every: 1, ..Default::default() };
    for i in 1..=6u8 {
        w.lb.set_faults(if i == 2 { swallow } else { FaultPlan::default() });
        m.bytes_mut(w.src.base, 100).fill(i);
        w.tx.send_buf(&mut m, &mut w.lb, w.src.base, 100).unwrap();
    }
    w.lb.set_faults(FaultPlan::default());
    accept_one(&mut w, &mut m).expect("segment 1").unwrap();
    assert_eq!((w.rx.owes_ack(), w.rx.stats.acks_sent), (true, 0));
    // Each arrival past the hole is held and ACKed immediately; the
    // first of those ACKs also carries segment 1's.
    for held in 1..=4u64 {
        assert!(accept_one(&mut w, &mut m).expect("segments 3-6").is_err());
        assert_eq!((w.rx.owes_ack(), w.rx.stats.acks_sent), (false, held));
    }
    // The sender reads one forward ACK, then three duplicates of it.
    while w.tx.poll_input(&mut m, &mut w.lb).is_some() {}
    assert_eq!(w.tx.in_flight(), 500, "segment 1 retired");
    assert_eq!(w.tx.stats.fast_retransmits, 1, "the third duplicate armed fast retransmit");
    assert_eq!(w.tx.stats.retransmits, 1);
    // The resent segment fills the hole; the held four replay behind it.
    let mut received = Vec::new();
    drain_without_ticks(&mut w, &mut m, &mut received);
    assert_eq!((received.len(), w.rx.stats.accepted, w.tx.in_flight()), (5, 6, 0));
}

#[test]
fn an_owed_ack_is_paid_by_tick_close_and_fin_and_forgotten_by_restart() {
    let mut w = world();
    let mut arena = w.space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    // A receiver that accepts one segment of three and stops polling
    // pays on its next tick.
    send_burst(&mut w, &mut m, 3, 100);
    accept_one(&mut w, &mut m).expect("first of three").unwrap();
    assert_eq!((w.rx.owes_ack(), w.rx.stats.acks_sent), (true, 0));
    w.rx.tick(&mut m, &mut w.lb);
    assert_eq!((w.rx.owes_ack(), w.rx.stats.acks_sent), (false, 1));
    assert!(w.tx.poll_input(&mut m, &mut w.lb).is_none());
    assert_eq!(w.tx.in_flight(), 200);
    // The peer's FIN behind the burst: consuming it ACKs everything
    // before it along with the FIN itself.
    w.tx.close(&mut m, &mut w.lb);
    accept_one(&mut w, &mut m).expect("second").unwrap();
    accept_one(&mut w, &mut m).expect("third").unwrap();
    assert_eq!((w.rx.owes_ack(), w.rx.stats.acks_sent), (true, 1), "the FIN is still queued");
    assert!(accept_one(&mut w, &mut m).is_none(), "the FIN is consumed inside the poll");
    assert_eq!((w.rx.owes_ack(), w.rx.stats.acks_sent), (false, 2));
    assert_eq!(w.rx.state(), State::CloseWait);
    assert!(w.tx.poll_input(&mut m, &mut w.lb).is_none());
    assert_eq!((w.tx.in_flight(), w.tx.state()), (0, State::FinWait2));

    // Our own FIN acknowledges like any ACK: closing mid-burst leaves
    // no debt behind.
    let mut w = world();
    let mut arena = w.space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    send_burst(&mut w, &mut m, 2, 100);
    accept_one(&mut w, &mut m).expect("first of two").unwrap();
    assert!(w.rx.owes_ack());
    w.rx.close(&mut m, &mut w.lb);
    assert_eq!((w.rx.owes_ack(), w.rx.stats.acks_sent), (false, 0));
    assert!(w.tx.poll_input(&mut m, &mut w.lb).is_none());
    assert_eq!(w.tx.in_flight(), 100, "the FIN carried the first segment's ACK");

    // A debt does not outlive the incarnation that ran it up.
    w.rx.rcv.ack_owed = true;
    w.rx.rcv.restart();
    assert!(!w.rx.owes_ack());
}

#[test]
fn corrupted_tpdu_rejected_by_checksum_and_recovered_by_retransmission() {
    // FaultPlan::corrupt_every flips a payload bit in the kernel
    // slot. The Internet checksum must reject every corrupted TPDU,
    // the reject must not advance rcv_nxt, and RTO-driven
    // retransmission must still deliver the full stream intact.
    let mut w = world();
    w.lb.set_faults(FaultPlan { corrupt_every: 3, ..Default::default() });
    let mut arena = w.space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    let mut received = Vec::new();
    let mut to_send: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i * 17 + 3; 90]).collect();
    to_send.reverse();
    let mut pending = to_send.pop();
    for _ in 0..600 {
        if let Some(data) = &pending {
            m.bytes_mut(w.src.base, 90).copy_from_slice(data);
            if w.tx.send_buf(&mut m, &mut w.lb, w.src.base, 90).is_ok() {
                pending = to_send.pop();
            }
        }
        while let Some(d) = w.rx.poll_input(&mut m, &mut w.lb) {
            let clean = verify_checksum(&mut m, &d);
            let sum = checksum_buf(&mut m, d.payload_addr, d.payload_len);
            let rcv_before = w.rx.rcv.nxt;
            match w.rx.finish_recv(&mut m, &mut w.lb, &d, sum) {
                Ok(()) => {
                    assert!(clean, "checksum must catch every corrupted TPDU");
                    received.push(m.bytes(d.payload_addr, d.payload_len).to_vec());
                }
                Err(Reject::BadChecksum { .. }) => {
                    assert!(!clean);
                    assert_eq!(w.rx.rcv.nxt, rcv_before, "reject must not advance state");
                }
                Err(_) => {} // duplicate of an already-accepted segment
            }
        }
        let _ = w.tx.poll_input(&mut m, &mut w.lb);
        w.tx.tick(&mut m, &mut w.lb);
        if received.len() == 6 && w.tx.in_flight() == 0 {
            break;
        }
    }
    assert_eq!(received.len(), 6, "all messages delivered despite corruption");
    for (i, data) in received.iter().enumerate() {
        assert_eq!(data, &vec![i as u8 * 17 + 3; 90], "message {i} corrupted");
    }
    assert!(w.lb.corrupted > 0, "fault plan must have fired");
    assert!(w.tx.stats.retransmits > 0, "recovery must go through retransmission");
    assert!(w.rx.stats.rejected > 0, "checksum must have rejected something");
}

#[test]
fn data_after_fin_is_dropped_unless_the_bug_is_injected() {
    let mut w = world();
    let mut arena = w.space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    // Stage the receiver as if the peer's FIN was consumed at 1000.
    w.rx.rcv.fin_rcvd = Some(1000);
    w.rx.rcv.nxt = 1001;
    w.rx.life.state = State::CloseWait;
    m.bytes_mut(w.src.base, 50).copy_from_slice(&[8u8; 50]);
    w.tx.send_buf(&mut m, &mut w.lb, w.src.base, 50).unwrap();
    assert!(w.rx.poll_input(&mut m, &mut w.lb).is_none(), "post-FIN data never surfaces");
    assert_eq!(w.rx.rcv.nxt, 1001, "rcv_nxt stays pinned at fin+1");
    assert_eq!((w.rx.stats.accepted, w.rx.stats.rejected), (0, 1));
    // With the deliberate bug re-injected the same traffic is
    // swallowed — exactly the corruption the lifecycle oracles pin.
    w.rx.inject_accept_after_fin_bug(true);
    w.tx.send_buf(&mut m, &mut w.lb, w.src.base, 50).unwrap();
    assert!(w.rx.poll_input(&mut m, &mut w.lb).is_none());
    assert_eq!(w.rx.stats.accepted, 1, "bug: accepted moved after the FIN");
    assert_ne!(w.rx.rcv.nxt, 1001, "bug: rcv_nxt left fin+1");
}

/// A kernel part that delivers one hand-built datagram — the shape
/// of a socket backend, whose codec admits frames larger than the
/// receive staging buffer.
struct Feed(Option<crate::kernelpart::Datagram>);

impl KernelPart for Feed {
    fn register(&mut self, _port: u16) -> EndpointId {
        unreachable!("the connection registered with the loop-back")
    }
    #[allow(clippy::too_many_arguments)]
    fn send<M: Mem>(&mut self, _: &mut M, _: u32, _: u32, _: u16, _: usize, _: usize, _: usize) {}
    fn recv_into<M: Mem>(
        &mut self,
        _m: &mut M,
        _id: EndpointId,
    ) -> Option<crate::kernelpart::Datagram> {
        self.0.take()
    }
    fn pending(&self, _id: EndpointId) -> usize {
        usize::from(self.0.is_some())
    }
    fn counters(&self) -> crate::backend::KernelCounters {
        crate::backend::KernelCounters::default()
    }
}

#[test]
fn oversized_datagrams_are_refused_before_any_copy() {
    let mut w = world();
    let mut arena = w.space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    let (tcb, ooo, staging) = (w.rx.tcb, w.rx.rcv.hold, w.rx.rcv.staging.len);
    // IP-valid, out-of-order data datagrams of `len` bytes in all.
    let feed = |m: &mut NativeMem<'_>, rx: &mut Connection, len: usize| {
        m.bytes_mut(tcb.base, tcb.len).fill(0xA5);
        m.bytes_mut(ooo.base, 64).fill(0xA5);
        let at = w.src.base;
        Ipv4Header::at(at).build(m, 0x0A00_0001, 0x0A00_0002, len - IP_HEADER_LEN, 1, 0, false, 64);
        let hdr = TcpHeader::at(at + IP_HEADER_LEN);
        hdr.build(m, 1000, 2000, rx.rcv.nxt.wrapping_add(4096), 0, TcpFlags::DATA, 8192);
        let payload = len - IP_HEADER_LEN - TCP_HEADER_LEN;
        let sum = checksum_buf(m, at + IP_HEADER_LEN + TCP_HEADER_LEN, payload);
        let pseudo = PseudoHeader {
            src: 0x0A00_0001,
            dst: 0x0A00_0002,
            protocol: 6,
            tcp_len: (TCP_HEADER_LEN + payload) as u16,
        };
        let csum = hdr.segment_checksum(m, pseudo, sum);
        hdr.set_checksum(m, csum);
        let before = rx.stats.rejected;
        let got = rx.poll_input(m, &mut Feed(Some(crate::kernelpart::Datagram { addr: at, len })));
        assert!(got.is_none(), "a {len}-byte datagram must never surface");
        assert_eq!(rx.stats.rejected, before + 1);
        assert!(m.bytes(tcb.base, tcb.len).iter().all(|&b| b == 0xA5), "TCB overwritten");
        assert!(m.bytes(ooo.base, 64).iter().all(|&b| b == 0xA5), "hold slots overwritten");
    };
    // The largest frame `netback::codec` admits: longer than the
    // whole staging buffer.
    feed(&mut m, &mut w.rx, 2048);
    // Fits staging, but its payload exceeds the MTU-sized hold slot.
    assert!(staging - IP_HEADER_LEN - TCP_HEADER_LEN > MTU);
    feed(&mut m, &mut w.rx, staging);
}
