//! `conn::tests`: one module, one `World` fixture, assembled from a
//! file per part (`send_tests.rs` beside `send.rs`, …) so each part's
//! tests sit next to it while every test keeps the `conn::tests::` name
//! the tier-1 floor knows it by.

use super::*;
use crate::ip::Ipv4Header;
use crate::kernelpart::{FaultPlan, Loopback};
use crate::wire::SackBlocks;
use checksum::internet::checksum_buf;
use ilp_core::Reject;
use memsim::NativeMem;

include!("send_tests.rs");
include!("recv_tests.rs");
include!("recovery_tests.rs");
include!("lifecycle_tests.rs");

struct World {
    space: AddressSpace,
    lb: Loopback,
    tx: Connection,
    rx: Connection,
    src: Region,
    dst_check: Region,
}

fn world() -> World {
    world_at(1000, 5000)
}

fn world_at(tx_iss: u32, rx_iss: u32) -> World {
    let mut space = AddressSpace::new();
    let mut lb = Loopback::new(&mut space);
    let tx_cfg = UtcpConfig { local_port: 1000, peer_port: 2000, ..Default::default() };
    let (tx, rx) = Connection::pair(&mut space, &mut lb, tx_cfg, tx_iss, rx_iss);
    let src = space.alloc("src", 4096, 8);
    let dst_check = space.alloc("dst_check", 4096, 8);
    World { space, lb, tx, rx, src, dst_check }
}

/// Drive send/receive/ACK to quiescence without ever advancing the
/// clock — any recovery that completes in here was duplicate-ACK
/// driven, not RTO.
fn drain_without_ticks(w: &mut World, m: &mut NativeMem<'_>, received: &mut Vec<Vec<u8>>) {
    for _ in 0..50 {
        while let Some(d) = w.rx.poll_input(m, &mut w.lb) {
            let sum = checksum_buf(m, d.payload_addr, d.payload_len);
            if w.rx.finish_recv(m, &mut w.lb, &d, sum).is_ok() {
                received.push(m.bytes(d.payload_addr, d.payload_len).to_vec());
            }
        }
        while w.tx.poll_input(m, &mut w.lb).is_some() {}
        if w.tx.in_flight() == 0 {
            break;
        }
    }
}

/// Poll the receiver once and run what it staged through the final
/// stage; `None` when the poll found the queue empty.
fn accept_one(w: &mut World, m: &mut NativeMem<'_>) -> Option<Result<(), Reject>> {
    let d = w.rx.poll_input(m, &mut w.lb)?;
    let sum = checksum_buf(m, d.payload_addr, d.payload_len);
    Some(w.rx.finish_recv(m, &mut w.lb, &d, sum))
}

/// Hand `n` segments of `len` bytes to the transport back to back.
fn send_burst(w: &mut World, m: &mut NativeMem<'_>, n: usize, len: usize) {
    for i in 0..n {
        m.bytes_mut(w.src.base, len).fill(i as u8 + 1);
        w.tx.send_buf(m, &mut w.lb, w.src.base, len).unwrap();
    }
}

/// Drive one message through: send, receive, verify, ack.
fn transfer(w: &mut World, m: &mut NativeMem<'_>, len: usize) -> Vec<u8> {
    w.tx.send_buf(m, &mut w.lb, w.src.base, len).unwrap();
    let d = w.rx.poll_input(m, &mut w.lb).expect("data segment");
    assert!(w.rx.verify_checksum(m, &d));
    let payload = m.bytes(d.payload_addr, d.payload_len).to_vec();
    let sum = checksum_buf(m, d.payload_addr, d.payload_len);
    w.rx.finish_recv(m, &mut w.lb, &d, sum).unwrap();
    // Sender consumes the ACK.
    assert!(w.tx.poll_input(m, &mut w.lb).is_none());
    payload
}

/// Poll and tick both ends until both lifecycle machines reach
/// `Closed` (or the round budget runs out).
fn drive_to_closed(w: &mut World, m: &mut NativeMem<'_>, rounds: usize) -> bool {
    for _ in 0..rounds {
        if w.tx.state() == State::Closed && w.rx.state() == State::Closed {
            return true;
        }
        while w.rx.poll_input(m, &mut w.lb).is_some() {}
        while w.tx.poll_input(m, &mut w.lb).is_some() {}
        w.tx.tick(m, &mut w.lb);
        w.rx.tick(m, &mut w.lb);
    }
    w.tx.state() == State::Closed && w.rx.state() == State::Closed
}

#[test]
fn single_message_roundtrip() {
    let mut w = world();
    let mut arena = w.space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    let data: Vec<u8> = (0..200).map(|i| (i * 3 + 1) as u8).collect();
    m.bytes_mut(w.src.base, 200).copy_from_slice(&data);
    let got = transfer(&mut w, &mut m, 200);
    assert_eq!(got, data);
    assert_eq!(w.tx.in_flight(), 0, "ACK freed the ring");
    assert_eq!(w.tx.stats.data_sent, 1);
    assert_eq!(w.rx.stats.accepted, 1);
}

#[test]
fn many_messages_in_sequence() {
    let mut w = world();
    let mut arena = w.space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    for round in 0..20u8 {
        let data = vec![round; 100];
        m.bytes_mut(w.src.base, 100).copy_from_slice(&data);
        assert_eq!(transfer(&mut w, &mut m, 100), data);
    }
    assert_eq!(w.rx.stats.accepted, 20);
    assert_eq!(w.tx.stats.retransmits, 0);
}

#[test]
fn reopen_runs_a_fresh_transfer_over_the_same_regions() {
    let mut w = world();
    let mut arena = w.space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    m.bytes_mut(w.src.base, 100).copy_from_slice(&[1u8; 100]);
    transfer(&mut w, &mut m, 100);
    w.tx.close(&mut m, &mut w.lb);
    while w.rx.poll_input(&mut m, &mut w.lb).is_some() {}
    while w.tx.poll_input(&mut m, &mut w.lb).is_some() {}
    w.rx.close(&mut m, &mut w.lb);
    assert!(drive_to_closed(&mut w, &mut m, 200));
    // The arena is long since fixed: reopen must not allocate.
    w.tx.reopen(&mut w.lb, 71_000);
    w.rx.reopen(&mut w.lb, 95_000);
    w.tx.set_peer_iss(95_000);
    w.rx.set_peer_iss(71_000);
    assert_eq!((w.tx.state(), w.rx.state()), (State::Established, State::Established));
    m.bytes_mut(w.src.base, 100).copy_from_slice(&[2u8; 100]);
    let got = transfer(&mut w, &mut m, 100);
    assert_eq!(got, vec![2u8; 100]);
    assert_eq!(w.rx.stats.accepted, 2, "stats stay cumulative across incarnations");
    assert_eq!(w.rx.stats.fins_sent, 1);
    assert_eq!(w.tx.fin_sent_seq(), None, "teardown state reset");
}

#[test]
fn unregistered_port_makes_new_arrivals_unroutable() {
    let mut w = world();
    let mut arena = w.space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    m.bytes_mut(w.src.base, 40).copy_from_slice(&[4u8; 40]);
    w.tx.send_buf(&mut m, &mut w.lb, w.src.base, 40).unwrap();
    KernelPart::unregister(&mut w.lb, 2000);
    // The already-queued datagram stays readable through the old
    // endpoint handle…
    let d = w.rx.poll_input(&mut m, &mut w.lb).expect("queued before release");
    assert!(w.rx.verify_checksum(&mut m, &d));
    let sum = checksum_buf(&mut m, d.payload_addr, d.payload_len);
    w.rx.finish_recv(&mut m, &mut w.lb, &d, sum).unwrap();
    // …but a fresh arrival has no route.
    m.bytes_mut(w.src.base, 40).copy_from_slice(&[6u8; 40]);
    w.tx.send_buf(&mut m, &mut w.lb, w.src.base, 40).unwrap();
    assert!(w.rx.poll_input(&mut m, &mut w.lb).is_none());
    assert_eq!(KernelPart::counters(&w.lb).unroutable, 1);
}

/// The property three hand-kept field lists could silently lose: after
/// transfer → close → TIME_WAIT → `reopen(iss)`, every part equals that
/// of a connection freshly constructed with the same `iss` and ticked
/// to the same clock. (Regions, `ticks`, cumulative stats and TIME_WAIT
/// residency, `obs_id` and the sampling rate are the survivors.)
#[test]
fn reopen_leaves_every_part_as_new_builds_it() {
    let mut w = world();
    let mut arena = w.space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    // Leave marks on every part: an RTT sample and an open window, a
    // fast-recovery episode with a scoreboard, held segments, a FIN
    // each way, a trace ledger.
    w.tx.set_seg_sampling(1);
    w.tx.seg_begin(0);
    transfer(&mut w, &mut m, 100);
    w.lb.set_faults(FaultPlan { drop_every: 1, ..Default::default() });
    w.tx.seg_begin(1);
    w.tx.send_buf(&mut m, &mut w.lb, w.src.base, 100).unwrap();
    w.lb.set_faults(FaultPlan::default());
    for chunk in 2..=4 {
        w.tx.seg_begin(chunk);
        w.tx.send_buf(&mut m, &mut w.lb, w.src.base, 100).unwrap();
    }
    drain_without_ticks(&mut w, &mut m, &mut Vec::new());
    assert_eq!(w.tx.stats.fast_retransmits, 1, "the recovery part was exercised");
    w.tx.close(&mut m, &mut w.lb);
    while w.rx.poll_input(&mut m, &mut w.lb).is_some() {}
    while w.tx.poll_input(&mut m, &mut w.lb).is_some() {}
    w.rx.close(&mut m, &mut w.lb);
    assert!(drive_to_closed(&mut w, &mut m, 200));
    w.tx.set_seg_sampling(0);
    w.tx.reopen(&mut w.lb, 71_000);
    w.rx.reopen(&mut w.lb, 95_000);

    w.tx.set_peer_iss(95_000);
    w.rx.set_peer_iss(71_000);

    // The same allocations in the same order: the same regions.
    let mut fresh = world_at(71_000, 95_000);
    for (old, new) in [(&w.tx, &mut fresh.tx), (&w.rx, &mut fresh.rx)] {
        for _ in 0..old.ticks {
            new.tick(&mut m, &mut fresh.lb); // idle: only the clock moves
        }
        assert_eq!(old.snd, new.snd);
        assert_eq!(old.rcv, new.rcv);
        assert_eq!(old.rec, new.rec);
        assert_eq!(old.life, new.life);
        assert_eq!(old.trace, new.trace);
    }
    assert!(w.tx.stats.data_sent > 0 && w.tx.time_wait_residency() > 0, "the survivors survived");
}
