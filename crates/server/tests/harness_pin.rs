//! The harness is the program too: what it puts on the wire to open a
//! connection, and the state every connection is in after every round,
//! decide every simulated baseline downstream. These digests (FNV-1a)
//! were recorded on the commit *before* `harness.rs` was cut into
//! parts; a change to the harness that moves one has changed the
//! protocol or the round order — find out why, do not re-record.
//!
//! The faulted churn digest was re-recorded once since, on purpose: a
//! receiver now ACKs a drained burst once instead of once per segment,
//! so the loop-back carries fewer datagrams and `drop_every` /
//! `dup_every`, which count datagrams, meet different segments. The
//! clean churn digest beside it is the control — the same on the commit
//! before that change and after it: with no faults to re-aim, fewer
//! ACKs move no connection's state in any round.

use cipher::SimplifiedSafer;
use memsim::layout::AddressSpace;
use memsim::{Mem, NativeMem};
use obs::NoopObserver;
use server::{Path, RoundRobin, ScaleHarness, Scheduler, ServerConfig, LISTEN_PORT};
use utcp::{Datagram, EndpointId, FaultPlan, KernelCounters, KernelPart, Loopback};

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv(digest: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(digest, |d, &b| (d ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// A loop-back that keeps a copy of every datagram dequeued from the
/// listen endpoint and from each control endpoint (ports 40 000 + g).
struct Tap {
    inner: Loopback,
    /// Endpoint → the port it was registered for.
    ports: Vec<(EndpointId, u16)>,
    /// (port dequeued from, datagram bytes), in dequeue order.
    seen: Vec<(u16, Vec<u8>)>,
}

impl KernelPart for Tap {
    fn register(&mut self, port: u16) -> EndpointId {
        let id = self.inner.register(port);
        if port == LISTEN_PORT || port >= 40_000 {
            self.ports.push((id, port));
        }
        id
    }
    fn unregister(&mut self, port: u16) {
        self.inner.unregister(port);
    }
    fn send<M: Mem>(
        &mut self,
        m: &mut M,
        src_ip: u32,
        dst_ip: u32,
        dst_port: u16,
        hdr_addr: usize,
        payload_addr: usize,
        payload_len: usize,
    ) {
        self.inner.send(m, src_ip, dst_ip, dst_port, hdr_addr, payload_addr, payload_len);
    }
    fn recv_into<M: Mem>(&mut self, m: &mut M, id: EndpointId) -> Option<Datagram> {
        let d = self.inner.recv_into(m, id)?;
        if let Some(&(_, port)) = self.ports.iter().find(|(ep, _)| *ep == id) {
            self.seen.push((port, (0..d.len).map(|i| m.read_u8(d.addr + i)).collect()));
        }
        Some(d)
    }
    fn pending(&self, id: EndpointId) -> usize {
        self.inner.pending(id)
    }
    fn counters(&self) -> KernelCounters {
        self.inner.counters()
    }
}

#[test]
fn syn_and_syn_ack_bytes_are_the_recorded_ones() {
    let cfg = ServerConfig { n_conns: 8, ..Default::default() };
    let mut space = AddressSpace::new();
    let cipher = SimplifiedSafer::alloc(&mut space);
    let inner = Loopback::with_capacity(&mut space, 16 * 8 + 64);
    let tap = Tap { inner, ports: Vec::new(), seen: Vec::new() };
    let mut h = ScaleHarness::with_cipher_over(&mut space, cipher, cfg, tap);
    let mut arena = space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    h.init_world(&mut m);
    let mut sched = RoundRobin::new();
    h.run(&mut m, &mut sched, Path::Ilp);
    assert_eq!(h.verify_outputs(&mut m), None);

    // A SYN names its sender in the TCP source port (IP header is 20
    // bytes); a SYN-ACK is whatever arrived on that client's ctrl port.
    let digest_of = |port: u16, from: Option<u16>| {
        let (_, bytes) = h
            .lb
            .seen
            .iter()
            .find(|(p, b)| {
                *p == port && from.is_none_or(|f| u16::from_be_bytes([b[20], b[21]]) == f)
            })
            .expect("handshake datagram was dequeued");
        (bytes.len(), fnv(FNV_OFFSET, bytes))
    };
    assert_eq!(digest_of(LISTEN_PORT, Some(40_000)), (48, 0xD9FD_407F_B227_49A0), "SYN 0");
    assert_eq!(digest_of(LISTEN_PORT, Some(40_005)), (48, 0x239C_3DBD_31FF_E44F), "SYN 5");
    assert_eq!(digest_of(40_000, None), (40, 0x65A1_9950_7631_5F92), "SYN-ACK 0");
    assert_eq!(digest_of(40_005, None), (40, 0x4B7F_EF94_0BDC_3045), "SYN-ACK 5");
    // One SYN and one SYN-ACK per connection: a clean world retries
    // nothing.
    assert_eq!(h.lb.seen.len(), 16);
}

/// Fold every connection's externally visible state into `digest`.
fn fold_world(digest: u64, tick: u64, h: &ScaleHarness<SimplifiedSafer>) -> u64 {
    let mut d = fnv(digest, &tick.to_le_bytes());
    for (i, sess) in h.table.iter().enumerate() {
        let rx = h.client_rx(i);
        let (_, chunks, _) = h.client_progress(i);
        for word in [
            sess.xfer.next_chunk as u64,
            chunks,
            sess.xfer.state as u64,
            sess.tx.state() as u64,
            rx.state() as u64,
            sess.tx.stats.retransmits,
        ] {
            d = fnv(d, &word.to_le_bytes());
        }
    }
    d
}

/// Two churn waves of 8 connections × 8 KiB through a 4 KiB ring under
/// `faults`; returns (digest, rounds of wave 1, drain 1,
/// rounds at the end of wave 2, drain 2).
fn churn_digest(path: Path, faults: FaultPlan) -> (u64, u64, u64, u64, u64) {
    let cfg = ServerConfig {
        n_conns: 8,
        file_len: 8 * 1024,
        ring_capacity: 4 * 1024,
        faults,
        ..Default::default()
    };
    let mut space = AddressSpace::new();
    let mut h = ScaleHarness::simplified(&mut space, cfg);
    let mut arena = space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    h.init_world(&mut m);
    let mut sched = RoundRobin::new();
    let mut obs = NoopObserver;
    let mut digest = FNV_OFFSET;
    let mut tick = 0u64;
    let mut marks = [0u64; 4];
    for wave in 0..2 {
        let mut run = h.begin_run::<NoopObserver>();
        loop {
            let more = h.step(&mut m, &mut sched, path, &mut obs, &mut run);
            tick += 1;
            digest = fold_world(digest, tick, &h);
            if !more {
                break;
            }
        }
        let report = h.finish_run(&mut obs, sched.name());
        assert_eq!(h.verify_outputs(&mut m), None, "wave {wave} ({path:?})");
        assert_eq!(report.payload_bytes, 8 * 8 * 1024);
        marks[2 * wave] = report.rounds;
        let drained = h.drain_to_closed(&mut m, path, &mut obs);
        marks[2 * wave + 1] = drained;
        tick += drained;
        digest = fold_world(digest, tick, &h);
        h.reopen_wave(&mut m);
        digest = fold_world(digest, tick, &h);
    }
    let k = h.lb.counters();
    for word in [k.dropped, k.corrupted, k.unroutable, k.queue_peak] {
        digest = fnv(digest, &word.to_le_bytes());
    }
    (digest, marks[0], marks[1], marks[2], marks[3])
}

#[test]
fn per_round_state_through_two_churn_waves_is_the_recorded_one() {
    // One digest for both paths: they put the same bytes on the wire, so
    // the same faults meet the same segments.
    for path in [Path::Ilp, Path::NonIlp] {
        let faults = FaultPlan { drop_every: 7, dup_every: 13, ..Default::default() };
        assert_eq!(churn_digest(path, faults), (0x2BE8_F971_8951_8F26, 64, 30, 167, 30), "{path:?}");
    }
}

#[test]
fn per_round_state_of_a_clean_churn_is_the_recorded_one() {
    for path in [Path::Ilp, Path::NonIlp] {
        assert_eq!(churn_digest(path, FaultPlan::default()), (0x339C_6E5A_F420_65B5, 6, 30, 42, 30), "{path:?}");
    }
}
