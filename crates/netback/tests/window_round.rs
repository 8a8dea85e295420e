//! A full window over real sockets crosses in one round.
//!
//! Two connections over two `UdpBackend`s on 127.0.0.1 run the round
//! the benchmark's point-to-point transfer runs: fill the sender until a
//! send is refused, drain the receiver, take the ACKs. The send
//! that fills the ring makes the sender's connection call
//! `KernelPart::flush`, so the window leaves as one lone frame and one
//! train in the round it was sent, and one ACK comes back: one round and
//! three `sendmsg` per window. A stop-and-wait chunk never fills the
//! window and still crosses as one datagram each way.

use checksum::internet::checksum_buf;
use memsim::{AddressSpace, NativeMem, Region};
use netback::{SockCalls, UdpBackend};
use std::time::{Duration, Instant};
use utcp::{Connection, KernelPart, UtcpConfig};

/// Chunk bytes, as on the benchmark's `udp_small`.
const CHUNK: usize = 256;
/// Sender ring: a window of `RING / CHUNK` chunks, no wrap waste.
const RING: usize = 8 * 1024;
const PER_WINDOW: usize = RING / CHUNK;
/// Full windows measured after slow start has opened `cwnd` past the ring.
const WINDOWS: usize = 12;
/// The file the chunks are cut from, cycled.
const FILE: usize = 64 * 1024;

/// Both ends, the file and where delivered bytes go.
struct World {
    a: UdpBackend,
    b: UdpBackend,
    tx: Connection,
    rx: Connection,
    arena: Vec<u8>,
    file: Region,
    sent: usize,
    delivered: Vec<u8>,
}

/// What a stretch of rounds cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    rounds: usize,
    chunks: usize,
    /// Calls on both sockets together.
    calls: SockCalls,
}

impl World {
    /// Two connected backends and a connection on each, or None where
    /// the sandbox denies UDP sockets.
    fn new() -> Option<World> {
        let mut space = AddressSpace::new();
        let mut a = UdpBackend::bind(&mut space, "127.0.0.1:0").ok()?;
        let mut b = UdpBackend::bind(&mut space, "127.0.0.1:0").ok()?;
        a.set_peer(b.local_addr().ok()?).ok()?;
        b.set_peer(a.local_addr().ok()?).ok()?;
        let cfg = UtcpConfig { local_port: 4000, peer_port: 5000, ring_capacity: RING, ..Default::default() };
        let (tx_iss, rx_iss) = (0x1000, 0x9000);
        let mut tx = Connection::new(&mut space, &mut a, cfg, tx_iss);
        let mut rx = Connection::new(&mut space, &mut b, cfg.mirror(), rx_iss);
        tx.set_peer_iss(rx_iss);
        rx.set_peer_iss(tx_iss);
        let file = space.alloc("file", FILE, 64);
        let mut arena = space.native_arena();
        for (i, byte) in NativeMem::new(&mut arena).bytes_mut(file.base, FILE).iter_mut().enumerate() {
            *byte = (i * 31 + i / CHUNK) as u8;
        }
        Some(World { a, b, tx, rx, arena, file, sent: 0, delivered: Vec::new() })
    }

    fn calls(&self) -> SockCalls {
        let (a, b) = (self.a.sock_calls(), self.b.sock_calls());
        SockCalls { sendmsg: a.sendmsg + b.sendmsg, recvmsg: a.recvmsg + b.recvmsg }
    }

    /// One round: send until refused (at most `limit` chunks in
    /// all), deliver everything that arrived, take every ACK. Ticks the
    /// sender only on a round that moved nothing.
    fn round(&mut self, limit: usize) {
        let mut m = NativeMem::new(&mut self.arena);
        let before = (self.sent, self.tx.in_flight());
        while self.sent < limit {
            let src = self.file.at(self.sent * CHUNK % FILE);
            if self.tx.send_buf(&mut m, &mut self.a, src, CHUNK).is_err() {
                break;
            }
            self.sent += 1;
        }
        while let Some(d) = self.rx.poll_input(&mut m, &mut self.b) {
            let sum = checksum_buf(&mut m, d.payload_addr, d.payload_len);
            if self.rx.finish_recv(&mut m, &mut self.b, &d, sum).is_ok() {
                self.delivered.extend_from_slice(m.bytes(d.payload_addr, d.payload_len));
            }
        }
        while self.tx.poll_input(&mut m, &mut self.a).is_some() {}
        if (self.sent, self.tx.in_flight()) == before {
            std::thread::sleep(Duration::from_millis(1));
            self.tx.tick(&mut m, &mut self.a);
        }
    }

    /// Run rounds until `limit` chunks are sent and acknowledged.
    fn run_to(&mut self, limit: usize) -> Counts {
        let deadline = Instant::now() + Duration::from_secs(30);
        let (calls, sent) = (self.calls(), self.sent);
        let mut rounds = 0;
        while self.sent < limit || self.tx.in_flight() > 0 {
            assert!(Instant::now() < deadline, "stalled at chunk {} of {limit}", self.sent);
            self.round(limit);
            rounds += 1;
        }
        let now = self.calls();
        let calls = SockCalls { sendmsg: now.sendmsg - calls.sendmsg, recvmsg: now.recvmsg - calls.recvmsg };
        Counts { rounds, chunks: self.sent - sent, calls }
    }
}

#[test]
fn a_full_window_takes_one_round_and_three_sendmsg_calls() {
    let Some(mut w) = World::new() else {
        eprintln!("skipping: sandbox denies UDP sockets");
        return;
    };
    // Slow start: run whole windows until `cwnd` no longer limits one.
    while (w.tx.cwnd() as usize) < RING {
        let next = w.sent + PER_WINDOW;
        w.run_to(next);
    }
    let full = w.run_to(w.sent + WINDOWS * PER_WINDOW);
    eprintln!("{WINDOWS} full windows of {PER_WINDOW} chunks: {full:?}");
    assert_eq!(full.chunks, WINDOWS * PER_WINDOW);
    assert_eq!(full.rounds, WINDOWS, "one round per full window");
    assert_eq!(full.calls.sendmsg, 3 * WINDOWS as u64, "a lone frame, a train and one ACK per window");

    // Stop-and-wait: one chunk alone never fills the window, leaves as
    // the first send after a receive, and is ACKed by one datagram.
    let (a_sent, b_sent) = (w.a.counters().sent, w.b.counters().sent);
    let one = w.run_to(w.sent + 1);
    assert_eq!((one.rounds, one.chunks, one.calls.sendmsg), (1, 1, 2), "{one:?}");
    assert_eq!((w.a.counters().sent - a_sent, w.b.counters().sent - b_sent), (1, 1));

    // Every byte arrived, in order, and nothing was sent twice.
    let file = NativeMem::new(&mut w.arena).bytes(w.file.base, FILE).to_vec();
    assert_eq!(w.delivered.len(), w.sent * CHUNK);
    for (i, chunk) in w.delivered.chunks(CHUNK).enumerate() {
        assert!(chunk == &file[i * CHUNK % FILE..][..CHUNK], "chunk {i} differs");
    }
    assert_eq!((w.tx.stats.retransmits, w.rx.stats.rejected), (0, 0));
    for net in [&w.a, &w.b] {
        let c = net.counters();
        assert_eq!((c.dropped, c.corrupted, c.unroutable), (0, 0, 0));
    }
}
