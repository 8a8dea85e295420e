//! Point-to-point driver: one `utcp::Connection` pair driven through
//! `server::pipeline::{send,recv}_chunk_{ilp,non_ilp}` from one thread.
//!
//! Two loops, both closed: [`P2p::transfer`] keeps the sender's ring
//! full (fill window → drain receiver → consume ACKs) and is what
//! `udp_small` measures goodput with; [`P2p::stop_and_wait`] keeps one
//! chunk in flight and times each round trip. The same driver runs over
//! a shared `Loopback` (the harness workloads' RTT phase and pipeline
//! probe) and over a pair of `UdpBackend`s.

use crate::kernel::Wire;
use crate::span::{self, Name};
use cipher::SimplifiedSafer;
use ilp_core::Reject;
use memsim::layout::AddressSpace;
use memsim::region::{Region, RegionKind};
use memsim::NativeMem;
use rpcapp::ReplyMeta;
use server::pipeline::{
    recv_chunk_ilp, recv_chunk_non_ilp, send_chunk_ilp, send_chunk_non_ilp, Scratch,
};
use server::Path;
use std::io;
use std::time::{Duration, Instant};
use utcp::rng::XorShift64;
use utcp::{Connection, KernelPart, SendError, UtcpConfig};

const TX_PORT: u16 = 4000;
const RX_PORT: u16 = 5000;
const TX_ISS: u32 = 0x1000;
const RX_ISS: u32 = 0x9000;

/// How the retransmission timer is driven.
#[derive(Debug, Clone, Copy)]
pub enum Ticks {
    /// One `tick` per this much wall time (real sockets).
    Wall(Duration),
    /// One `tick` per driver round that made no progress (the in-process
    /// loop-back, whose only clock is the driver itself).
    Idle,
}

/// Size and timer parameters of a point-to-point world.
#[derive(Debug, Clone, Copy)]
pub struct P2pShape {
    /// Payload bytes per chunk.
    pub chunk: usize,
    /// File length; one pass sends it once.
    pub file_len: usize,
    /// Sender ring capacity — the closed loop's window.
    pub ring: usize,
    /// Timer policy.
    pub ticks: Ticks,
}

/// Why a loop gave up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stall {
    /// The wall-clock deadline passed.
    Deadline,
    /// The transport refused a send for a reason that cannot clear.
    Send(SendError),
}

/// What one [`P2p::transfer`] did.
#[derive(Debug, Clone, Default)]
pub struct Transfer {
    /// Wall time of each pass's timed region (first send to last ACK), seconds.
    pub passes_s: Vec<f64>,
    /// Chunks the receiver accepted.
    pub chunks: u64,
    /// Accepted chunks whose bytes differ from the source file.
    pub bad_chunks: u64,
    /// Verified payload bytes.
    pub good_bytes: u64,
    /// Driver rounds (one fill/drain/ack cycle each).
    pub rounds: u64,
}

/// One connection pair plus everything it needs, in one address space.
#[derive(Debug)]
pub struct P2p<W: Wire> {
    /// The kernel part(s) underneath.
    pub wire: W,
    /// Data sender.
    pub tx: Connection,
    /// Data receiver.
    pub rx: Connection,
    scratch: Scratch,
    cipher: SimplifiedSafer,
    file: Region,
    out: Region,
    arena: Vec<u8>,
    base: usize,
    shape: P2pShape,
    next_seq: u32,
    last_tick: Instant,
}

#[allow(clippy::too_many_arguments)]
fn send_chunk<K: KernelPart>(
    path: Path,
    s: &Scratch,
    cipher: SimplifiedSafer,
    m: &mut NativeMem<'_>,
    tx: &mut Connection,
    k: &mut K,
    meta: &ReplyMeta,
    addr: usize,
) -> Result<usize, SendError> {
    let _span = span::enter(Name::SendChunk);
    match path {
        Path::Ilp => send_chunk_ilp(s, cipher, m, tx, k, meta, addr),
        Path::NonIlp => send_chunk_non_ilp(s, &cipher, m, tx, k, meta, addr),
    }
}

fn recv_chunk<K: KernelPart>(
    path: Path,
    s: &Scratch,
    cipher: SimplifiedSafer,
    m: &mut NativeMem<'_>,
    rx: &mut Connection,
    k: &mut K,
    out: Region,
) -> Option<Result<ReplyMeta, Reject>> {
    let _span = span::enter(Name::RecvChunk);
    match path {
        Path::Ilp => recv_chunk_ilp(s, cipher, m, rx, k, out),
        Path::NonIlp => recv_chunk_non_ilp(s, &cipher, m, rx, k, out),
    }
}

/// A sender and a receiver `Connection` over `wire`, established without
/// a handshake; `ring` is the sender's ring (the receiver's is unused).
pub fn connection_pair<W: Wire>(
    space: &mut AddressSpace,
    wire: &mut W,
    ring: usize,
) -> (Connection, Connection) {
    let tx_cfg = UtcpConfig {
        local_port: TX_PORT,
        peer_port: RX_PORT,
        ring_capacity: ring,
        ..Default::default()
    };
    let rx_cfg = UtcpConfig {
        local_port: RX_PORT,
        peer_port: TX_PORT,
        local_ip: tx_cfg.peer_ip,
        peer_ip: tx_cfg.local_ip,
        ring_capacity: 256,
        ..Default::default()
    };
    let mut tx = Connection::new(space, wire.tx_side(), tx_cfg, TX_ISS);
    let mut rx = Connection::new(space, wire.rx_side(), rx_cfg, RX_ISS);
    tx.set_peer_iss(RX_ISS);
    rx.set_peer_iss(TX_ISS);
    (tx, rx)
}

impl<W: Wire> P2p<W> {
    /// Build the world: `make_wire` allocates the kernel part(s) in the
    /// address space, then the connections, buffers, a file of
    /// `seed`-derived bytes and a `seed`-derived cipher key follow.
    ///
    /// # Errors
    /// Whatever `make_wire` returns (socket creation can be denied).
    pub fn build(
        seed: u64,
        shape: P2pShape,
        make_wire: impl FnOnce(&mut AddressSpace) -> io::Result<W>,
    ) -> io::Result<Self> {
        assert!(
            shape.file_len.is_multiple_of(shape.chunk),
            "file is a whole number of chunks"
        );
        let mut space = AddressSpace::new();
        let cipher = SimplifiedSafer::alloc(&mut space);
        let mut wire = make_wire(&mut space)?;
        let (tx, rx) = connection_pair(&mut space, &mut wire, shape.ring);
        let scratch = Scratch::alloc(&mut space);
        let file = space.alloc_kind("p2p_file", shape.file_len, 64, RegionKind::AppData);
        let out = space.alloc_kind("p2p_out", shape.file_len, 64, RegionKind::AppData);
        let mut arena = space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        let mut rng = XorShift64::new(seed);
        cipher.init(&mut m, rng.next_u64().to_le_bytes());
        for word in m.bytes_mut(file.base, shape.file_len).chunks_mut(8) {
            let r = rng.next_u64().to_le_bytes();
            word.copy_from_slice(&r[..word.len()]);
        }
        Ok(P2p {
            wire,
            tx,
            rx,
            scratch,
            cipher,
            file,
            out,
            arena,
            base: space.data_base(),
            shape,
            next_seq: 0,
            last_tick: Instant::now(),
        })
    }

    /// Chunks in one pass over the file.
    pub fn chunks_per_pass(&self) -> u64 {
        (self.shape.file_len / self.shape.chunk) as u64
    }

    /// RPC header and source address of chunk `index` of the file; the
    /// caller bumps `next_seq` once the transport took it.
    fn meta(&self, index: usize) -> (ReplyMeta, usize) {
        let offset = index * self.shape.chunk;
        let meta = ReplyMeta {
            request_id: 0x3177,
            seq: self.next_seq,
            offset: offset as u32,
            last: u32::from(offset + self.shape.chunk == self.shape.file_len),
            data_len: self.shape.chunk as u32,
        };
        (meta, self.file.at(offset))
    }

    /// Advance the sender's timer if the policy says it is due.
    /// `progressed` is whether the current driver round moved anything.
    fn maybe_tick(&mut self, progressed: bool) {
        let due = match self.shape.ticks {
            Ticks::Wall(every) => self.last_tick.elapsed() >= every,
            Ticks::Idle => !progressed,
        };
        if due {
            let _span = span::enter(Name::Tick);
            let mut m = NativeMem::with_base(&mut self.arena, self.base);
            self.tx.tick(&mut m, self.wire.tx_side());
            self.last_tick = Instant::now();
        }
    }

    /// Compare `out[range]` with the file chunk by chunk, then zero it.
    /// Returns `(bad chunks, good bytes)`.
    fn verify_and_clear(&mut self, chunks: std::ops::Range<usize>) -> (u64, u64) {
        let _span = span::enter(Name::Verify);
        let c = self.shape.chunk;
        let m = NativeMem::with_base(&mut self.arena, self.base);
        let mut bad = 0;
        for i in chunks.clone() {
            if m.bytes(self.file.at(i * c), c) != m.bytes(self.out.at(i * c), c) {
                bad += 1;
            }
        }
        let mut m = m;
        m.bytes_mut(self.out.at(chunks.start * c), chunks.len() * c)
            .fill(0);
        (bad, (chunks.len() as u64 - bad) * c as u64)
    }

    /// Send the file `passes` times with the ring kept full. The timed
    /// region of a pass runs from its first send to its last ACK; the
    /// byte compare and the output reset between passes are outside it.
    ///
    /// # Errors
    /// [`Stall`] when `deadline` passes or a send is refused for good.
    pub fn transfer(
        &mut self,
        path: Path,
        passes: usize,
        deadline: Instant,
    ) -> Result<Transfer, Stall> {
        let per_pass = self.chunks_per_pass() as usize;
        let mut t = Transfer::default();
        for _ in 0..passes {
            let start = Instant::now();
            let mut next = 0usize;
            let mut accepted = 0u64;
            while next < per_pass || self.tx.in_flight() > 0 {
                let mut progressed = false;
                let in_flight = self.tx.in_flight();
                while next < per_pass {
                    let (meta, addr) = self.meta(next);
                    let mut m = NativeMem::with_base(&mut self.arena, self.base);
                    let k = self.wire.tx_side();
                    match send_chunk(
                        path,
                        &self.scratch,
                        self.cipher,
                        &mut m,
                        &mut self.tx,
                        k,
                        &meta,
                        addr,
                    ) {
                        Ok(_) => {
                            self.next_seq = self.next_seq.wrapping_add(1);
                            next += 1;
                            progressed = true;
                        }
                        Err(SendError::BufferFull | SendError::WindowClosed) => break,
                        Err(e) => return Err(Stall::Send(e)),
                    }
                }
                loop {
                    let mut m = NativeMem::with_base(&mut self.arena, self.base);
                    let k = self.wire.rx_side();
                    match recv_chunk(
                        path,
                        &self.scratch,
                        self.cipher,
                        &mut m,
                        &mut self.rx,
                        k,
                        self.out,
                    ) {
                        None => break,
                        Some(Ok(_)) => {
                            accepted += 1;
                            progressed = true;
                        }
                        Some(Err(_)) => {}
                    }
                }
                {
                    let _span = span::enter(Name::AckPoll);
                    let mut m = NativeMem::with_base(&mut self.arena, self.base);
                    while self.tx.poll_input(&mut m, self.wire.tx_side()).is_some() {}
                }
                progressed |= self.tx.in_flight() != in_flight;
                self.maybe_tick(progressed);
                t.rounds += 1;
                if t.rounds.is_multiple_of(256) && Instant::now() >= deadline {
                    return Err(Stall::Deadline);
                }
            }
            t.passes_s.push(start.elapsed().as_secs_f64());
            t.chunks += accepted;
            let (bad, good) = self.verify_and_clear(0..per_pass);
            t.bad_chunks += bad;
            t.good_bytes += good;
        }
        Ok(t)
    }

    /// `n` round trips with one chunk in flight: `send_chunk_*` call →
    /// receiver accept → ACK consumed by the sender. Returns each round
    /// trip in ns plus the chunks whose bytes did not verify.
    ///
    /// # Errors
    /// [`Stall`] when `deadline` passes or a send is refused.
    pub fn stop_and_wait(
        &mut self,
        path: Path,
        n: usize,
        deadline: Instant,
    ) -> Result<(Vec<u64>, u64), Stall> {
        let per_pass = self.chunks_per_pass() as usize;
        let mut rtt = Vec::with_capacity(n);
        let mut bad = 0u64;
        for i in 0..n {
            let index = i % per_pass;
            let (meta, addr) = self.meta(index);
            let start = Instant::now();
            {
                let mut m = NativeMem::with_base(&mut self.arena, self.base);
                let k = self.wire.tx_side();
                send_chunk(
                    path,
                    &self.scratch,
                    self.cipher,
                    &mut m,
                    &mut self.tx,
                    k,
                    &meta,
                    addr,
                )
                .map_err(Stall::Send)?;
                self.next_seq = self.next_seq.wrapping_add(1);
            }
            let mut accepted = false;
            let mut rounds = 0u64;
            loop {
                let mut progressed = false;
                loop {
                    let mut m = NativeMem::with_base(&mut self.arena, self.base);
                    let k = self.wire.rx_side();
                    match recv_chunk(
                        path,
                        &self.scratch,
                        self.cipher,
                        &mut m,
                        &mut self.rx,
                        k,
                        self.out,
                    ) {
                        None => break,
                        Some(Ok(_)) => {
                            accepted = true;
                            progressed = true;
                        }
                        Some(Err(_)) => {}
                    }
                }
                {
                    let _span = span::enter(Name::AckPoll);
                    let mut m = NativeMem::with_base(&mut self.arena, self.base);
                    while self.tx.poll_input(&mut m, self.wire.tx_side()).is_some() {}
                }
                if accepted && self.tx.in_flight() == 0 {
                    break;
                }
                self.maybe_tick(progressed);
                rounds += 1;
                if rounds.is_multiple_of(256) && Instant::now() >= deadline {
                    return Err(Stall::Deadline);
                }
            }
            rtt.push(start.elapsed().as_nanos() as u64);
            // Verify at every wrap over the file, so each slot is checked
            // (and cleared) before it is written again.
            if index + 1 == per_pass || i + 1 == n {
                bad += self.verify_and_clear(0..index + 1).0;
            }
        }
        Ok((rtt, bad))
    }
}
