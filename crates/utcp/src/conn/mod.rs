//! The user-level TCP connection: sequencing, acknowledgment,
//! retransmission, and the ILP/non-ILP send and receive paths.
//!
//! A connection is **uni-directional** for data (paper §3.1): one side
//! sends data segments, the other returns pure ACKs. One TSDU is exactly
//! one TPDU (the ALF rule), so the application hands over whole messages
//! and receives whole messages.
//!
//! [`Connection`] is five parts, each a struct that owns its state and
//! has one constructor — `new` builds them, `reopen` rebuilds them, a
//! reset asks each to let go — and each a file holding the paths that
//! mainly move that state:
//!
//! | part | state | paths |
//! |---|---|---|
//! | `send` | `snd_una`, `snd_nxt`, peer window, `cwnd`/`ssthresh`, RTT estimator | `send_buf`, `begin_ilp_send`/`commit_send`, `tcp_output`, `tick`, cumulative ACKs |
//! | `recv` | `rcv_nxt`, peer FIN mark, staging + out-of-order hold regions | `poll_input` (initial stage), `finish_recv` (final stage), ACK generation |
//! | `recovery` | dup-ACK count, recovery point, `high_rxt`, SACK scoreboard | fast retransmit / fast recovery, hole filling |
//! | `lifecycle` | RFC 793 `State`, our FIN, TIME_WAIT clock | `listen`, `connect`, `close`, `abort`, SYN/FIN/RST handling |
//! | `segtrace` | sampling rate, chunk ↔ sequence ledger | `seg_begin`, trace identity of each transmission |
//!
//! What is left here is what every part shares: the configuration, the
//! regions every segment goes through (ring, header staging, TCB
//! image), the clock, and the one segment emitter.
//!
//! Send paths (paper Figure 3):
//!
//! * non-ILP — [`Connection::send_buf`]: `tcp_send` copies the prepared
//!   message into the ring (one read + one write per word), then
//!   `tcp_output` re-reads everything for the checksum and performs the
//!   system copy.
//! * ILP — [`Connection::begin_ilp_send`] + [`Connection::commit_send`]:
//!   the fused loop stores the transformed message into the ring *while*
//!   computing the checksum in registers; `tcp_output` only patches the
//!   header.
//!
//! Receive paths (paper Figure 5) follow the three-stage split: the
//! *initial* stage ([`Connection::poll_input`]) does the system copy and
//! header parse, the caller runs the *integrated* data manipulations
//! over the staged payload, and the *final* stage
//! ([`Connection::finish_recv`]) accepts (advancing `rcv_nxt`, emitting
//! the ACK) or rejects — "messages are accepted or rejected in the final
//! stage".

use checksum::{InetChecksum, PseudoHeader};
use memsim::layout::AddressSpace;
use memsim::region::{Region, RegionKind};
use memsim::{CodeRegion, Mem};
use obs::{FlightEdge, FlightSnap};

use crate::backend::KernelPart;
use crate::ip::{IP_HEADER_LEN, PROTO_TCP};
use crate::kernelpart::EndpointId;
use crate::ring::SendRing;
use crate::wire::{sack_option_len, TcpFlags, TcpHeader, MAX_SACK_BLOCKS, TCP_HEADER_LEN};

mod lifecycle;
mod recovery;
mod recv;
mod segtrace;
mod send;

pub use lifecycle::{State, MSL_TICKS};
pub use recv::Delivered;
pub use send::SendError;

use lifecycle::Lifecycle;
use recovery::Recovery;
use recv::{RecvSeq, OOO_SLOTS};
use segtrace::SegTrace;
use send::SendSeq;

/// Maximum TPDU payload in bytes — one TSDU = one TPDU ≤ this — and the
/// MSS congestion control counts in. Fixed, like the 20-byte header: the
/// paper's TCP negotiates nothing.
pub const MTU: usize = 1536;

/// The receive window every connection advertises, in bytes.
pub const WINDOW: u16 = 16 * 1024;

/// Initial retransmission timeout in ticks, refined by RTT estimation
/// once samples arrive.
pub const INITIAL_RTO: u32 = 8;

/// Connection parameters.
#[derive(Debug, Clone, Copy)]
pub struct UtcpConfig {
    /// Local (receiving) port.
    pub local_port: u16,
    /// Peer's port.
    pub peer_port: u16,
    /// Local IPv4 address (pseudo-header).
    pub local_ip: u32,
    /// Peer IPv4 address (pseudo-header).
    pub peer_ip: u32,
    /// Ring (retransmission) buffer capacity.
    pub ring_capacity: usize,
    /// Enable duplicate-ACK fast retransmit / fast recovery and SACK
    /// (RFC 5681 / RFC 2018). When off, the connection is the RTO-only
    /// baseline: the sender ignores duplicate ACKs and the receiver
    /// sends plain ACKs and drops out-of-order segments instead of
    /// holding them for reassembly.
    pub loss_recovery: bool,
}

impl Default for UtcpConfig {
    fn default() -> Self {
        UtcpConfig {
            local_port: 0,
            peer_port: 0,
            local_ip: 0x0A00_0001,
            peer_ip: 0x0A00_0002,
            ring_capacity: 16 * 1024,
            loss_recovery: true,
        }
    }
}

impl UtcpConfig {
    /// The other end's view of this configuration: ports and addresses
    /// swapped, everything else equal.
    pub fn mirror(&self) -> Self {
        UtcpConfig {
            local_port: self.peer_port,
            peer_port: self.local_port,
            local_ip: self.peer_ip,
            peer_ip: self.local_ip,
            ..*self
        }
    }
}

/// Counters for tests and reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnStats {
    /// Data segments transmitted (including retransmissions).
    pub data_sent: u64,
    /// Retransmissions among those.
    pub retransmits: u64,
    /// Retransmissions triggered by duplicate ACKs / SACK holes rather
    /// than the timer (a subset of `retransmits`).
    pub fast_retransmits: u64,
    /// Bytes newly marked received by incoming SACK blocks.
    pub sacked_bytes: u64,
    /// Congestion-window reductions: one per fast-recovery entry and
    /// one per RTO collapse. Delimits loss-free epochs — between two
    /// equal readings, `cwnd` is non-decreasing (the sim oracle pins
    /// this).
    pub cwnd_cuts: u64,
    /// Pure ACK segments sent.
    pub acks_sent: u64,
    /// ACK segments processed.
    pub acks_received: u64,
    /// Data segments accepted in order.
    pub accepted: u64,
    /// Segments rejected (checksum, duplicate, out of order).
    pub rejected: u64,
    /// FIN segments sent (first transmission only).
    pub fins_sent: u64,
    /// Peer FINs consumed in order.
    pub fins_received: u64,
    /// RST segments sent (aborts and dead-port replies).
    pub resets_sent: u64,
    /// RSTs accepted, each tearing the connection down completely.
    pub resets_received: u64,
}

/// One endpoint of a uni-directional user-level TCP connection.
///
/// What survives [`Connection::reopen`]: the configuration and regions,
/// the clock (`ticks`, cumulative TIME_WAIT residency), `obs_id`, the
/// segment-trace sampling rate and the cumulative [`ConnStats`]. The
/// five parts do not.
#[derive(Debug)]
pub struct Connection {
    cfg: UtcpConfig,
    endpoint: EndpointId,
    ring: SendRing,
    /// Header staging for outgoing segments.
    hdr: Region,
    /// TCB words accessed through `Mem` so control processing costs are
    /// visible to the simulation.
    tcb: Region,
    /// Instruction footprint of the user-level TCP control path.
    code_tcp: CodeRegion,
    ticks: u32,
    /// Accumulated TIME_WAIT residency across incarnations, in ticks.
    time_wait_ticks: u64,
    /// Connection id stamped on flight-recorder snapshots and health
    /// events. The harness overrides it with the connection's harness
    /// index; standalone connections default to the local port.
    obs_id: u32,
    snd: SendSeq,
    rcv: RecvSeq,
    rec: Recovery,
    life: Lifecycle,
    trace: SegTrace,
    /// Re-injected bug for the mutation proofs: accept data arriving
    /// after the peer's FIN was consumed.
    #[cfg(feature = "mutation")]
    accept_after_fin_bug: bool,
    /// Statistics.
    pub stats: ConnStats,
}

/// TCB field offsets inside the TCB region.
mod tcb {
    pub const SND_UNA: usize = 0;
    pub const SND_NXT: usize = 4;
    pub const RCV_NXT: usize = 8;
    pub const PEER_WND: usize = 12;
}

/// What follows the fixed 20-byte header of an outgoing segment.
enum Body<'a> {
    /// `len` payload bytes at `addr` whose partial sum is already known.
    Data { addr: usize, len: usize, sum: InetChecksum },
    /// A SACK option naming these ranges (pure ACKs only); none = a
    /// bare header.
    Sack(&'a [(u32, u32)]),
}

impl Body<'_> {
    /// The paper's fixed 20-byte header and nothing else — SYN, FIN and
    /// RST ride the exact data-TPDU header discipline over every
    /// backend, so wire identity between ILP and non-ILP holds from the
    /// open through teardown.
    const BARE: Body<'static> = Body::Sack(&[]);
}

impl Connection {
    /// Allocate a connection's buffers in `space` and register its port
    /// with the loop-back kernel part.
    pub fn new(space: &mut AddressSpace, lb: &mut impl KernelPart, cfg: UtcpConfig, iss: u32) -> Self {
        let endpoint = lb.register(cfg.local_port);
        let ring_region = space.alloc_kind("tcp_ring", cfg.ring_capacity, 64, RegionKind::Ring);
        // Header staging must fit the largest option area a pure ACK
        // can carry (a full SACK option).
        let hdr = space.alloc_kind(
            "tcp_hdr",
            (TCP_HEADER_LEN + sack_option_len(MAX_SACK_BLOCKS)).next_multiple_of(8),
            8,
            RegionKind::State,
        );
        let staging = space.alloc_kind(
            "tcp_recv",
            MTU + IP_HEADER_LEN + TCP_HEADER_LEN + 12,
            64,
            RegionKind::Buffer,
        );
        let tcb = space.alloc_kind("tcb", 64, 8, RegionKind::State);
        let hold = space.alloc_kind("tcp_ooo", OOO_SLOTS * MTU, 64, RegionKind::Buffer);
        let code_tcp = space.alloc_code("utcp_control", 3 * 1024);
        Connection {
            cfg,
            endpoint,
            ring: SendRing::new(ring_region),
            hdr,
            tcb,
            code_tcp,
            ticks: 0,
            time_wait_ticks: 0,
            obs_id: cfg.local_port as u32,
            snd: SendSeq::new(iss, 0),
            rcv: RecvSeq::new(staging, hold),
            rec: Recovery::new(iss),
            life: Lifecycle::new(),
            trace: SegTrace::new(0),
            #[cfg(feature = "mutation")]
            accept_after_fin_bug: false,
            stats: ConnStats::default(),
        }
    }

    /// Both ends of an in-process connection over one kernel part: the
    /// sender under `tx_cfg` at `tx_iss`, then the receiver under
    /// `tx_cfg.mirror()` at `rx_iss`, each told the other's ISS.
    pub fn pair(
        space: &mut AddressSpace,
        lb: &mut impl KernelPart,
        tx_cfg: UtcpConfig,
        tx_iss: u32,
        rx_iss: u32,
    ) -> (Self, Self) {
        let mut tx = Connection::new(space, lb, tx_cfg, tx_iss);
        let mut rx = Connection::new(space, lb, tx_cfg.mirror(), rx_iss);
        rx.set_peer_iss(tx_iss);
        tx.set_peer_iss(rx_iss);
        (tx, rx)
    }

    /// Override the id stamped on this connection's flight-recorder
    /// snapshots (see the `obs_id` field).
    pub fn set_obs_id(&mut self, id: u32) {
        self.obs_id = id;
    }

    /// The id stamped on flight-recorder snapshots.
    pub fn obs_id(&self) -> u32 {
        self.obs_id
    }

    /// Re-inject the "accept data after FIN" bug so the lifecycle
    /// oracle sweep can prove it still catches it.
    #[cfg(feature = "mutation")]
    #[doc(hidden)]
    pub fn inject_accept_after_fin_bug(&mut self, on: bool) {
        self.accept_after_fin_bug = on;
    }

    /// Passthrough to
    /// [`SendRing::inject_legacy_wrap_bug`](crate::ring::SendRing::inject_legacy_wrap_bug).
    #[cfg(feature = "mutation")]
    #[doc(hidden)]
    pub fn inject_legacy_wrap_bug(&mut self, on: bool) {
        self.ring.inject_legacy_wrap_bug(on);
    }

    /// Scrub every piece of transfer state so a reset connection can
    /// never act on stale data: empty the ring, collapse the flight
    /// window, drop the scoreboard, reassembly slots and trace ledger.
    /// `snd_nxt` and `rcv_nxt` stay — a dead connection still answers
    /// stray segments with a RST built from them.
    fn teardown_total(&mut self) {
        self.ring.ack(self.snd.nxt);
        self.snd.forget_flight();
        self.rec.restart(self.snd.nxt);
        self.rcv.drop_held();
        self.trace = SegTrace::new(self.trace.every);
    }

    /// Reset the connection in place for a fresh transfer over the same
    /// memory regions — the churn primitive. The arena is fixed after
    /// construction, so reuse must not allocate: every region (ring,
    /// staging, TCB, hold slots) is recycled and the local port is
    /// re-registered with the kernel part, which re-arms the port's one
    /// endpoint — emptied, its queue buffers kept (see
    /// [`PortDemux::register`](crate::demux::PortDemux::register)).
    /// Every part is rebuilt by the constructor [`Connection::new`]
    /// used; see [`Connection`] for what survives. Open it afterwards as
    /// at construction: [`Connection::set_peer_iss`],
    /// [`Connection::listen`] or [`Connection::connect`].
    ///
    /// # Panics
    /// If the connection is not `Closed` — reopening a live machine
    /// would resurrect acknowledged state.
    pub fn reopen(&mut self, lb: &mut impl KernelPart, iss: u32) {
        assert_eq!(self.life.state, State::Closed, "reopen requires Closed");
        debug_assert_eq!(self.ring.buffered_bytes(), 0, "Closed implies an empty ring");
        self.ring.ack(self.snd.nxt); // reset the ring tail for the new stream
        lb.unregister(self.cfg.local_port); // idempotent if already released
        self.endpoint = lb.register(self.cfg.local_port);
        self.snd = SendSeq::new(iss, self.ticks);
        self.rcv.restart();
        self.rec.restart(iss);
        self.life = Lifecycle::new();
        self.trace = SegTrace::new(self.trace.every);
    }

    /// The kernel-part endpoint this connection receives on. The server
    /// subsystem uses this to key its connection table.
    pub fn endpoint(&self) -> EndpointId {
        self.endpoint
    }

    /// The local (receiving) port.
    pub fn local_port(&self) -> u16 {
        self.cfg.local_port
    }

    /// The configured peer port.
    pub fn peer_port(&self) -> u16 {
        self.cfg.peer_port
    }

    /// Read-only view of the send/retransmission ring (simulation
    /// oracles check its invariants against the sequence counters).
    pub fn ring(&self) -> &SendRing {
        &self.ring
    }

    /// The sender-state snapshot the flight recorder retains at
    /// send/recv/RTO edges.
    fn flight_snap(&self, edge: FlightEdge) -> FlightSnap {
        FlightSnap {
            edge,
            una: self.snd.una,
            nxt: self.snd.nxt,
            rcv: self.rcv.nxt,
            cwnd: self.snd.cwnd,
            rto: self.snd.rto,
            dup_acks: self.rec.dup_acks,
            in_recovery: self.rec.point.is_some(),
        }
    }

    /// Model the TCB touches of one segment's control processing.
    fn touch_state<M: Mem>(&self, m: &mut M) {
        m.fetch(self.code_tcp);
        let _ = m.read_u32_be(self.tcb.at(tcb::SND_UNA));
        let _ = m.read_u32_be(self.tcb.at(tcb::SND_NXT));
        let _ = m.read_u32_be(self.tcb.at(tcb::RCV_NXT));
        let _ = m.read_u32_be(self.tcb.at(tcb::PEER_WND));
        m.write_u32_be(self.tcb.at(tcb::SND_UNA), self.snd.una);
        m.write_u32_be(self.tcb.at(tcb::SND_NXT), self.snd.nxt);
        m.write_u32_be(self.tcb.at(tcb::RCV_NXT), self.rcv.nxt);
        m.compute(60); // header prediction, timers, reassembly checks
    }

    /// The one segment emitter, first half: write the header for `seq`
    /// (acknowledging `rcv_nxt`), append the SACK option if `body` is
    /// one, and patch in the checksum. Returns where the bytes behind
    /// the fixed header sit, for [`Connection::ship`].
    #[inline]
    fn seal<M: Mem>(&self, m: &mut M, seq: u32, flags: TcpFlags, body: Body<'_>) -> (usize, usize) {
        let hdr = TcpHeader::at(self.hdr.base);
        hdr.build(
            m,
            self.cfg.local_port,
            self.cfg.peer_port,
            seq,
            self.rcv.nxt,
            flags,
            WINDOW,
        );
        let (addr, len, sum) = match body {
            Body::Data { addr, len, sum } => (addr, len, sum),
            Body::Sack(ranges) => {
                let (mut len, mut sum) = (0, InetChecksum::new());
                if !ranges.is_empty() {
                    len = hdr.build_sack_option(m, ranges);
                    hdr.add_options_to_checksum(m, len, &mut sum);
                }
                // The option bytes ride through the kernel part as the
                // segment's "payload".
                (self.hdr.base + TCP_HEADER_LEN, len, sum)
            }
        };
        let pseudo = PseudoHeader {
            src: self.cfg.local_ip,
            dst: self.cfg.peer_ip,
            protocol: PROTO_TCP,
            tcp_len: (TCP_HEADER_LEN + len) as u16,
        };
        let csum = hdr.segment_checksum(m, pseudo, sum);
        hdr.set_checksum(m, csum);
        (addr, len)
    }

    /// The one segment emitter, second half: hand the sealed header and
    /// the `(addr, len)` bytes behind it to the kernel part.
    #[inline]
    fn ship<M: Mem>(&self, m: &mut M, lb: &mut impl KernelPart, (addr, len): (usize, usize)) {
        lb.send(m, self.cfg.local_ip, self.cfg.peer_ip, self.cfg.peer_port, self.hdr.base, addr, len);
    }

    /// Seal and ship in one go — every segment but a data TPDU, whose
    /// `tcp_output` updates the TCB between the two halves.
    #[inline]
    fn emit<M: Mem>(
        &self,
        m: &mut M,
        lb: &mut impl KernelPart,
        seq: u32,
        flags: TcpFlags,
        body: Body<'_>,
    ) {
        let body = self.seal(m, seq, flags, body);
        self.ship(m, lb, body);
    }
}

#[cfg(test)]
mod tests;
