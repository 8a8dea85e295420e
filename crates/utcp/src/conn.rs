//! The user-level TCP connection: sequencing, acknowledgment,
//! retransmission, and the ILP/non-ILP send and receive paths.
//!
//! A connection is **uni-directional** for data (paper §3.1): one side
//! sends data segments, the other returns pure ACKs. One TSDU is exactly
//! one TPDU (the ALF rule), so the application hands over whole messages
//! and receives whole messages.
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

use checksum::internet::{add_buf, checksum_buf};
use checksum::{InetChecksum, PseudoHeader};
use ilp_core::Reject;
use memsim::layout::AddressSpace;
use memsim::region::{Region, RegionKind};
use memsim::{CodeRegion, Mem};
use obs::{
    Counter, EventKind, FlightEdge, FlightSnap, Layer, SegEv, SegTag, SpanObserver, Stage,
    XmitKind,
};

use std::collections::BTreeMap;

use crate::backend::{KernelCtx, KernelPart};
use crate::ip::{Ipv4Header, IP_HEADER_LEN, PROTO_TCP};
use crate::kernelpart::EndpointId;
use crate::ring::{Extent, RingWriter, SendRing};
use crate::wire::{sack_option_len, SackBlocks, TcpFlags, TcpHeader, MAX_SACK_BLOCKS, TCP_HEADER_LEN};

/// Duplicate ACKs required to arm fast retransmit (RFC 5681 §3.2).
const DUP_ACK_THRESHOLD: u32 = 3;

/// Out-of-order hold slots at the receiver — the bounded reassembly
/// queue. One SACK range per held run, so this also bounds the number
/// of blocks a pure ACK ever needs to carry.
const OOO_SLOTS: usize = MAX_SACK_BLOCKS;

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
    /// Maximum TPDU payload (one TSDU = one TPDU ≤ this).
    pub mtu: usize,
    /// Ring (retransmission) buffer capacity.
    pub ring_capacity: usize,
    /// Initial retransmission timeout in ticks (refined by RTT
    /// estimation once samples arrive).
    pub rto_ticks: u32,
    /// Advertised receive window.
    pub window: u16,
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
            mtu: 1536,
            ring_capacity: 16 * 1024,
            rto_ticks: 8,
            window: 16 * 1024,
            loss_recovery: true,
        }
    }
}

/// Maximum segment lifetime in virtual ticks. The active closer lingers
/// in [`State::TimeWait`] for 2·MSL before releasing its port, so old
/// duplicates from the closed incarnation cannot be mistaken for
/// segments of a new one. Small by real-world standards because the
/// virtual world's queues drain within a few ticks.
pub const MSL_TICKS: u32 = 16;

/// RFC 793 connection lifecycle states.
///
/// Data connections created by [`Connection::new`] start in
/// [`State::Established`] — the SYN exchange runs in the server
/// subsystem's accept handshake (or is pre-agreed, as in the two-process
/// UDP demo) before the data connection exists, matching the paper's
/// measurement setup. The handshake states exist so the one transition
/// matrix covers open and close; teardown (FIN/ACK, simultaneous close,
/// TIME_WAIT, RST) runs entirely inside this machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    /// Passive open: waiting for a SYN.
    Listen,
    /// Active open: SYN sent.
    SynSent,
    /// SYN received, handshake ACK outstanding.
    SynRcvd,
    /// Data transfer.
    Established,
    /// Active close: our FIN sent, nothing acked yet.
    FinWait1,
    /// Our FIN is acked; waiting for the peer's FIN (half-closed: the
    /// peer may keep streaming data, which we still accept and ACK).
    FinWait2,
    /// Simultaneous close: FINs crossed, ours still unacked.
    Closing,
    /// Peer's FIN consumed; we may still send until `close`.
    CloseWait,
    /// Passive close: our FIN sent after the peer's, awaiting its ACK.
    LastAck,
    /// Active closer lingering 2·[`MSL_TICKS`] against old duplicates.
    TimeWait,
    /// No connection.
    Closed,
}

impl State {
    /// All states, in index order.
    pub const ALL: [State; 11] = [
        State::Listen,
        State::SynSent,
        State::SynRcvd,
        State::Established,
        State::FinWait1,
        State::FinWait2,
        State::Closing,
        State::CloseWait,
        State::LastAck,
        State::TimeWait,
        State::Closed,
    ];

    /// Stable snake_case name for exposition.
    pub fn name(self) -> &'static str {
        self.tag().name()
    }

    /// Whether the application may hand new data to `reserve`/`send_*`.
    /// Only `Established` and `CloseWait` (peer half-closed, we have
    /// not) may originate data; everywhere else the send direction is
    /// shut and [`SendError::Closing`] is returned.
    pub fn may_send_data(self) -> bool {
        matches!(self, State::Established | State::CloseWait)
    }

    /// Whether inbound data is still deliverable: the peer has not yet
    /// FINed (its FIN, once consumed, promises no more data).
    pub fn may_recv_data(self) -> bool {
        matches!(
            self,
            State::Established | State::FinWait1 | State::FinWait2 | State::SynRcvd
        )
    }

    /// The observability-layer mirror of this state.
    pub fn tag(self) -> obs::ConnState {
        match self {
            State::Listen => obs::ConnState::Listen,
            State::SynSent => obs::ConnState::SynSent,
            State::SynRcvd => obs::ConnState::SynRcvd,
            State::Established => obs::ConnState::Established,
            State::FinWait1 => obs::ConnState::FinWait1,
            State::FinWait2 => obs::ConnState::FinWait2,
            State::Closing => obs::ConnState::Closing,
            State::CloseWait => obs::ConnState::CloseWait,
            State::LastAck => obs::ConnState::LastAck,
            State::TimeWait => obs::ConnState::TimeWait,
            State::Closed => obs::ConnState::Closed,
        }
    }
}

/// Why a send was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// Not enough contiguous ring space — the paper's "delay all
    /// manipulations until there is enough buffer space available again".
    BufferFull,
    /// Peer's advertised window would be overrun.
    WindowClosed,
    /// Message exceeds the MTU (would violate one-TSDU-one-TPDU).
    TooLarge {
        /// Requested payload length.
        len: usize,
        /// Configured MTU.
        mtu: usize,
    },
    /// The send direction is shut: the connection left
    /// [`State::Established`]/[`State::CloseWait`] (FIN already queued,
    /// reset, or never opened). Unlike [`SendError::WindowClosed`] this
    /// is permanent — retrying cannot succeed.
    Closing,
}

impl core::fmt::Display for SendError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SendError::BufferFull => write!(f, "retransmission ring full"),
            SendError::WindowClosed => write!(f, "peer window closed"),
            SendError::TooLarge { len, mtu } => write!(f, "TSDU of {len} bytes exceeds MTU {mtu}"),
            SendError::Closing => write!(f, "connection is closing"),
        }
    }
}

impl std::error::Error for SendError {}

/// A data segment staged in the receive buffer, awaiting the integrated
/// data manipulations and the final verdict.
#[derive(Debug, Clone, Copy)]
pub struct Delivered {
    /// Address of the staged payload (after the TCP header).
    pub payload_addr: usize,
    /// Payload length in bytes.
    pub payload_len: usize,
    /// Sequence number of the first payload byte.
    pub seq: u32,
    /// Pseudo-header + header partial checksum (header's checksum field
    /// included, so a correct segment totals 0xFFFF).
    pub control_sum: InetChecksum,
    /// True when this is the next expected in-order segment.
    pub in_order: bool,
    /// Segment-trace context that rode beside the datagram out-of-band
    /// (`None` in untraced runs and for unsampled chunks).
    pub ctx: Option<SegTag>,
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
#[derive(Debug)]
pub struct Connection {
    cfg: UtcpConfig,
    endpoint: EndpointId,
    ring: SendRing,
    /// Header staging for outgoing segments.
    hdr: Region,
    /// Receive staging buffer (header + payload).
    recv: Region,
    /// TCB words accessed through `Mem` so control processing costs are
    /// visible to the simulation.
    state: Region,
    /// Instruction footprint of the user-level TCP control path.
    code_tcp: CodeRegion,
    snd_una: u32,
    snd_nxt: u32,
    rcv_nxt: u32,
    peer_window: u16,
    ticks: u32,
    /// Tick of the last forward progress (send or ACK).
    last_progress: u32,
    /// Congestion window in bytes (Jacobson slow start / congestion
    /// avoidance; `u32::MAX`-like large when disabled).
    cwnd: u32,
    /// Slow-start threshold in bytes.
    ssthresh: u32,
    /// Smoothed RTT in ticks, scaled ×8 (RFC 6298 fixed-point); 0 = no
    /// sample yet.
    srtt8: u32,
    /// RTT variance in ticks, scaled ×4.
    rttvar4: u32,
    /// Current RTO in ticks (from the estimator, or the configured
    /// initial value).
    rto: u32,
    /// One timed segment at a time: (end sequence, tick sent). Karn's
    /// rule: invalidated on retransmission.
    rtt_probe: Option<(u32, u32)>,
    /// Consecutive duplicate ACKs counted toward (or during) fast
    /// retransmit.
    dup_acks: u32,
    /// Fast-recovery episode: `Some(recovery point)` — the `snd_nxt` at
    /// entry. Cumulative ACKs at or past the point end the episode.
    recovery: Option<u32>,
    /// Highest sequence already retransmitted by fast retransmit
    /// (NewReno-style guard against resending the same hole).
    high_rxt: u32,
    /// SACK scoreboard: received-beyond-`snd_una` ranges in coordinates
    /// *relative to `snd_una`* (shifted down as the left edge advances,
    /// so sequence wrap-around never splits a range). Sorted,
    /// non-overlapping.
    sacked: Vec<(u32, u32)>,
    /// Receiver: hold slots for checksum-verified out-of-order segments
    /// ([`OOO_SLOTS`] × mtu), replayed once the gap before them fills.
    ooo: Region,
    /// Receiver: which hold slots are live and what they contain.
    ooo_seen: Vec<OooSeg>,
    /// Monotone stamp so SACK blocks can be ordered most-recent-first
    /// (RFC 2018 §4).
    ooo_stamp: u64,
    /// Connection id stamped on flight-recorder snapshots and health
    /// events. The harness overrides it with the *global* connection
    /// index (shard `conn_base` + slot) so shard-merged flight maps
    /// never collide; standalone connections default to the local port.
    obs_id: u32,
    /// Segment-trace sampling rate (`obs::segtrace::sampled`); 0 = the
    /// tracer is off and none of the seg plumbing runs.
    seg_every: u32,
    /// Chunk armed by [`Connection::seg_begin`] for the next *fresh*
    /// send — the sender-side bridge from the application's chunk
    /// numbering to the wire's sequence numbering.
    pending_seg: Option<u32>,
    /// Sender: sequence number → trace identity of the chunk occupying
    /// that ring extent, so retransmissions (which only know the
    /// extent) rejoin their chunk's trace. Pruned as ACKs retire
    /// extents.
    seg_map: BTreeMap<u32, SegEntry>,
    /// Lifecycle state (RFC 793 machine). Renamed from the obvious
    /// `state` because that names the TCB region above.
    lifecycle: State,
    /// Sequence number our FIN occupies, once sent (it consumes one).
    fin_sent: Option<u32>,
    /// Sequence number of the peer's FIN, once consumed in order.
    fin_rcvd: Option<u32>,
    /// Tick at which TIME_WAIT was (last) entered — a retransmitted
    /// peer FIN restarts the 2·MSL clock.
    time_wait_enter: u32,
    /// Accumulated TIME_WAIT residency across incarnations, in ticks.
    time_wait_ticks: u64,
    /// Re-injected bug for the mutation proofs: accept data arriving
    /// after the peer's FIN was consumed.
    #[cfg(feature = "mutation")]
    accept_after_fin_bug: bool,
    /// Statistics.
    pub stats: ConnStats,
}

/// Sender-side trace identity of one in-flight ring extent.
#[derive(Debug, Clone, Copy)]
struct SegEntry {
    /// Chunk sequence number (application numbering).
    chunk: u32,
    /// Transmissions so far (0 = only the original send).
    xmit: u16,
    /// Sampled at enqueue, or promoted by entering loss recovery.
    traced: bool,
}

/// One checksum-verified future segment held in the receiver's
/// reassembly slots, with everything needed to replay it as a
/// [`Delivered`] once the gap before it fills.
#[derive(Debug, Clone, Copy)]
struct OooSeg {
    seq: u32,
    len: usize,
    slot: usize,
    control_sum: InetChecksum,
    stamp: u64,
    /// Trace context of the held transmission, restored on replay.
    ctx: Option<SegTag>,
}

/// TCB field offsets inside the state region.
mod tcb {
    pub const SND_UNA: usize = 0;
    pub const SND_NXT: usize = 4;
    pub const RCV_NXT: usize = 8;
    pub const PEER_WND: usize = 12;
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
        let recv = space.alloc_kind(
            "tcp_recv",
            cfg.mtu + IP_HEADER_LEN + TCP_HEADER_LEN + 12,
            64,
            RegionKind::Buffer,
        );
        let state = space.alloc_kind("tcb", 64, 8, RegionKind::State);
        let ooo = space.alloc_kind("tcp_ooo", OOO_SLOTS * cfg.mtu, 64, RegionKind::Buffer);
        let code_tcp = space.alloc_code("utcp_control", 3 * 1024);
        let mss = cfg.mtu as u32;
        Connection {
            cfg,
            endpoint,
            ring: SendRing::new(ring_region),
            hdr,
            recv,
            state,
            code_tcp,
            snd_una: iss,
            snd_nxt: iss,
            rcv_nxt: 0,
            peer_window: cfg.window,
            ticks: 0,
            last_progress: 0,
            cwnd: 2 * mss,
            ssthresh: u32::MAX / 4,
            rto: cfg.rto_ticks,
            srtt8: 0,
            rttvar4: 0,
            rtt_probe: None,
            dup_acks: 0,
            recovery: None,
            high_rxt: iss,
            sacked: Vec::new(),
            ooo,
            ooo_seen: Vec::new(),
            ooo_stamp: 0,
            obs_id: cfg.local_port as u32,
            seg_every: 0,
            pending_seg: None,
            seg_map: BTreeMap::new(),
            lifecycle: State::Established,
            fin_sent: None,
            fin_rcvd: None,
            time_wait_enter: 0,
            time_wait_ticks: 0,
            #[cfg(feature = "mutation")]
            accept_after_fin_bug: false,
            stats: ConnStats::default(),
        }
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

    /// Arm segment tracing at rate `every` (see
    /// [`obs::segtrace::sampled`]); 0 turns the tracer off. The seg
    /// plumbing touches only plain host state — never the instrumented
    /// memory — so traced and untraced runs stay byte-identical on the
    /// wire and in the memory simulation.
    pub fn set_seg_sampling(&mut self, every: u32) {
        self.seg_every = every;
    }

    /// The armed segment-trace sampling rate (0 = off).
    pub fn seg_sampling(&self) -> u32 {
        self.seg_every
    }

    /// Declare that the next fresh send carries chunk `chunk`. Returns
    /// the chunk's trace tag when the sampling rule selects it (for the
    /// caller's pipeline-stage marks); the pending ledger is fed either
    /// way so the chunk can be promoted later. No-op returning `None`
    /// while the tracer is off.
    pub fn seg_begin(&mut self, chunk: u32) -> Option<SegTag> {
        if self.seg_every == 0 {
            return None;
        }
        self.pending_seg = Some(chunk);
        obs::segtrace::sampled(self.seg_every, self.obs_id, chunk)
            .then_some(SegTag { conn: self.obs_id, chunk, xmit: 0 })
    }

    /// The sender-state snapshot the flight recorder retains at
    /// send/recv/RTO edges.
    fn flight_snap(&self, edge: FlightEdge) -> FlightSnap {
        FlightSnap {
            edge,
            una: self.snd_una,
            nxt: self.snd_nxt,
            rcv: self.rcv_nxt,
            cwnd: self.cwnd,
            rto: self.rto,
            dup_acks: self.dup_acks,
            in_recovery: self.recovery.is_some(),
        }
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> u32 {
        self.cwnd
    }

    /// Maximum segment size in bytes (one chunk's payload budget; the
    /// congestion-control unit).
    pub fn mss(&self) -> u32 {
        self.cfg.mtu as u32
    }

    /// Current slow-start threshold in bytes.
    pub fn ssthresh(&self) -> u32 {
        self.ssthresh
    }

    /// Whether the sender is inside a fast-recovery episode.
    pub fn in_recovery(&self) -> bool {
        self.recovery.is_some()
    }

    /// Consecutive duplicate ACKs seen since the last cumulative
    /// advance.
    pub fn dup_acks(&self) -> u32 {
        self.dup_acks
    }

    /// Current retransmission timeout in ticks.
    pub fn rto(&self) -> u32 {
        self.rto
    }

    /// The single source of truth for RTO bounds — every clamp (the
    /// RTT-estimator update *and* the exponential timeout back-off)
    /// goes through here, so the floor and cap can never drift apart
    /// again. Floor: a quarter of the configured initial RTO, but
    /// never below 2 ticks (sub-tick loop-back RTTs still need a timer
    /// that cannot fire on the very next tick). Cap: 16× the
    /// configured initial RTO, raised to the floor for degenerate
    /// configs (`rto_ticks` of 0 or 1).
    fn rto_bounds(&self) -> (u32, u32) {
        let floor = (self.cfg.rto_ticks / 4).max(2);
        let cap = 16u32.saturating_mul(self.cfg.rto_ticks).max(floor);
        (floor, cap)
    }

    /// Clamp a raw RTO value into [`Connection::rto_bounds`].
    fn clamp_rto(&self, raw: u32) -> u32 {
        let (floor, cap) = self.rto_bounds();
        raw.clamp(floor, cap)
    }

    /// Smoothed RTT estimate in ticks (None before the first sample).
    pub fn srtt_ticks(&self) -> Option<f64> {
        (self.srtt8 > 0).then_some(self.srtt8 as f64 / 8.0)
    }

    /// Synchronise the peer's initial sequence number (the experiment
    /// harness "opens" connections by construction; no three-way
    /// handshake, as in the paper's pre-established transfer setup).
    pub fn set_peer_iss(&mut self, iss: u32) {
        self.rcv_nxt = iss;
    }

    /// Current lifecycle state (RFC 793 machine).
    pub fn state(&self) -> State {
        self.lifecycle
    }

    /// The sequence number our FIN occupies, once `close` queued it.
    pub fn fin_sent_seq(&self) -> Option<u32> {
        self.fin_sent
    }

    /// The sequence number of the peer's FIN, once consumed in order.
    /// While this is `Some`, `rcv_nxt` is pinned at `fin + 1` and no
    /// further data may be accepted — one of the lifecycle oracles.
    pub fn fin_rcvd_seq(&self) -> Option<u32> {
        self.fin_rcvd
    }

    /// 1 while our FIN is in flight (sent but unacknowledged), else 0.
    /// The FIN consumes a sequence number without occupying ring space,
    /// so the oracle identity is
    /// `in_flight == ring.buffered_bytes() + fin_in_flight`.
    pub fn fin_in_flight(&self) -> u32 {
        u32::from(self.fin_sent.is_some() && self.snd_una != self.snd_nxt)
    }

    /// Accumulated TIME_WAIT residency in ticks, including the current
    /// (unfinished) stay when the connection is in TIME_WAIT now.
    pub fn time_wait_residency(&self) -> u64 {
        let current = if self.lifecycle == State::TimeWait {
            u64::from(self.ticks - self.time_wait_enter)
        } else {
            0
        };
        self.time_wait_ticks + current
    }

    /// Move the lifecycle machine, emitting the transition through the
    /// observer hook. Observer state is plain host memory and the
    /// transition itself is decided before the hook runs, so observed
    /// and unobserved runs stay bit-identical.
    fn set_state<O: SpanObserver>(&mut self, to: State, obs: &mut O) {
        if self.lifecycle == to {
            return;
        }
        if O::ENABLED {
            obs.lifecycle(self.obs_id, self.lifecycle.tag(), to.tag());
        }
        if to == State::TimeWait {
            self.time_wait_enter = self.ticks;
        }
        if self.lifecycle == State::TimeWait {
            self.time_wait_ticks += u64::from(self.ticks - self.time_wait_enter);
        }
        self.lifecycle = to;
    }

    /// Re-inject the "accept data after FIN" bug so the lifecycle
    /// oracle sweep can prove it still catches it.
    #[cfg(feature = "mutation")]
    #[doc(hidden)]
    pub fn inject_accept_after_fin_bug(&mut self, on: bool) {
        self.accept_after_fin_bug = on;
    }

    /// Orderly close of the send direction (RFC 793 CLOSE): queue a FIN
    /// after any data already sent and move to `FinWait1` (active) or
    /// `LastAck` (passive, after the peer's FIN). Idempotent in every
    /// other state.
    pub fn close<M: Mem>(&mut self, m: &mut M, k: &mut impl KernelCtx) {
        match self.lifecycle {
            State::Established => {
                self.send_fin(m, k);
                self.set_state(State::FinWait1, k.obs());
            }
            State::CloseWait => {
                self.send_fin(m, k);
                self.set_state(State::LastAck, k.obs());
            }
            State::Listen | State::SynSent | State::SynRcvd => {
                self.set_state(State::Closed, k.obs());
            }
            _ => {} // already closing or closed
        }
    }

    /// Abortive close (RFC 793 ABORT): send a RST, discard all send and
    /// receive state, and go straight to `Closed`. Teardown is total —
    /// nothing is retransmitted, held or resurrected afterwards.
    pub fn abort<M: Mem>(&mut self, m: &mut M, k: &mut impl KernelCtx) {
        if self.lifecycle == State::Closed {
            return;
        }
        if !matches!(self.lifecycle, State::Listen | State::SynSent) {
            self.send_rst(m, k.kernel());
        }
        self.teardown_total();
        self.set_state(State::Closed, k.obs());
    }

    /// Scrub every piece of transfer state so a reset connection can
    /// never act on stale data: empty the ring, collapse the flight
    /// window, drop the scoreboard, reassembly slots and trace maps.
    fn teardown_total(&mut self) {
        self.ring.ack(self.snd_nxt);
        self.snd_una = self.snd_nxt;
        self.rtt_probe = None;
        self.dup_acks = 0;
        self.recovery = None;
        self.sacked.clear();
        self.ooo_seen.clear();
        self.pending_seg = None;
        self.seg_map.clear();
    }

    /// Reset the connection in place for a fresh transfer over the same
    /// memory regions — the churn primitive. The arena is fixed after
    /// construction, so reuse must not allocate: every region (ring,
    /// staging, TCB, hold slots) is recycled and the local port is
    /// re-registered with the kernel part, yielding a fresh endpoint.
    /// Cumulative [`ConnStats`] and the virtual clock survive; all
    /// transfer and teardown state does not. Call
    /// [`Connection::set_peer_iss`] afterwards, as at construction.
    ///
    /// # Panics
    /// If the connection is not `Closed` — reopening a live machine
    /// would resurrect acknowledged state.
    pub fn reopen(&mut self, lb: &mut impl KernelPart, iss: u32) {
        assert_eq!(self.lifecycle, State::Closed, "reopen requires Closed");
        debug_assert_eq!(self.ring.buffered_bytes(), 0, "Closed implies an empty ring");
        self.ring.ack(self.snd_nxt); // reset the ring tail for the new stream
        lb.unregister(self.cfg.local_port); // idempotent if already released
        self.endpoint = lb.register(self.cfg.local_port);
        self.lifecycle = State::Established;
        self.snd_una = iss;
        self.snd_nxt = iss;
        self.rcv_nxt = 0;
        self.peer_window = self.cfg.window;
        self.last_progress = self.ticks;
        let mss = self.cfg.mtu as u32;
        self.cwnd = 2 * mss;
        self.ssthresh = u32::MAX / 4;
        self.rto = self.cfg.rto_ticks;
        self.srtt8 = 0;
        self.rttvar4 = 0;
        self.rtt_probe = None;
        self.dup_acks = 0;
        self.recovery = None;
        self.high_rxt = iss;
        self.sacked.clear();
        self.ooo_seen.clear();
        self.ooo_stamp = 0;
        self.pending_seg = None;
        self.seg_map.clear();
        self.fin_sent = None;
        self.fin_rcvd = None;
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

    /// Next sequence number to be sent.
    pub fn snd_nxt(&self) -> u32 {
        self.snd_nxt
    }

    /// Oldest unacknowledged sequence number.
    pub fn snd_una(&self) -> u32 {
        self.snd_una
    }

    /// Bytes in flight.
    pub fn in_flight(&self) -> u32 {
        self.snd_nxt.wrapping_sub(self.snd_una)
    }

    /// Next sequence number expected from the peer.
    pub fn rcv_nxt(&self) -> u32 {
        self.rcv_nxt
    }

    /// The peer's last advertised receive window.
    pub fn peer_window(&self) -> u16 {
        self.peer_window
    }

    /// Read-only view of the send/retransmission ring (simulation
    /// oracles check its invariants against the sequence counters).
    pub fn ring(&self) -> &SendRing {
        &self.ring
    }

    /// Passthrough to
    /// [`SendRing::inject_legacy_wrap_bug`](crate::ring::SendRing::inject_legacy_wrap_bug).
    #[cfg(feature = "mutation")]
    #[doc(hidden)]
    pub fn inject_legacy_wrap_bug(&mut self, on: bool) {
        self.ring.inject_legacy_wrap_bug(on);
    }

    /// The receive-staging region (the ILP receive loop reads from here).
    pub fn recv_region(&self) -> Region {
        self.recv
    }

    /// The pseudo-header for an outgoing segment of `payload_len` bytes.
    fn pseudo_out(&self, payload_len: usize) -> PseudoHeader {
        PseudoHeader {
            src: self.cfg.local_ip,
            dst: self.cfg.peer_ip,
            protocol: 6,
            tcp_len: (TCP_HEADER_LEN + payload_len) as u16,
        }
    }

    /// The pseudo-header an incoming segment was checksummed with.
    fn pseudo_in(&self, payload_len: usize) -> PseudoHeader {
        PseudoHeader {
            src: self.cfg.peer_ip,
            dst: self.cfg.local_ip,
            protocol: 6,
            tcp_len: (TCP_HEADER_LEN + payload_len) as u16,
        }
    }

    /// Model the TCB touches of one segment's control processing.
    fn touch_state<M: Mem>(&self, m: &mut M) {
        m.fetch(self.code_tcp);
        let _ = m.read_u32_be(self.state.at(tcb::SND_UNA));
        let _ = m.read_u32_be(self.state.at(tcb::SND_NXT));
        let _ = m.read_u32_be(self.state.at(tcb::RCV_NXT));
        let _ = m.read_u32_be(self.state.at(tcb::PEER_WND));
        m.write_u32_be(self.state.at(tcb::SND_UNA), self.snd_una);
        m.write_u32_be(self.state.at(tcb::SND_NXT), self.snd_nxt);
        m.write_u32_be(self.state.at(tcb::RCV_NXT), self.rcv_nxt);
        m.compute(60); // header prediction, timers, reassembly checks
    }

    /// Whether a `len`-byte segment fits in the send window.
    ///
    /// The flow-control invariant (audited): *flight size plus the new
    /// segment* must stay within `min(peer_window, cwnd)` — comparing
    /// `len` alone would let a sender stream an unbounded amount of
    /// unacknowledged data past a small advertised window. Every send
    /// path funnels through [`Connection::reserve`] → here, so this is
    /// the single place the bound is enforced.
    fn window_allows(&self, len: usize) -> bool {
        let allowed = (self.peer_window as u32).min(self.cwnd);
        self.in_flight() as usize + len <= allowed as usize
    }

    // ------------------------------------------------------------------
    // Send side
    // ------------------------------------------------------------------

    /// Validate a send of `len` bytes and reserve ring space. The
    /// lifecycle gate comes first: once the send direction is shut
    /// (FIN queued, reset, or never opened) no amount of draining can
    /// make the send legal, and the caller must see that distinctly
    /// from transient back-pressure.
    fn reserve(&mut self, len: usize) -> Result<Extent, SendError> {
        if !self.lifecycle.may_send_data() {
            return Err(SendError::Closing);
        }
        if len > self.cfg.mtu {
            return Err(SendError::TooLarge { len, mtu: self.cfg.mtu });
        }
        if !self.window_allows(len) {
            return Err(SendError::WindowClosed);
        }
        self.ring.alloc(len, self.snd_nxt).ok_or(SendError::BufferFull)
    }

    /// Whether an ILP send of `len` bytes could proceed right now (the
    /// paper's buffer-availability check before entering the loop).
    pub fn can_send(&self, len: usize) -> bool {
        self.lifecycle.may_send_data()
            && len <= self.cfg.mtu
            && self.window_allows(len)
            && self.ring.free_bytes() >= len // conservative: ignores wrap waste
    }

    /// **Non-ILP send**: copy the prepared segment from `src` into the
    /// ring (`tcp_send`, reported as integrated-stage TCP work), checksum
    /// it with a separate read pass and ship it (`tcp_output`).
    ///
    /// # Errors
    /// Refused when the send direction is shut, the TSDU exceeds the
    /// MTU, or the window or ring has no room.
    pub fn send_buf<M: Mem>(
        &mut self,
        m: &mut M,
        k: &mut impl KernelCtx,
        src: usize,
        len: usize,
    ) -> Result<(), SendError> {
        let extent = self.reserve(len)?;
        let t = k.mark(m);
        m.copy(src, self.ring.addr(extent.off), len); // tcp_send
        k.span(m, Stage::Integrated, Layer::Tcp, t);
        self.output(m, k, extent, None, XmitKind::Fresh);
        Ok(())
    }

    /// **ILP send, step 1**: reserve ring space and return the writer the
    /// fused loop stores into.
    pub fn begin_ilp_send(&mut self, len: usize) -> Result<(Extent, RingWriter), SendError> {
        let extent = self.reserve(len)?;
        Ok((extent, self.ring.writer(extent)))
    }

    /// A ring writer positioned `offset` bytes into an extent — one per
    /// part of the B→C→A schedule.
    pub fn ring_writer_at(&self, extent: Extent, offset: usize) -> RingWriter {
        self.ring.writer_at(extent, offset)
    }

    /// **ILP send, step 2**: the fused loop computed `payload_sum` while
    /// storing; build the header and ship without re-reading the data.
    pub fn commit_send<M: Mem>(
        &mut self,
        m: &mut M,
        k: &mut impl KernelCtx,
        extent: Extent,
        payload_sum: InetChecksum,
    ) {
        self.output(m, k, extent, Some(payload_sum), XmitKind::Fresh);
    }

    /// `tcp_output`: complete the header (checksumming the ring data only
    /// when no precomputed sum exists), update the TCB, system-copy into
    /// the kernel part. The separate checksum read pass (non-ILP only)
    /// reports as integrated-stage checksum work; header build, TCB
    /// update and the kernel hand-off report as final-stage TCP work,
    /// with the kernel part's system copy landing in the kernel layer
    /// via the system counter. `kind` names how the transmission left
    /// the sender for the segment tracer.
    fn output<M: Mem, K: KernelCtx>(
        &mut self,
        m: &mut M,
        k: &mut K,
        extent: Extent,
        payload_sum: Option<InetChecksum>,
        kind: XmitKind,
    ) {
        let data_addr = self.ring.addr(extent.off);
        let payload_sum = payload_sum.unwrap_or_else(|| {
            let t = k.mark(m);
            let sum = checksum_buf(m, data_addr, extent.len); // step 4, non-ILP only
            k.span(m, Stage::Integrated, Layer::Checksum, t);
            sum
        });
        let t = k.mark(m);
        let hdr = TcpHeader::at(self.hdr.base);
        hdr.build(
            m,
            self.cfg.local_port,
            self.cfg.peer_port,
            extent.seq,
            self.rcv_nxt,
            TcpFlags::DATA,
            self.cfg.window,
        );
        let csum = hdr.segment_checksum(m, self.pseudo_out(extent.len), payload_sum);
        hdr.set_checksum(m, csum);
        let is_retransmit = extent.seq != self.snd_nxt;
        if !is_retransmit {
            self.snd_nxt = self.snd_nxt.wrapping_add(extent.len as u32);
            self.last_progress = self.ticks;
            if self.rtt_probe.is_none() {
                self.rtt_probe = Some((self.snd_nxt, self.ticks));
            }
        } else {
            // Karn's rule: a retransmitted segment's ACK must not feed
            // the RTT estimator.
            self.rtt_probe = None;
        }
        self.touch_state(m);
        self.stats.data_sent += 1;
        if is_retransmit {
            self.stats.retransmits += 1;
        }
        // Segment tracer: resolve this transmission's trace identity
        // (plain host state only — no `Mem` traffic) and arm the
        // out-of-band context so the tag rides beside the datagram.
        if self.seg_every != 0 {
            let identity = if is_retransmit {
                self.seg_map.get_mut(&extent.seq).map(|ent| {
                    ent.xmit += 1;
                    // Entering loss recovery promotes the chunk: every
                    // retransmitted chunk is traced from here on.
                    ent.traced = true;
                    (SegTag { conn: self.obs_id, chunk: ent.chunk, xmit: ent.xmit }, true)
                })
            } else {
                self.pending_seg.take().map(|chunk| {
                    let traced = obs::segtrace::sampled(self.seg_every, self.obs_id, chunk);
                    self.seg_map.insert(extent.seq, SegEntry { chunk, xmit: 0, traced });
                    (SegTag { conn: self.obs_id, chunk, xmit: 0 }, traced)
                })
            };
            if let Some((tag, traced)) = identity {
                k.seg(Some(tag), SegEv::Send { kind, traced });
                if traced {
                    k.kernel().set_send_ctx(Some(tag));
                }
            }
        }
        k.kernel().send(
            m,
            self.cfg.local_ip,
            self.cfg.peer_ip,
            self.cfg.peer_port,
            self.hdr.base,
            data_addr,
            extent.len,
        ); // step 5
        k.span(m, Stage::Final, Layer::Tcp, t);
        if K::Obs::ENABLED {
            k.obs().flight(self.obs_id, self.flight_snap(FlightEdge::Send));
        }
    }

    /// Advance the clock; retransmit the oldest unacknowledged segment on
    /// RTO expiry (its `tcp_output` reports like any other send).
    pub fn tick<M: Mem, K: KernelCtx>(&mut self, m: &mut M, k: &mut K) {
        self.ticks += 1;
        if self.lifecycle == State::Closed {
            self.last_progress = self.ticks;
            return;
        }
        if self.lifecycle == State::TimeWait {
            // The 2·MSL quiet period: nothing is transmitted, the
            // machine only waits out stragglers, then dies for real.
            self.last_progress = self.ticks;
            if self.ticks.wrapping_sub(self.time_wait_enter) >= 2 * MSL_TICKS {
                self.set_state(State::Closed, k.obs());
            }
            return;
        }
        if self.in_flight() == 0 {
            self.last_progress = self.ticks;
            return;
        }
        if self.ticks.wrapping_sub(self.last_progress) >= self.rto {
            if self.ring.oldest().is_none() && self.fin_in_flight() == 1 {
                // Only the FIN is outstanding: retransmit it under the
                // same exponential back-off. No cwnd collapse — there
                // is no data in flight left to collapse for.
                self.last_progress = self.ticks;
                self.dup_acks = 0;
                self.rtt_probe = None; // Karn
                self.rto = self.clamp_rto(self.rto.saturating_mul(2));
                self.stats.retransmits += 1;
                if K::Obs::ENABLED {
                    k.obs().count(Counter::RtoBackoffs, 1);
                    k.obs().event(EventKind::RtoBackoff, self.obs_id, self.rto as u64);
                }
                let seq = self.fin_sent.expect("fin_in_flight implies fin_sent");
                self.emit_ctl(m, k.kernel(), seq, TcpFlags::FIN_ACK);
                return;
            }
            if let Some(oldest) = self.ring.oldest() {
                self.last_progress = self.ticks; // back-off: one per RTO
                // Timeout: collapse to slow start (Jacobson).
                let mss = self.cfg.mtu as u32;
                self.ssthresh = (self.in_flight() / 2).max(2 * mss);
                self.cwnd = mss;
                self.stats.cwnd_cuts += 1;
                // An RTO supersedes any fast-recovery episode, and the
                // scoreboard may be stale (SACKs are advisory, RFC 2018
                // §8) — forget it and rebuild from fresh ACKs.
                self.dup_acks = 0;
                self.recovery = None;
                self.sacked.clear();
                self.high_rxt = self.snd_una;
                self.rto = self.clamp_rto(self.rto.saturating_mul(2)); // exponential back-off
                if K::Obs::ENABLED {
                    let obs = k.obs();
                    obs.count(Counter::RtoBackoffs, 1);
                    obs.event(EventKind::RtoBackoff, self.obs_id, self.rto as u64);
                    obs.flight(self.obs_id, self.flight_snap(FlightEdge::Rto));
                }
                self.output(m, k, oldest, None, XmitKind::Rto);
            }
        }
    }

    // ------------------------------------------------------------------
    // Receive side
    // ------------------------------------------------------------------

    /// Poll the kernel part. Pure ACKs are consumed internally (returning
    /// `None`); a data segment is staged into the receive buffer and
    /// returned for the integrated stage. This is the receive-side system
    /// copy + the *initial* control operations (demux happened in the
    /// kernel part; header parsing happens here).
    ///
    /// The whole poll — kernel IP validation, the system copy into
    /// staging (attributed to the kernel layer via the system counter),
    /// header parse and internal ACK processing — reports as
    /// initial-stage TCP work.
    pub fn poll_input<M: Mem, K: KernelCtx>(&mut self, m: &mut M, k: &mut K) -> Option<Delivered> {
        let t = k.mark(m);
        let pre = (self.snd_una, self.rcv_nxt, self.peer_window);
        let out = self.poll_input_inner(m, k);
        k.span(m, Stage::Initial, Layer::Tcp, t);
        // Only state *transitions* earn a flight snapshot — an idle
        // poll would otherwise flood the tiny ring with no-ops.
        if K::Obs::ENABLED && pre != (self.snd_una, self.rcv_nxt, self.peer_window) {
            k.obs().flight(self.obs_id, self.flight_snap(FlightEdge::Recv));
        }
        out
    }

    fn poll_input_inner<M: Mem, K: KernelCtx>(&mut self, m: &mut M, k: &mut K) -> Option<Delivered> {
        // A held out-of-order segment whose gap has filled replays ahead
        // of fresh datagrams — it is the next in-order TSDU now.
        if self.cfg.loss_recovery {
            if let Some(held) = self.take_ready_ooo(m) {
                return Some(held);
            }
        }
        loop {
            let datagram = k.kernel().recv_into(m, self.endpoint)?;
            let ctx = k.kernel().take_recv_ctx();
            // Kernel: IP validation + demultiplexing, then the system
            // copy into the receive staging buffer (step 1, Fig. 5).
            m.phase_push(memsim::mem::PhaseTag::System);
            let ip = Ipv4Header::at(datagram.addr);
            // A backend may admit frames larger than the staging buffer
            // (`netback::codec` frames up to 2 KB): refuse them before
            // the copy, not after it has run over the TCB.
            let ip_ok = datagram.len <= self.recv.len
                && ip.verify(m)
                && ip.protocol(m) == PROTO_TCP
                && ip.dst(m) == self.cfg.local_ip
                && ip.total_len(m) == datagram.len;
            if ip_ok {
                m.copy(datagram.addr, self.recv.base, datagram.len);
            }
            m.phase_pop();
            if !ip_ok {
                self.stats.rejected += 1;
                continue;
            }
            let hdr = TcpHeader::at(self.recv.base + IP_HEADER_LEN);
            let seq = hdr.seq(m);
            let ack = hdr.ack(m);
            let flags = hdr.flags(m);
            let window = hdr.window(m);
            let hdr_len = hdr.header_len(m);
            let tcp_total = datagram.len - IP_HEADER_LEN;
            if hdr_len < TCP_HEADER_LEN || hdr_len > tcp_total {
                self.stats.rejected += 1;
                continue;
            }
            let opt_len = hdr_len - TCP_HEADER_LEN;
            let payload_len = tcp_total - hdr_len;
            if payload_len > self.cfg.mtu {
                // One TSDU = one TPDU ≤ MTU, and the out-of-order hold
                // slots are MTU-sized.
                self.stats.rejected += 1;
                continue;
            }
            m.compute(40); // header prediction / initial parse

            if flags.contains(TcpFlags::RST) {
                // A RST is destructive, so unlike a plain ACK its header
                // is checksum-verified before it is honoured; it must be
                // a bare header and fall inside the receive window.
                // TIME_WAIT ignores RSTs so a late one cannot cut the
                // 2·MSL quiet period short.
                let mut sum = InetChecksum::new();
                self.pseudo_in(opt_len + payload_len).add_to(&mut sum);
                hdr.add_to_checksum(m, &mut sum);
                let seq_ok = seq.wrapping_sub(self.rcv_nxt) <= u32::from(self.cfg.window);
                if opt_len != 0
                    || payload_len != 0
                    || sum.finish() != 0
                    || !seq_ok
                    || matches!(self.lifecycle, State::TimeWait | State::Closed)
                {
                    self.stats.rejected += 1;
                    continue;
                }
                self.stats.resets_received += 1;
                self.teardown_total();
                self.set_state(State::Closed, k.obs());
                continue;
            }

            if self.lifecycle == State::Closed {
                // A segment for a dead connection: answer with a RST so
                // the peer tears down instead of retransmitting into the
                // void (RFC 793: "if the connection does not exist ...
                // a reset is sent").
                self.stats.rejected += 1;
                self.send_rst(m, k.kernel());
                continue;
            }

            if flags.contains(TcpFlags::FIN) && payload_len == 0 {
                // A FIN moves the machine, so verify it first (a plain
                // ACK's fields are guarded by `process_ack` instead).
                let mut sum = InetChecksum::new();
                self.pseudo_in(opt_len).add_to(&mut sum);
                hdr.add_to_checksum(m, &mut sum);
                if opt_len > 0 {
                    hdr.add_options_to_checksum(m, opt_len, &mut sum);
                }
                if sum.finish() != 0 {
                    self.stats.rejected += 1;
                    continue;
                }
                if flags.contains(TcpFlags::ACK) {
                    self.process_ack(m, k, ack, window, &SackBlocks::default());
                }
                self.handle_fin(m, k, seq);
                continue;
            }

            if payload_len > 0 && self.fin_rcvd.is_some() {
                #[cfg(feature = "mutation")]
                if self.accept_after_fin_bug {
                    // Deliberately wrong (see
                    // `inject_accept_after_fin_bug`): counts the segment
                    // accepted and moves `rcv_nxt` past the consumed FIN
                    // — exactly the corruption the lifecycle oracles pin
                    // (`rcv_nxt` stays at fin+1, `accepted` frozen).
                    self.stats.accepted += 1;
                    self.rcv_nxt = self.rcv_nxt.wrapping_add(payload_len as u32);
                    continue;
                }
                // Data past the peer's FIN: the FIN promised no more.
                // Drop it and re-ACK fin+1 (covers the common benign
                // case — a retransmission whose original ACK was lost
                // racing the FIN).
                self.stats.rejected += 1;
                self.send_ack(m, k.kernel());
                continue;
            }

            if payload_len == 0 && flags.contains(TcpFlags::ACK) {
                let sacks = if opt_len > 0 {
                    // An option-bearing ACK must be verified before the
                    // scoreboard honours it — a corrupted SACK range
                    // would mark never-received data as received.
                    let mut sum = InetChecksum::new();
                    self.pseudo_in(opt_len).add_to(&mut sum);
                    hdr.add_to_checksum(m, &mut sum);
                    hdr.add_options_to_checksum(m, opt_len, &mut sum);
                    if sum.finish() != 0 {
                        self.stats.rejected += 1;
                        continue;
                    }
                    hdr.sack_blocks(m)
                } else {
                    SackBlocks::default()
                };
                self.process_ack(m, k, ack, window, &sacks);
                continue; // keep polling for data
            }

            // Pseudo-header + full header partial sum (checksum field as
            // received: a correct segment folds to 0xFFFF overall).
            let mut control_sum = InetChecksum::new();
            self.pseudo_in(opt_len + payload_len).add_to(&mut control_sum);
            hdr.add_to_checksum(m, &mut control_sum);
            if opt_len > 0 {
                hdr.add_options_to_checksum(m, opt_len, &mut control_sum);
            }

            k.seg(ctx, SegEv::KernelRecv);
            return Some(Delivered {
                payload_addr: self.recv.base + IP_HEADER_LEN + hdr_len,
                payload_len,
                seq,
                control_sum,
                in_order: seq == self.rcv_nxt,
                ctx,
            });
        }
    }

    /// Pop a held out-of-order segment that has become the next
    /// expected one. The payload bytes in the hold slot are exactly the
    /// bytes the original checksum pass verified, so the stored control
    /// sum still folds to zero against them.
    fn take_ready_ooo<M: Mem>(&mut self, m: &mut M) -> Option<Delivered> {
        let idx = self.ooo_seen.iter().position(|s| s.seq == self.rcv_nxt)?;
        let held = self.ooo_seen.swap_remove(idx);
        m.fetch(self.code_tcp);
        m.compute(10); // reassembly-queue lookup
        Some(Delivered {
            payload_addr: self.ooo.at(held.slot * self.cfg.mtu),
            payload_len: held.len,
            seq: held.seq,
            control_sum: held.control_sum,
            in_order: true,
            ctx: held.ctx,
        })
    }

    /// Hold a checksum-verified future segment for reassembly. Bounded
    /// at [`OOO_SLOTS`]; duplicates, old segments and out-of-window
    /// segments are simply not stored (the duplicate ACK still goes out
    /// either way). Returns whether the segment entered the hold.
    fn store_out_of_order<M: Mem>(&mut self, m: &mut M, d: &Delivered) -> bool {
        let dist = d.seq.wrapping_sub(self.rcv_nxt);
        if d.payload_len == 0 || dist == 0 || dist > u32::from(self.cfg.window) {
            return false;
        }
        if self.ooo_seen.iter().any(|s| s.seq == d.seq) || self.ooo_seen.len() >= OOO_SLOTS {
            return false;
        }
        let mut used = [false; OOO_SLOTS];
        for s in &self.ooo_seen {
            used[s.slot] = true;
        }
        let slot = (0..OOO_SLOTS).find(|&i| !used[i]).expect("a free slot exists");
        m.copy(d.payload_addr, self.ooo.at(slot * self.cfg.mtu), d.payload_len);
        self.ooo_stamp += 1;
        self.ooo_seen.push(OooSeg {
            seq: d.seq,
            len: d.payload_len,
            slot,
            control_sum: d.control_sum,
            stamp: self.ooo_stamp,
            ctx: d.ctx,
        });
        true
    }

    /// Drop held segments the cumulative edge has passed.
    fn prune_ooo(&mut self) {
        let rcv = self.rcv_nxt;
        self.ooo_seen.retain(|s| (s.seq.wrapping_sub(rcv) as i32) >= 0);
    }

    /// The held runs as SACK ranges: contiguous held segments merge
    /// into one block, and blocks are ordered most recently changed
    /// first so the sender learns the newest edge even when blocks are
    /// truncated (RFC 2018 §4).
    fn sack_ranges(&self) -> Vec<(u32, u32)> {
        let rcv = self.rcv_nxt;
        let mut segs: Vec<&OooSeg> = self.ooo_seen.iter().collect();
        segs.sort_by_key(|s| s.seq.wrapping_sub(rcv));
        let mut runs: Vec<(u32, u32, u64)> = Vec::new();
        for s in segs {
            let end = s.seq.wrapping_add(s.len as u32);
            match runs.last_mut() {
                Some(r) if r.1 == s.seq => {
                    r.1 = end;
                    r.2 = r.2.max(s.stamp);
                }
                _ => runs.push((s.seq, end, s.stamp)),
            }
        }
        runs.sort_by_key(|r| std::cmp::Reverse(r.2));
        runs.into_iter().map(|(s, e, _)| (s, e)).collect()
    }

    /// Non-ILP checksum verification: a separate read pass over the
    /// staged payload (step 2 of Figure 5).
    pub fn verify_checksum<M: Mem>(&self, m: &mut M, d: &Delivered) -> bool {
        let mut sum = d.control_sum;
        add_buf(m, d.payload_addr, d.payload_len, &mut sum);
        sum.finish() == 0
    }

    /// **Final stage**: accept or reject the staged segment given the
    /// payload checksum produced by the integrated stage (fused or
    /// separate). On accept, advances `rcv_nxt` and emits an ACK; on
    /// reject, state is untouched (the paper's motivation for early
    /// manipulation: "TCP processing can proceed without a possible roll
    /// back later on") — except that a duplicate/out-of-order segment
    /// still triggers a (repeat) ACK so the sender can make progress.
    ///
    /// Reports the hold/accept/ACK trace marks but no span: the final
    /// stage is bracketed by whoever shaped it (`ilp_core::three_stage`
    /// on the ILP path, the non-ILP receive path's own bracket).
    ///
    /// # Errors
    /// [`Reject::BadChecksum`] on a failed verdict, [`Reject::Malformed`]
    /// for a segment that is not the next in order.
    pub fn finish_recv<M: Mem>(
        &mut self,
        m: &mut M,
        k: &mut impl KernelCtx,
        d: &Delivered,
        payload_sum: InetChecksum,
    ) -> Result<(), Reject> {
        let mut sum = d.control_sum;
        sum.combine(payload_sum);
        let computed = sum.finish();
        if computed != 0 {
            self.stats.rejected += 1;
            return Err(Reject::BadChecksum { expected: 0, computed });
        }
        if !d.in_order {
            self.stats.rejected += 1;
            if self.cfg.loss_recovery && self.store_out_of_order(m, d) {
                k.seg(d.ctx, SegEv::Hold);
            }
            self.send_ack(m, k.kernel()); // duplicate ACK (carries SACK if holding)
            return Err(Reject::Malformed("out-of-order segment"));
        }
        self.rcv_nxt = self.rcv_nxt.wrapping_add(d.payload_len as u32);
        self.stats.accepted += 1;
        if self.cfg.loss_recovery {
            self.prune_ooo();
        }
        k.seg(d.ctx, SegEv::Accept);
        self.touch_state(m);
        self.send_ack(m, k.kernel());
        k.seg(d.ctx, SegEv::AckGen);
        Ok(())
    }

    /// Emit a pure ACK. While holding out-of-order data (and loss
    /// recovery is on) it carries a SACK option naming the held runs;
    /// the option bytes ride through the kernel part as the segment's
    /// "payload", so every backend ships them without change.
    fn send_ack<M: Mem>(&mut self, m: &mut M, lb: &mut impl KernelPart) {
        let hdr = TcpHeader::at(self.hdr.base);
        hdr.build(
            m,
            self.cfg.local_port,
            self.cfg.peer_port,
            self.snd_nxt,
            self.rcv_nxt,
            TcpFlags::ACK,
            self.cfg.window,
        );
        let mut opt_len = 0;
        let mut opt_sum = InetChecksum::new();
        if self.cfg.loss_recovery && !self.ooo_seen.is_empty() {
            let ranges = self.sack_ranges();
            opt_len = hdr.build_sack_option(m, &ranges);
            hdr.add_options_to_checksum(m, opt_len, &mut opt_sum);
        }
        let csum = hdr.segment_checksum(m, self.pseudo_out(opt_len), opt_sum);
        hdr.set_checksum(m, csum);
        self.stats.acks_sent += 1;
        lb.send(
            m,
            self.cfg.local_ip,
            self.cfg.peer_ip,
            self.cfg.peer_port,
            self.hdr.base,
            self.hdr.base + TCP_HEADER_LEN,
            opt_len,
        );
    }

    /// Emit a zero-payload control segment (FIN|ACK or RST) with the
    /// paper's fixed 20-byte header — no options, no payload — so FIN
    /// and RST ride the exact data-TPDU header discipline over every
    /// backend and wire identity between ILP and non-ILP holds through
    /// teardown.
    fn emit_ctl<M: Mem>(&mut self, m: &mut M, lb: &mut impl KernelPart, seq: u32, flags: TcpFlags) {
        let hdr = TcpHeader::at(self.hdr.base);
        hdr.build(
            m,
            self.cfg.local_port,
            self.cfg.peer_port,
            seq,
            self.rcv_nxt,
            flags,
            self.cfg.window,
        );
        let csum = hdr.segment_checksum(m, self.pseudo_out(0), InetChecksum::new());
        hdr.set_checksum(m, csum);
        lb.send(
            m,
            self.cfg.local_ip,
            self.cfg.peer_ip,
            self.cfg.peer_port,
            self.hdr.base,
            self.hdr.base + TCP_HEADER_LEN,
            0,
        );
    }

    /// Queue and transmit our FIN. The FIN consumes one sequence number
    /// (`snd_nxt` advances past it) without occupying ring space; the
    /// retransmission timer keeps it alive through
    /// [`Connection::fin_in_flight`] until the peer acknowledges it.
    fn send_fin<M: Mem, K: KernelCtx>(&mut self, m: &mut M, k: &mut K) {
        let seq = self.snd_nxt;
        self.fin_sent = Some(seq);
        self.snd_nxt = self.snd_nxt.wrapping_add(1);
        self.stats.fins_sent += 1;
        self.last_progress = self.ticks;
        // Karn: never sample RTT across the FIN exchange — a teardown
        // ACK may cover a retransmitted FIN.
        self.rtt_probe = None;
        self.emit_ctl(m, k.kernel(), seq, TcpFlags::FIN_ACK);
        self.touch_state(m);
        if K::Obs::ENABLED {
            k.obs().flight(self.obs_id, self.flight_snap(FlightEdge::Send));
        }
    }

    /// Emit a RST at the current `snd_nxt`. A RST consumes no sequence
    /// number and is never retransmitted (teardown by RST is total on
    /// both sides; a lost RST is re-elicited by the peer's next segment).
    fn send_rst<M: Mem>(&mut self, m: &mut M, lb: &mut impl KernelPart) {
        self.stats.resets_sent += 1;
        self.emit_ctl(m, lb, self.snd_nxt, TcpFlags::RST);
    }

    /// Consume a peer FIN at `seq`. In order: advance `rcv_nxt` past
    /// it, move the machine, and ACK. A retransmitted FIN (already
    /// consumed) is re-ACKed, and in TIME_WAIT it also restarts the
    /// 2·MSL quiet period (RFC 793 §3.9); an out-of-order FIN (data
    /// still missing before it) only repeats the cumulative ACK.
    fn handle_fin<M: Mem>(&mut self, m: &mut M, k: &mut impl KernelCtx, seq: u32) {
        if self.fin_rcvd == Some(seq) {
            if self.lifecycle == State::TimeWait {
                self.time_wait_ticks += u64::from(self.ticks - self.time_wait_enter);
                self.time_wait_enter = self.ticks;
            }
            self.send_ack(m, k.kernel());
            return;
        }
        if seq != self.rcv_nxt {
            self.stats.rejected += 1;
            self.send_ack(m, k.kernel());
            return;
        }
        let obs = k.obs();
        self.rcv_nxt = self.rcv_nxt.wrapping_add(1);
        self.fin_rcvd = Some(seq);
        self.stats.fins_received += 1;
        match self.lifecycle {
            State::Established | State::SynRcvd => self.set_state(State::CloseWait, obs),
            State::FinWait1 => {
                // Our own FIN already acknowledged → straight to
                // TIME_WAIT; still in flight → simultaneous close.
                if self.fin_in_flight() == 0 {
                    self.set_state(State::TimeWait, obs);
                } else {
                    self.set_state(State::Closing, obs);
                }
            }
            State::FinWait2 => self.set_state(State::TimeWait, obs),
            _ => {}
        }
        self.touch_state(m);
        self.send_ack(m, k.kernel());
    }

    /// Process an incoming cumulative ACK (and its SACK option, if
    /// any). Duplicate ACKs feed the fast-retransmit counter; forward
    /// ACKs advance the window, the RTT estimator and — outside
    /// recovery — the congestion window.
    fn process_ack<M: Mem, K: KernelCtx>(
        &mut self,
        m: &mut M,
        k: &mut K,
        ack: u32,
        window: u16,
        sacks: &SackBlocks,
    ) {
        let window_update = window != self.peer_window;
        self.peer_window = window;
        if self.cfg.loss_recovery && !sacks.is_empty() {
            let fresh = self.scoreboard_insert(sacks);
            if fresh > 0 {
                self.stats.sacked_bytes += fresh;
                if K::Obs::ENABLED {
                    k.obs().count(Counter::SackedBytes, fresh);
                }
            }
        }
        let advanced = ack.wrapping_sub(self.snd_una);
        if advanced == 0 || advanced > self.in_flight() {
            // No cumulative progress. An exact repeat of `snd_una` with
            // data outstanding and no window change is a duplicate ACK
            // — the loss signal fast retransmit counts. A pure window
            // update (RFC 5681 §2) or a stale ACK is neither.
            if self.cfg.loss_recovery
                && advanced == 0
                && !window_update
                && self.in_flight() > 0
            {
                self.on_dup_ack(m, k);
            }
            return;
        }
        self.snd_una = ack;
        // Shift the scoreboard's relative coordinates down with the
        // left edge; everything the cumulative ACK covers is gone.
        if !self.sacked.is_empty() {
            for r in &mut self.sacked {
                r.0 = r.0.saturating_sub(advanced);
                r.1 = r.1.saturating_sub(advanced);
            }
            self.sacked.retain(|r| r.0 < r.1);
        }
        if (self.high_rxt.wrapping_sub(ack) as i32) < 0 {
            self.high_rxt = ack;
        }
        self.ring.ack(ack);
        if !self.seg_map.is_empty() {
            // Drop trace identities of fully-acked extents (same
            // wrapping order as the ring's own retirement).
            self.seg_map.retain(|&seq, _| (seq.wrapping_sub(ack) as i32) >= 0);
        }
        self.last_progress = self.ticks;
        self.stats.acks_received += 1;
        // RTT sample (Karn-filtered) → Jacobson estimator → RTO.
        if let Some((probe_end, sent_at)) = self.rtt_probe {
            if ack.wrapping_sub(probe_end) < u32::MAX / 2 || ack == probe_end {
                // Sub-tick responses (loop-back) count as one tick.
                let sample = self.ticks.wrapping_sub(sent_at).max(1);
                if self.srtt8 == 0 {
                    self.srtt8 = sample * 8;
                    self.rttvar4 = sample * 2;
                } else {
                    // RFC 6298 fixed point: srtt8 = 8·srtt, rttvar4 = 4·rttvar.
                    let err = sample as i64 - (self.srtt8 / 8) as i64;
                    self.srtt8 = (self.srtt8 as i64 + err).max(1) as u32;
                    self.rttvar4 =
                        ((self.rttvar4 as i64 * 3) / 4 + err.abs()).max(1) as u32;
                }
                self.rto = self.clamp_rto(self.srtt8 / 8 + self.rttvar4.max(1));
                self.rtt_probe = None;
            }
        }
        let mut grow = true;
        if let Some(point) = self.recovery {
            self.dup_acks = 0;
            if (ack.wrapping_sub(point) as i32) >= 0 {
                // Recovery point reached: the episode ends with cwnd at
                // the halved ssthresh — halved, not collapsed.
                self.recovery = None;
            } else {
                // Partial ACK: the next hole was lost too (NewReno §3.2)
                // — fill it now instead of waiting for more dup ACKs.
                grow = false;
                self.retransmit_hole(m, k);
            }
        } else {
            self.dup_acks = 0;
        }
        // Congestion window growth: slow start below ssthresh, linear
        // (one MSS per window) above. Frozen during recovery.
        if grow {
            debug_assert!(advanced > 0, "cwnd growth requires a forward ACK");
            let mss = self.cfg.mtu as u32;
            if self.cwnd < self.ssthresh {
                self.cwnd = self.cwnd.saturating_add(advanced.min(mss));
            } else {
                self.cwnd = self.cwnd.saturating_add((mss * mss / self.cwnd).max(1));
            }
            self.cwnd = self.cwnd.min(u32::MAX / 4);
        }
        // Our FIN fully acknowledged: the send direction is done, move
        // the machine (RFC 793 §3.9, "if our FIN is now acknowledged").
        if self.fin_sent.is_some() && self.snd_una == self.snd_nxt {
            match self.lifecycle {
                State::FinWait1 => self.set_state(State::FinWait2, k.obs()),
                State::Closing => self.set_state(State::TimeWait, k.obs()),
                State::LastAck => self.set_state(State::Closed, k.obs()),
                _ => {}
            }
        }
        self.touch_state(m);
        m.compute(20);
    }

    /// One more duplicate ACK for `snd_una`: the third arms fast
    /// retransmit; further ones during recovery keep filling holes.
    fn on_dup_ack<M: Mem>(&mut self, m: &mut M, k: &mut impl KernelCtx) {
        self.dup_acks += 1;
        if self.recovery.is_some() {
            // Each additional dup ACK during recovery means another
            // segment left the network; use it to fill the next hole.
            self.retransmit_hole(m, k);
        } else if self.dup_acks >= DUP_ACK_THRESHOLD {
            self.enter_recovery(m, k);
        }
    }

    /// RFC 5681 fast retransmit / fast recovery entry: halve (do not
    /// collapse) the window and resend the first hole. Deviation from
    /// the RFC: no +3·MSS inflation — the loop-back harness drains ACKs
    /// within the same virtual tick, so inflation would only distort
    /// the cwnd traces the simulation oracles pin.
    fn enter_recovery<M: Mem>(&mut self, m: &mut M, k: &mut impl KernelCtx) {
        let mss = self.cfg.mtu as u32;
        self.ssthresh = (self.in_flight() / 2).max(2 * mss);
        self.cwnd = self.ssthresh;
        self.stats.cwnd_cuts += 1;
        self.recovery = Some(self.snd_nxt);
        self.high_rxt = self.snd_una;
        self.retransmit_hole(m, k);
    }

    /// Retransmit the first hole — the oldest un-sacked extent past
    /// `high_rxt`, below the recovery point — if there is one.
    fn retransmit_hole<M: Mem, K: KernelCtx>(&mut self, m: &mut M, k: &mut K) {
        let Some(extent) = self.next_hole() else { return };
        self.high_rxt = extent.seq.wrapping_add(extent.len as u32);
        // A recovery retransmission is forward progress — it must not
        // race the retransmission timer into a spurious back-off.
        self.last_progress = self.ticks;
        self.stats.fast_retransmits += 1;
        if K::Obs::ENABLED {
            k.obs().count(Counter::FastRetransmits, 1);
            k.obs().event(EventKind::FastRetransmit, self.obs_id, u64::from(extent.seq));
        }
        self.output(m, k, extent, None, XmitKind::Fast);
    }

    /// The first ring extent at or past `high_rxt`, below the recovery
    /// point, not fully covered by the scoreboard.
    fn next_hole(&self) -> Option<Extent> {
        let limit = self.recovery.unwrap_or(self.snd_nxt);
        for e in self.ring.extents() {
            if (e.seq.wrapping_sub(self.high_rxt) as i32) < 0 {
                continue; // already retransmitted this episode
            }
            if (e.seq.wrapping_sub(limit) as i32) >= 0 {
                break; // only fill holes behind the recovery point
            }
            if !self.is_sacked(e.seq, e.len) {
                return Some(*e);
            }
        }
        None
    }

    /// Whether `[seq, seq+len)` is fully inside one sacked range
    /// (scoreboard coordinates are relative to `snd_una`).
    fn is_sacked(&self, seq: u32, len: usize) -> bool {
        let rs = seq.wrapping_sub(self.snd_una);
        let re = rs.wrapping_add(len as u32);
        self.sacked.iter().any(|&(s, e)| s <= rs && re <= e)
    }

    /// Fold an ACK's SACK blocks into the scoreboard; returns the
    /// number of newly-learned bytes. Blocks are validated against the
    /// in-flight range — a checksum-valid but stale block outside it is
    /// ignored.
    fn scoreboard_insert(&mut self, sacks: &SackBlocks) -> u64 {
        let mut fresh = 0u64;
        for &(s, e) in sacks.as_slice() {
            let rs = s.wrapping_sub(self.snd_una);
            let re = e.wrapping_sub(self.snd_una);
            if rs >= re || re > self.in_flight() {
                continue;
            }
            fresh += self.merge_range(rs, re);
        }
        fresh
    }

    /// Merge `[rs, re)` (relative coordinates) into the sorted,
    /// non-overlapping scoreboard; returns the bytes not previously
    /// covered.
    fn merge_range(&mut self, rs: u32, re: u32) -> u64 {
        let mut covered = 0u64;
        let mut i = 0;
        while i < self.sacked.len() && self.sacked[i].1 < rs {
            i += 1;
        }
        let (mut s, mut e) = (rs, re);
        while i < self.sacked.len() && self.sacked[i].0 <= e {
            let (os, oe) = self.sacked[i];
            covered += u64::from(oe.min(re).saturating_sub(os.max(rs)));
            s = s.min(os);
            e = e.max(oe);
            self.sacked.remove(i);
        }
        self.sacked.insert(i, (s, e));
        u64::from(re - rs) - covered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernelpart::{FaultPlan, Loopback};
    use memsim::NativeMem;

    struct World {
        space: AddressSpace,
        lb: Loopback,
        tx: Connection,
        rx: Connection,
        src: Region,
        dst_check: Region,
    }

    fn world() -> World {
        let mut space = AddressSpace::new();
        let mut lb = Loopback::new(&mut space);
        let tx_cfg = UtcpConfig { local_port: 1000, peer_port: 2000, ..Default::default() };
        let rx_cfg = UtcpConfig {
            local_port: 2000,
            peer_port: 1000,
            local_ip: tx_cfg.peer_ip,
            peer_ip: tx_cfg.local_ip,
            ..Default::default()
        };
        let mut tx = Connection::new(&mut space, &mut lb, tx_cfg, 1000);
        let mut rx = Connection::new(&mut space, &mut lb, rx_cfg, 5000);
        rx.set_peer_iss(1000);
        tx.set_peer_iss(5000);
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
        assert!(!w.rx.verify_checksum(&mut m, &d));
        let rcv_before = w.rx.rcv_nxt;
        let sum = checksum_buf(&mut m, d.payload_addr, d.payload_len);
        let verdict = w.rx.finish_recv(&mut m, &mut w.lb, &d, sum);
        assert!(matches!(verdict, Err(Reject::BadChecksum { .. })));
        assert_eq!(w.rx.rcv_nxt, rcv_before, "reject must not advance rcv_nxt");
        assert_eq!(w.rx.stats.rejected, 1);
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
    fn duplicate_segment_rejected_but_reacked() {
        let mut w = world();
        w.lb.set_faults(FaultPlan { dup_every: 1, ..Default::default() });
        let mut arena = w.space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        m.bytes_mut(w.src.base, 40).copy_from_slice(&[9u8; 40]);
        w.tx.send_buf(&mut m, &mut w.lb, w.src.base, 40).unwrap();
        let d1 = w.rx.poll_input(&mut m, &mut w.lb).unwrap();
        let sum = checksum_buf(&mut m, d1.payload_addr, d1.payload_len);
        w.rx.finish_recv(&mut m, &mut w.lb, &d1, sum).unwrap();
        let d2 = w.rx.poll_input(&mut m, &mut w.lb).expect("duplicate delivered");
        assert!(!d2.in_order);
        let sum2 = checksum_buf(&mut m, d2.payload_addr, d2.payload_len);
        assert!(w.rx.finish_recv(&mut m, &mut w.lb, &d2, sum2).is_err());
        assert_eq!(w.rx.stats.accepted, 1);
        assert_eq!(w.rx.stats.rejected, 1);
        assert_eq!(w.rx.stats.acks_sent, 2, "duplicate triggers a repeat ACK");
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
                let clean = w.rx.verify_checksum(&mut m, &d);
                let sum = checksum_buf(&mut m, d.payload_addr, d.payload_len);
                let rcv_before = w.rx.rcv_nxt;
                match w.rx.finish_recv(&mut m, &mut w.lb, &d, sum) {
                    Ok(()) => {
                        assert!(clean, "checksum must catch every corrupted TPDU");
                        received.push(m.bytes(d.payload_addr, d.payload_len).to_vec());
                    }
                    Err(Reject::BadChecksum { .. }) => {
                        assert!(!clean);
                        assert_eq!(w.rx.rcv_nxt, rcv_before, "reject must not advance state");
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
    fn window_blocks_when_unacked() {
        let mut w = world();
        w.tx.peer_window = 150;
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
        w.tx.peer_window = 250;
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
        // Acknowledging the first segment reopens exactly its share.
        let d = w.rx.poll_input(&mut m, &mut w.lb).expect("first data segment");
        let sum = checksum_buf(&mut m, d.payload_addr, d.payload_len);
        w.rx.finish_recv(&mut m, &mut w.lb, &d, sum).unwrap();
        let _ = w.tx.poll_input(&mut m, &mut w.lb);
        assert_eq!(w.tx.in_flight(), 100);
        w.tx.send_buf(&mut m, &mut w.lb, w.src.base, 100).unwrap();
        assert_eq!(w.tx.in_flight(), 200, "window reopened by exactly the acked bytes");
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
    fn loss_recovery_disabled_is_rto_only() {
        let mut space = AddressSpace::new();
        let mut lb = Loopback::new(&mut space);
        let tx_cfg = UtcpConfig {
            local_port: 1000,
            peer_port: 2000,
            loss_recovery: false,
            ..Default::default()
        };
        let rx_cfg = UtcpConfig {
            local_port: 2000,
            peer_port: 1000,
            local_ip: tx_cfg.peer_ip,
            peer_ip: tx_cfg.local_ip,
            loss_recovery: false,
            ..Default::default()
        };
        let mut tx = Connection::new(&mut space, &mut lb, tx_cfg, 1000);
        let mut rx = Connection::new(&mut space, &mut lb, rx_cfg, 5000);
        rx.set_peer_iss(1000);
        tx.set_peer_iss(5000);
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

    // ------------------------------------------------------------------
    // Lifecycle / teardown
    // ------------------------------------------------------------------

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
        w.rx.lifecycle = State::Established; // puppet the dead peer into a RST
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
            w.tx.lifecycle = state;
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

    #[test]
    fn data_after_fin_is_dropped_unless_the_bug_is_injected() {
        let mut w = world();
        let mut arena = w.space.native_arena();
        let mut m = NativeMem::new(&mut arena);
        // Stage the receiver as if the peer's FIN was consumed at 1000.
        w.rx.fin_rcvd = Some(1000);
        w.rx.rcv_nxt = 1001;
        w.rx.lifecycle = State::CloseWait;
        m.bytes_mut(w.src.base, 50).copy_from_slice(&[8u8; 50]);
        w.tx.send_buf(&mut m, &mut w.lb, w.src.base, 50).unwrap();
        assert!(w.rx.poll_input(&mut m, &mut w.lb).is_none(), "post-FIN data never surfaces");
        assert_eq!(w.rx.rcv_nxt, 1001, "rcv_nxt stays pinned at fin+1");
        assert_eq!((w.rx.stats.accepted, w.rx.stats.rejected), (0, 1));
        // With the deliberate bug re-injected the same traffic is
        // swallowed — exactly the corruption the lifecycle oracles pin.
        w.rx.inject_accept_after_fin_bug(true);
        w.tx.send_buf(&mut m, &mut w.lb, w.src.base, 50).unwrap();
        assert!(w.rx.poll_input(&mut m, &mut w.lb).is_none());
        assert_eq!(w.rx.stats.accepted, 1, "bug: accepted moved after the FIN");
        assert_ne!(w.rx.rcv_nxt, 1001, "bug: rcv_nxt left fin+1");
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
        let (tcb, ooo, staging) = (w.rx.state, w.rx.ooo, w.rx.recv.len);
        // IP-valid, out-of-order data datagrams of `len` bytes in all.
        let feed = |m: &mut NativeMem<'_>, rx: &mut Connection, len: usize| {
            m.bytes_mut(tcb.base, tcb.len).fill(0xA5);
            m.bytes_mut(ooo.base, 64).fill(0xA5);
            let at = w.src.base;
            Ipv4Header::at(at).build(m, 0x0A00_0001, 0x0A00_0002, len - IP_HEADER_LEN, 1, 0, false, 64);
            let hdr = TcpHeader::at(at + IP_HEADER_LEN);
            hdr.build(m, 1000, 2000, rx.rcv_nxt.wrapping_add(4096), 0, TcpFlags::DATA, 8192);
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
        assert!(staging - IP_HEADER_LEN - TCP_HEADER_LEN > w.rx.cfg.mtu);
        feed(&mut m, &mut w.rx, staging);
    }
}
