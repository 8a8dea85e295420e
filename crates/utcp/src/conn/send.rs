//! The send-sequence part: `SND.UNA`/`SND.NXT`, the peer's window, the
//! congestion window and the RTT estimator — plus the paths that move
//! them: the two send entry points (paper Figure 3), `tcp_output`, the
//! retransmission timer and cumulative-ACK processing.

use checksum::internet::checksum_buf;
use checksum::InetChecksum;
use memsim::Mem;
use obs::{Counter, EventKind, FlightEdge, Layer, SegEv, SpanObserver, Stage, XmitKind};

use super::{Body, Connection, UtcpConfig};
use crate::backend::{KernelCtx, KernelPart};
use crate::ring::{Extent, RingWriter};
use crate::wire::{SackBlocks, TcpFlags};

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
    /// `Established`/`CloseWait` (FIN already queued, reset, or never
    /// opened). Unlike [`SendError::WindowClosed`] this is permanent —
    /// retrying cannot succeed.
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

/// Send-sequence space of one incarnation (RFC 793 §3.2's send
/// variables, Jacobson's window, RFC 6298's estimator).
#[derive(Debug, Clone, PartialEq)]
pub(super) struct SendSeq {
    /// Oldest unacknowledged sequence number.
    pub(super) una: u32,
    /// Next sequence number to be sent.
    pub(super) nxt: u32,
    /// The peer's last advertised receive window.
    pub(super) peer_window: u16,
    /// Tick of the last forward progress (send or ACK).
    pub(super) last_progress: u32,
    /// Congestion window in bytes (Jacobson slow start / congestion
    /// avoidance).
    pub(super) cwnd: u32,
    /// Slow-start threshold in bytes.
    pub(super) ssthresh: u32,
    /// Bytes acknowledged in congestion avoidance that `cwnd` has not
    /// grown for yet (RFC 3465 §2.1's `bytes_acked`); always below
    /// `cwnd`.
    acked_in_avoidance: u32,
    /// Smoothed RTT in ticks, scaled ×8 (RFC 6298 fixed-point); 0 = no
    /// sample yet.
    srtt8: u32,
    /// RTT variance in ticks, scaled ×4.
    rttvar4: u32,
    /// Current RTO in ticks (from the estimator, or the configured
    /// initial value).
    pub(super) rto: u32,
    /// One timed segment at a time: (end sequence, tick sent). Karn's
    /// rule: invalidated on retransmission.
    pub(super) rtt_probe: Option<(u32, u32)>,
}

impl SendSeq {
    /// An empty flight at `iss`, slow start at 2 MSS, no RTT sample;
    /// `now` is the clock the retransmission timer counts from.
    pub(super) fn new(cfg: &UtcpConfig, iss: u32, now: u32) -> Self {
        SendSeq {
            una: iss,
            nxt: iss,
            peer_window: cfg.window,
            last_progress: now,
            cwnd: 2 * cfg.mtu as u32,
            ssthresh: u32::MAX / 4,
            acked_in_avoidance: 0,
            srtt8: 0,
            rttvar4: 0,
            rto: cfg.rto_ticks,
            rtt_probe: None,
        }
    }

    /// Bytes in flight.
    pub(super) fn in_flight(&self) -> u32 {
        self.nxt.wrapping_sub(self.una)
    }

    /// Declare everything sent acknowledged and stop timing it (reset).
    pub(super) fn flush(&mut self) {
        self.una = self.nxt;
        self.rtt_probe = None;
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

    /// Congestion window growth for `acked` newly-acknowledged bytes,
    /// counted in bytes rather than in ACKs (RFC 3465), so one ACK that
    /// covers a burst of segments opens the window exactly as far as
    /// the per-segment ACKs it stands for: slow start adds the bytes up
    /// to `ssthresh`; past it every `cwnd` bytes acknowledged add one
    /// MSS.
    fn grow(&mut self, acked: u32, mss: u32) {
        debug_assert!(acked > 0, "cwnd growth requires a forward ACK");
        let slow = acked.min(self.ssthresh.saturating_sub(self.cwnd));
        self.cwnd += slow;
        self.acked_in_avoidance += acked - slow;
        while self.acked_in_avoidance >= self.cwnd {
            self.acked_in_avoidance -= self.cwnd;
            self.cwnd = (self.cwnd + mss).min(u32::MAX / 4);
        }
    }

    /// A loss event: the window falls to `cwnd` under a new `ssthresh`,
    /// and avoidance starts counting from nothing.
    pub(super) fn cut(&mut self, ssthresh: u32, cwnd: u32) {
        self.ssthresh = ssthresh;
        self.cwnd = cwnd;
        self.acked_in_avoidance = 0;
    }

    /// Feed the Jacobson estimator if `ack` covers the timed segment
    /// (Karn-filtered by whoever cleared the probe); returns the raw,
    /// unclamped RTO it now suggests.
    fn rtt_sample(&mut self, ack: u32, now: u32) -> Option<u32> {
        let (probe_end, sent_at) = self.rtt_probe?;
        if !(ack.wrapping_sub(probe_end) < u32::MAX / 2 || ack == probe_end) {
            return None;
        }
        // Sub-tick responses (loop-back) count as one tick.
        let sample = now.wrapping_sub(sent_at).max(1);
        if self.srtt8 == 0 {
            self.srtt8 = sample * 8;
            self.rttvar4 = sample * 2;
        } else {
            // RFC 6298 fixed point: srtt8 = 8·srtt, rttvar4 = 4·rttvar.
            let err = sample as i64 - (self.srtt8 / 8) as i64;
            self.srtt8 = (self.srtt8 as i64 + err).max(1) as u32;
            self.rttvar4 = ((self.rttvar4 as i64 * 3) / 4 + err.abs()).max(1) as u32;
        }
        self.rtt_probe = None;
        Some(self.srtt8 / 8 + self.rttvar4.max(1))
    }
}

impl Connection {
    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> u32 {
        self.snd.cwnd
    }

    /// Maximum segment size in bytes (one chunk's payload budget; the
    /// congestion-control unit).
    pub fn mss(&self) -> u32 {
        self.cfg.mtu as u32
    }

    /// Current slow-start threshold in bytes.
    pub fn ssthresh(&self) -> u32 {
        self.snd.ssthresh
    }

    /// Current retransmission timeout in ticks.
    pub fn rto(&self) -> u32 {
        self.snd.rto
    }

    /// Smoothed RTT estimate in ticks (None before the first sample).
    pub fn srtt_ticks(&self) -> Option<f64> {
        (self.snd.srtt8 > 0).then_some(self.snd.srtt8 as f64 / 8.0)
    }

    /// Next sequence number to be sent.
    pub fn snd_nxt(&self) -> u32 {
        self.snd.nxt
    }

    /// Oldest unacknowledged sequence number.
    pub fn snd_una(&self) -> u32 {
        self.snd.una
    }

    /// Bytes in flight.
    pub fn in_flight(&self) -> u32 {
        self.snd.in_flight()
    }

    /// The peer's last advertised receive window.
    pub fn peer_window(&self) -> u16 {
        self.snd.peer_window
    }

    /// The single source of truth for RTO bounds — every clamp (the
    /// RTT-estimator update *and* the exponential timeout back-off)
    /// goes through here, so the floor and cap can never drift apart
    /// again. Floor: a quarter of the configured initial RTO, but
    /// never below 2 ticks (sub-tick loop-back RTTs still need a timer
    /// that cannot fire on the very next tick). Cap: 16× the
    /// configured initial RTO, raised to the floor for degenerate
    /// configs (`rto_ticks` of 0 or 1).
    pub(super) fn rto_bounds(&self) -> (u32, u32) {
        let floor = (self.cfg.rto_ticks / 4).max(2);
        let cap = 16u32.saturating_mul(self.cfg.rto_ticks).max(floor);
        (floor, cap)
    }

    /// Clamp a raw RTO value into [`Connection::rto_bounds`].
    pub(super) fn clamp_rto(&self, raw: u32) -> u32 {
        let (floor, cap) = self.rto_bounds();
        raw.clamp(floor, cap)
    }

    /// Validate a send of `len` bytes and reserve ring space. The
    /// lifecycle gate comes first: once the send direction is shut
    /// (FIN queued, reset, or never opened) no amount of draining can
    /// make the send legal, and the caller must see that distinctly
    /// from transient back-pressure.
    #[inline]
    fn reserve(&mut self, len: usize) -> Result<Extent, SendError> {
        if !self.life.state.may_send_data() {
            return Err(SendError::Closing);
        }
        if len > self.cfg.mtu {
            return Err(SendError::TooLarge { len, mtu: self.cfg.mtu });
        }
        if !self.snd.window_allows(len) {
            return Err(SendError::WindowClosed);
        }
        self.ring.alloc(len, self.snd.nxt).ok_or(SendError::BufferFull)
    }

    /// Whether an ILP send of `len` bytes could proceed right now (the
    /// paper's buffer-availability check before entering the loop).
    pub fn can_send(&self, len: usize) -> bool {
        self.life.state.may_send_data()
            && len <= self.cfg.mtu
            && self.snd.window_allows(len)
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
    pub(super) fn output<M: Mem, K: KernelCtx>(
        &mut self,
        m: &mut M,
        k: &mut K,
        extent: Extent,
        payload_sum: Option<InetChecksum>,
        kind: XmitKind,
    ) {
        let addr = self.ring.addr(extent.off);
        let sum = payload_sum.unwrap_or_else(|| {
            let t = k.mark(m);
            let sum = checksum_buf(m, addr, extent.len); // step 4, non-ILP only
            k.span(m, Stage::Integrated, Layer::Checksum, t);
            sum
        });
        let t = k.mark(m);
        let body = self.seal(m, extent.seq, TcpFlags::DATA, Body::Data { addr, len: extent.len, sum });
        let is_retransmit = extent.seq != self.snd.nxt;
        if !is_retransmit {
            self.snd.nxt = self.snd.nxt.wrapping_add(extent.len as u32);
            self.snd.last_progress = self.ticks;
            if self.snd.rtt_probe.is_none() {
                self.snd.rtt_probe = Some((self.snd.nxt, self.ticks));
            }
        } else {
            // Karn's rule: a retransmitted segment's ACK must not feed
            // the RTT estimator.
            self.snd.rtt_probe = None;
        }
        self.touch_state(m);
        self.stats.data_sent += 1;
        if is_retransmit {
            self.stats.retransmits += 1;
        }
        // Segment tracer: resolve this transmission's trace identity
        // (plain host state only — no `Mem` traffic) and arm the
        // out-of-band context so the tag rides beside the datagram.
        if let Some((tag, traced)) = self.trace.on_transmit(self.obs_id, extent.seq, is_retransmit) {
            k.seg(Some(tag), SegEv::Send { kind, traced });
            if traced {
                k.kernel().set_send_ctx(Some(tag));
            }
        }
        self.ship(m, k.kernel(), body); // step 5
        k.span(m, Stage::Final, Layer::Tcp, t);
        if K::Obs::ENABLED {
            k.obs().flight(self.obs_id, self.flight_snap(FlightEdge::Send));
        }
    }

    /// Advance the clock; on RTO expiry back off and retransmit the
    /// oldest unacknowledged segment (its `tcp_output` reports like any
    /// other send) — or the FIN, when only that is outstanding.
    pub fn tick<M: Mem, K: KernelCtx>(&mut self, m: &mut M, k: &mut K) {
        self.ticks += 1;
        if self.rcv.ack_owed {
            // The receiver stopped polling mid-burst: the clock pays.
            self.send_ack(m, k.kernel());
        }
        if self.tick_quiet() || self.in_flight() == 0 {
            self.snd.last_progress = self.ticks;
            return;
        }
        if self.ticks.wrapping_sub(self.snd.last_progress) < self.snd.rto {
            return;
        }
        match self.ring.oldest() {
            Some(oldest) => {
                // Timeout: collapse to slow start (Jacobson). An RTO
                // supersedes any fast-recovery episode, and the
                // scoreboard may be stale (SACKs are advisory, RFC 2018
                // §8) — forget it and rebuild from fresh ACKs.
                self.snd.cut((self.in_flight() / 2).max(2 * self.mss()), self.mss());
                self.stats.cwnd_cuts += 1;
                self.rec.restart(self.snd.una);
                self.back_off(k.obs());
                if K::Obs::ENABLED {
                    k.obs().flight(self.obs_id, self.flight_snap(FlightEdge::Rto));
                }
                self.output(m, k, oldest, None, XmitKind::Rto);
            }
            None if self.fin_in_flight() == 1 => {
                // Only the FIN is outstanding: retransmit it under the
                // same exponential back-off. No cwnd collapse — there
                // is no data in flight left to collapse for.
                self.rec.dup_acks = 0;
                self.snd.rtt_probe = None; // Karn
                self.back_off(k.obs());
                self.stats.retransmits += 1;
                let seq = self.life.fin_sent.expect("fin_in_flight implies fin_sent");
                self.emit(m, k.kernel(), seq, TcpFlags::FIN_ACK, Body::BARE);
            }
            None => {}
        }
    }

    /// The RTO back-off, one per expiry: restart the timer and double
    /// the timeout inside [`Connection::rto_bounds`].
    fn back_off<O: SpanObserver>(&mut self, obs: &mut O) {
        self.snd.last_progress = self.ticks;
        self.snd.rto = self.clamp_rto(self.snd.rto.saturating_mul(2));
        if O::ENABLED {
            obs.count(Counter::RtoBackoffs, 1);
            obs.event(EventKind::RtoBackoff, self.obs_id, self.snd.rto as u64);
        }
    }

    /// Process an incoming cumulative ACK (and its SACK option, if
    /// any). Duplicate ACKs feed the fast-retransmit counter; forward
    /// ACKs advance the window, the RTT estimator and — outside
    /// recovery — the congestion window.
    pub(super) fn process_ack<M: Mem, K: KernelCtx>(
        &mut self,
        m: &mut M,
        k: &mut K,
        ack: u32,
        window: u16,
        sacks: &SackBlocks,
    ) {
        let window_update = window != self.snd.peer_window;
        self.snd.peer_window = window;
        if self.cfg.loss_recovery && !sacks.is_empty() {
            let fresh = self.rec.insert(sacks, self.snd.una, self.snd.in_flight());
            if fresh > 0 {
                self.stats.sacked_bytes += fresh;
                if K::Obs::ENABLED {
                    k.obs().count(Counter::SackedBytes, fresh);
                }
            }
        }
        let advanced = ack.wrapping_sub(self.snd.una);
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
        self.snd.una = ack;
        self.rec.advance(ack, advanced);
        self.ring.ack(ack);
        self.trace.retire(ack);
        self.snd.last_progress = self.ticks;
        self.stats.acks_received += 1;
        // RTT sample (Karn-filtered) → Jacobson estimator → RTO.
        if let Some(raw) = self.snd.rtt_sample(ack, self.ticks) {
            self.snd.rto = self.clamp_rto(raw);
        }
        // Frozen during recovery: a partial ACK fills the next hole
        // instead of opening the window.
        if self.on_forward_ack(m, k, ack) {
            self.snd.grow(advanced, self.mss());
        }
        if self.life.fin_sent.is_some() && self.snd.una == self.snd.nxt {
            self.on_fin_acked();
        }
        self.touch_state(m);
        m.compute(20);
    }
}
