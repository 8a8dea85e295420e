//! The lifecycle part: the RFC 793 state machine, our FIN's bookkeeping
//! and the TIME_WAIT clock — open, close, abort and the peer's FIN.

use memsim::Mem;
use obs::{FlightEdge, SpanObserver};

use super::{Body, Connection};
use crate::backend::{KernelCtx, KernelPart};
use crate::wire::TcpFlags;

/// Maximum segment lifetime in virtual ticks. The active closer lingers
/// in [`State::TimeWait`] for 2·MSL before releasing its port, so old
/// duplicates from the closed incarnation cannot be mistaken for
/// segments of a new one. Small by real-world standards because the
/// virtual world's queues drain within a few ticks.
pub const MSL_TICKS: u32 = 16;

obs::labels! {
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
        Listen => "listen",
        /// Active open: SYN sent.
        SynSent => "syn_sent",
        /// SYN received, handshake ACK outstanding.
        SynRcvd => "syn_rcvd",
        /// Data transfer.
        Established => "established",
        /// Active close: our FIN sent, nothing acked yet.
        FinWait1 => "fin_wait_1",
        /// Our FIN is acked; waiting for the peer's FIN (half-closed: the
        /// peer may keep streaming data, which we still accept and ACK).
        FinWait2 => "fin_wait_2",
        /// Simultaneous close: FINs crossed, ours still unacked.
        Closing => "closing",
        /// Peer's FIN consumed; we may still send until `close`.
        CloseWait => "close_wait",
        /// Passive close: our FIN sent after the peer's, awaiting its ACK.
        LastAck => "last_ack",
        /// Active closer lingering 2·[`MSL_TICKS`] against old duplicates.
        TimeWait => "time_wait",
        /// No connection.
        Closed => "closed",
    }
}

impl State {
    /// Whether the application may hand new data to `reserve`/`send_*`.
    /// Only `Established` and `CloseWait` (peer half-closed, we have
    /// not) may originate data; everywhere else the send direction is
    /// shut and [`SendError::Closing`](super::SendError::Closing) is
    /// returned.
    pub fn may_send_data(self) -> bool {
        matches!(self, State::Established | State::CloseWait)
    }
}

/// Lifecycle state of one incarnation. (The *cumulative* TIME_WAIT
/// residency lives on [`Connection`] beside the clock it is measured
/// on: it survives `reopen`, this does not.)
#[derive(Debug, Clone, PartialEq)]
pub(super) struct Lifecycle {
    pub(super) state: State,
    /// Sequence number our FIN occupies, once sent (it consumes one).
    pub(super) fin_sent: Option<u32>,
    /// Tick at which TIME_WAIT was (last) entered — a retransmitted
    /// peer FIN restarts the 2·MSL clock.
    pub(super) time_wait_enter: u32,
}

impl Lifecycle {
    /// A connection is born `Established` (see [`State`]).
    pub(super) fn new() -> Self {
        Lifecycle { state: State::Established, fin_sent: None, time_wait_enter: 0 }
    }
}

impl Connection {
    /// Current lifecycle state (RFC 793 machine).
    pub fn state(&self) -> State {
        self.life.state
    }

    /// The sequence number our FIN occupies, once `close` queued it.
    pub fn fin_sent_seq(&self) -> Option<u32> {
        self.life.fin_sent
    }

    /// 1 while our FIN is in flight (sent but unacknowledged), else 0.
    /// The FIN consumes a sequence number without occupying ring space,
    /// so the oracle identity is
    /// `in_flight == ring.buffered_bytes() + fin_in_flight`.
    pub fn fin_in_flight(&self) -> u32 {
        u32::from(self.life.fin_sent.is_some() && self.snd.una != self.snd.nxt)
    }

    /// Accumulated TIME_WAIT residency in ticks, including the current
    /// (unfinished) stay when the connection is in TIME_WAIT now.
    pub fn time_wait_residency(&self) -> u64 {
        let current = if self.life.state == State::TimeWait {
            u64::from(self.ticks - self.life.time_wait_enter)
        } else {
            0
        };
        self.time_wait_ticks + current
    }

    /// Move the lifecycle machine, keeping the TIME_WAIT clock.
    pub(super) fn set_state(&mut self, to: State) {
        if self.life.state == to {
            return;
        }
        if to == State::TimeWait {
            self.life.time_wait_enter = self.ticks;
        }
        if self.life.state == State::TimeWait {
            self.time_wait_ticks += u64::from(self.ticks - self.life.time_wait_enter);
        }
        self.life.state = to;
    }

    /// The clock's lifecycle duty: a `Closed` or `TimeWait` machine
    /// transmits nothing, and TIME_WAIT dies for real once the 2·MSL
    /// quiet period has run. Returns whether the tick is spent.
    pub(super) fn tick_quiet(&mut self) -> bool {
        match self.life.state {
            State::Closed => true,
            State::TimeWait => {
                if self.ticks.wrapping_sub(self.life.time_wait_enter) >= 2 * MSL_TICKS {
                    self.set_state(State::Closed);
                }
                true
            }
            _ => false,
        }
    }

    /// Orderly close of the send direction (RFC 793 CLOSE): queue a FIN
    /// after any data already sent and move to `FinWait1` (active) or
    /// `LastAck` (passive, after the peer's FIN). Idempotent in every
    /// other state.
    pub fn close<M: Mem>(&mut self, m: &mut M, k: &mut impl KernelCtx) {
        match self.life.state {
            State::Established => {
                self.send_fin(m, k);
                self.set_state(State::FinWait1);
            }
            State::CloseWait => {
                self.send_fin(m, k);
                self.set_state(State::LastAck);
            }
            State::Listen | State::SynSent | State::SynRcvd => {
                self.set_state(State::Closed);
            }
            _ => {} // already closing or closed
        }
    }

    /// Abortive close (RFC 793 ABORT): send a RST, discard all send and
    /// receive state, and go straight to `Closed`. Teardown is total —
    /// nothing is retransmitted, held or resurrected afterwards.
    pub fn abort<M: Mem>(&mut self, m: &mut M, k: &mut impl KernelCtx) {
        if self.life.state == State::Closed {
            return;
        }
        if !matches!(self.life.state, State::Listen | State::SynSent) {
            self.send_rst(m, k.kernel());
        }
        self.teardown_total();
        self.set_state(State::Closed);
    }

    /// Queue and transmit our FIN. The FIN consumes one sequence number
    /// (`snd_nxt` advances past it) without occupying ring space; the
    /// retransmission timer keeps it alive through
    /// [`Connection::fin_in_flight`] until the peer acknowledges it.
    fn send_fin<M: Mem, K: KernelCtx>(&mut self, m: &mut M, k: &mut K) {
        let seq = self.snd.nxt;
        self.life.fin_sent = Some(seq);
        self.snd.nxt = self.snd.nxt.wrapping_add(1);
        self.stats.fins_sent += 1;
        self.snd.last_progress = self.ticks;
        // Karn: never sample RTT across the FIN exchange — a teardown
        // ACK may cover a retransmitted FIN.
        self.snd.rtt_probe = None;
        // The FIN acknowledges `rcv_nxt` like any ACK.
        self.rcv.ack_owed = false;
        self.emit(m, k.kernel(), seq, TcpFlags::FIN_ACK, Body::BARE);
        self.touch_state(m);
        if K::Obs::ENABLED {
            k.obs().flight(self.obs_id, self.flight_snap(FlightEdge::Send));
        }
    }

    /// Emit a RST at the current `snd_nxt`. A RST consumes no sequence
    /// number and is never retransmitted (teardown by RST is total on
    /// both sides; a lost RST is re-elicited by the peer's next segment).
    pub(super) fn send_rst<M: Mem>(&mut self, m: &mut M, lb: &mut impl KernelPart) {
        self.stats.resets_sent += 1;
        self.emit(m, lb, self.snd.nxt, TcpFlags::RST, Body::BARE);
    }

    /// Consume a peer FIN at `seq`. In order: advance `rcv_nxt` past
    /// it, move the machine, and ACK. A retransmitted FIN (already
    /// consumed) is re-ACKed, and in TIME_WAIT it also restarts the
    /// 2·MSL quiet period (RFC 793 §3.9); an out-of-order FIN (data
    /// still missing before it) only repeats the cumulative ACK.
    pub(super) fn handle_fin<M: Mem>(&mut self, m: &mut M, k: &mut impl KernelCtx, seq: u32) {
        if self.rcv.fin_rcvd == Some(seq) {
            if self.life.state == State::TimeWait {
                self.time_wait_ticks += u64::from(self.ticks - self.life.time_wait_enter);
                self.life.time_wait_enter = self.ticks;
            }
            self.send_ack(m, k.kernel());
            return;
        }
        if seq != self.rcv.nxt {
            self.stats.rejected += 1;
            self.send_ack(m, k.kernel());
            return;
        }
        self.rcv.nxt = self.rcv.nxt.wrapping_add(1);
        self.rcv.fin_rcvd = Some(seq);
        self.stats.fins_received += 1;
        match self.life.state {
            State::Established | State::SynRcvd => self.set_state(State::CloseWait),
            State::FinWait1 => {
                // Our own FIN already acknowledged → straight to
                // TIME_WAIT; still in flight → simultaneous close.
                if self.fin_in_flight() == 0 {
                    self.set_state(State::TimeWait);
                } else {
                    self.set_state(State::Closing);
                }
            }
            State::FinWait2 => self.set_state(State::TimeWait),
            _ => {}
        }
        self.touch_state(m);
        self.send_ack(m, k.kernel());
    }

    /// Our FIN fully acknowledged: the send direction is done, move the
    /// machine (RFC 793 §3.9, "if our FIN is now acknowledged").
    pub(super) fn on_fin_acked(&mut self) {
        match self.life.state {
            State::FinWait1 => self.set_state(State::FinWait2),
            State::Closing => self.set_state(State::TimeWait),
            State::LastAck => self.set_state(State::Closed),
            _ => {}
        }
    }
}
