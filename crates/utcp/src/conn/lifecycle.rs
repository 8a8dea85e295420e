//! The lifecycle part: the RFC 793 state machine, our FIN's bookkeeping
//! and the TIME_WAIT clock — the three-way open, close, abort and the
//! peer's SYN and FIN.

use memsim::Mem;
use obs::{FlightEdge, SpanObserver};

use super::{Body, Connection, INITIAL_RTO};
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
    /// A connection built by [`Connection::new`] starts in
    /// [`State::Established`], opened by construction as in the paper's
    /// measurement setup: [`Connection::set_peer_iss`] tells it the peer's
    /// ISS. [`Connection::listen`] and [`Connection::connect`] open it with
    /// the three-way handshake instead (`Listen → SynRcvd → Established`
    /// passively, `SynSent → Established` actively). Open and teardown
    /// (FIN/ACK, simultaneous close, TIME_WAIT, RST) both run entirely
    /// inside this machine.
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

    /// Whether the three-way handshake is still running.
    pub(crate) fn opening(self) -> bool {
        matches!(self, State::Listen | State::SynSent | State::SynRcvd)
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
    /// `in_flight == ring.buffered_bytes() + syn_in_flight + fin_in_flight`.
    pub fn fin_in_flight(&self) -> u32 {
        u32::from(self.life.fin_sent.is_some() && self.snd.una != self.snd.nxt)
    }

    /// 1 while our SYN (or SYN-ACK) is in flight, else 0: like the FIN it
    /// takes a sequence number and no ring space, and it is unacknowledged
    /// exactly while the machine is in `SynSent` or `SynRcvd`.
    pub fn syn_in_flight(&self) -> u32 {
        u32::from(matches!(self.life.state, State::SynSent | State::SynRcvd))
    }

    /// The control segment outstanding when no data is: our SYN (a
    /// SYN-ACK once the peer's SYN is in) or our FIN, as `(seq, flags)`.
    pub(super) fn control_in_flight(&self) -> Option<(u32, TcpFlags)> {
        match self.life.state {
            State::SynSent => Some((self.snd.una, TcpFlags::SYN)),
            State::SynRcvd => Some((self.snd.una, TcpFlags::SYN_ACK)),
            _ if self.fin_in_flight() == 1 => self.life.fin_sent.map(|seq| (seq, TcpFlags::FIN_ACK)),
            _ => None,
        }
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

    /// Passive open (RFC 793 OPEN, passive): wait in `Listen` for the
    /// peer's SYN, which tells this connection the peer's ISS. Opens what
    /// [`Connection::new`] or [`Connection::reopen`] just built, in place
    /// of [`Connection::set_peer_iss`].
    pub fn listen(&mut self) {
        self.assert_fresh();
        self.set_state(State::Listen);
    }

    /// Active open (RFC 793 OPEN, active): send a SYN at the ISS and wait
    /// in `SynSent` for the peer's SYN-ACK. Opens a fresh incarnation, as
    /// [`Connection::listen`] does.
    pub fn connect<M: Mem>(&mut self, m: &mut M, k: &mut impl KernelCtx) {
        self.assert_fresh();
        self.set_state(State::SynSent);
        self.send_syn(m, k.kernel());
    }

    /// An open starts from what construction or `reopen` left.
    fn assert_fresh(&self) {
        assert!(
            self.life == Lifecycle::new() && self.snd.in_flight() == 0,
            "listen/connect open a fresh incarnation"
        );
    }

    /// First transmission of our SYN (a SYN-ACK in `SynRcvd`): it sits
    /// at the ISS and takes one sequence number without ring space, and
    /// the retransmission timer keeps it alive like the FIN.
    fn send_syn<M: Mem>(&mut self, m: &mut M, lb: &mut impl KernelPart) {
        self.snd.nxt = self.snd.una.wrapping_add(1);
        self.snd.last_progress = self.ticks;
        let (seq, flags) = self.control_in_flight().expect("an opening machine has its SYN out");
        self.emit(m, lb, seq, flags, Body::BARE);
        self.touch_state(m);
    }

    /// The open's receive side (RFC 793 §3.4), for a checksum-verified
    /// bare segment that carries a SYN or reaches a machine still
    /// opening. `Listen` takes a SYN and answers SYN-ACK; `SynSent` takes
    /// the SYN-ACK of its SYN and ACKs it; `SynRcvd` takes the ACK of its
    /// SYN-ACK. A repeat of the SYN this incarnation already consumed is
    /// answered again, with no state change; anything else is rejected.
    pub(super) fn handle_open<M: Mem>(
        &mut self,
        m: &mut M,
        lb: &mut impl KernelPart,
        flags: TcpFlags,
        seq: u32,
        ack: u32,
        window: u16,
    ) {
        let syn = flags.contains(TcpFlags::SYN);
        let acks_our_syn = flags.contains(TcpFlags::ACK) && ack == self.snd.nxt;
        match self.life.state {
            State::Listen if syn && !flags.contains(TcpFlags::ACK) => {
                self.rcv.nxt = seq.wrapping_add(1);
                self.snd.peer_window = window;
                self.set_state(State::SynRcvd);
                self.send_syn(m, lb);
            }
            State::SynSent if syn && acks_our_syn => {
                self.rcv.nxt = seq.wrapping_add(1);
                self.syn_acked(m, window);
                self.send_ack(m, lb);
            }
            State::SynRcvd if !syn && acks_our_syn => self.syn_acked(m, window),
            State::SynRcvd if syn && seq.wrapping_add(1) == self.rcv.nxt => {
                self.emit(m, lb, self.snd.una, TcpFlags::SYN_ACK, Body::BARE);
            }
            s if !s.opening() && syn && seq.wrapping_add(1) == self.rcv.nxt => self.send_ack(m, lb),
            _ => self.stats.rejected += 1,
        }
    }

    /// Our SYN is acknowledged: the connection is open. Like the FIN's,
    /// the SYN's sequence number feeds neither the RTT estimator (Karn: a
    /// resent SYN's ACK is ambiguous) nor the congestion window, and the
    /// data phase starts from the initial RTO (RFC 6298 §5.7).
    fn syn_acked<M: Mem>(&mut self, m: &mut M, window: u16) {
        self.snd.una = self.snd.nxt;
        self.snd.peer_window = window;
        self.snd.last_progress = self.ticks;
        self.snd.rto = INITIAL_RTO;
        self.rec.restart(self.snd.una);
        self.set_state(State::Established);
        self.touch_state(m);
    }

    /// Orderly close of the send direction (RFC 793 CLOSE): queue a FIN
    /// after any data already sent and move to `FinWait1` (active) or
    /// `LastAck` (passive, after the peer's FIN). A machine still opening
    /// has nothing to close in order and aborts instead. Idempotent in
    /// every other state.
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
            s if s.opening() => self.abort(m, k),
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
            State::Established => self.set_state(State::CloseWait),
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
