//! The observation vocabulary and the [`SpanObserver`] hook trait.
//!
//! Instrumentation sites in `ilp_core`, `utcp` and `server` bracket each
//! processing span with a work-counter snapshot and report the delta
//! here, tagged with *which path* ran (ILP or non-ILP), *which of the
//! paper's three stages* it belongs to (§2.1), and *which layer* the
//! instructions came from. The trait's default methods are empty and
//! `#[inline]`, and [`NoopObserver`] additionally sets
//! [`SpanObserver::ENABLED`] to `false`, so every call site guarded by
//! `O::ENABLED` monomorphises to nothing — the native-CPU benches pay
//! zero cost when observation is off.

/// Declares a label set once — each variant with its doc and its
/// exposition name — and derives `ALL`, `index()` and `name()` from
/// that one list, so the three cannot drift apart. Exported, so every
/// crate declares its label sets (`utcp::State`, `sim`'s world kinds
/// and trigger shapes) the same way.
#[macro_export]
macro_rules! labels {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $( $(#[$vmeta:meta])* $variant:ident => $text:literal, )+
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $( $(#[$vmeta])* $variant, )+
        }

        impl $name {
            /// Every variant, in index order.
            pub const ALL: [$name; [$($text),+].len()] = [$($name::$variant),+];

            /// Dense index, matching [`Self::ALL`] order.
            pub fn index(self) -> usize {
                self as usize
            }

            /// Stable lowercase name for exposition.
            pub fn name(self) -> &'static str {
                match self {
                    $($name::$variant => $text,)+
                }
            }
        }
    };
}

labels! {
    /// Which data path produced a span.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum PathLabel {
        /// The fused single-loop path.
        Ilp => "ilp",
        /// The conventional pass-per-layer path.
        NonIlp => "non_ilp",
    }
}

labels! {
    /// The three-stage protocol-processing split (§2.1, after Abbott &
    /// Peterson): where in a packet's life a span ran.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Stage {
        /// Initial control operations: demultiplexing, header parse, buffer
        /// reservation.
        Initial => "initial",
        /// The integrated data manipulations — or, on the non-ILP path, the
        /// separate per-layer passes occupying the same position.
        Integrated => "integrated",
        /// The final protocol stage, where messages are accepted or
        /// rejected and TCP state moves.
        Final => "final",
    }
}

labels! {
    /// Which layer's code a span executed.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Layer {
        /// XDR marshalling / unmarshalling passes.
        Marshal => "marshal",
        /// Encryption / decryption passes.
        Cipher => "cipher",
        /// Checksum passes.
        Checksum => "checksum",
        /// The fused ILP loop — marshal+cipher+checksum collapsed into one
        /// span, which is precisely the point: the layers are no longer
        /// separable once integrated.
        Fused => "fused",
        /// User-level TCP control: header build/parse, TCB updates, ring
        /// copies, ACK processing.
        Tcp => "tcp",
        /// Kernel part: system copies, IP, driver, context switch. Spans
        /// never name this layer directly — the system share of any span's
        /// work is attributed here automatically.
        Kernel => "kernel",
    }
}

/// A work delta measured across a span: abstract work units (a
/// time-like proxy: memory accesses weighted by service level, plus ALU
/// operations) split into the user phase and the system (kernel) phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Application-space work units.
    pub user: u64,
    /// Kernel-phase work units (system copies, IP, context switch).
    pub system: u64,
}

impl Work {
    /// The delta from `before` to `after` snapshots (`(user, system)`
    /// counter pairs), saturating so a counter reset mid-span yields 0
    /// rather than wrapping.
    pub fn delta(before: (u64, u64), after: (u64, u64)) -> Work {
        Work {
            user: after.0.saturating_sub(before.0),
            system: after.1.saturating_sub(before.1),
        }
    }

    /// Total work units.
    pub fn total(self) -> u64 {
        self.user + self.system
    }
}

labels! {
    /// Run-level counters.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Counter {
        /// Chunks handed to the transport by the server.
        ChunksSent => "chunks_sent",
        /// Chunks accepted by clients.
        ChunksDelivered => "chunks_delivered",
        /// Final-stage rejects: checksum mismatch.
        RejectChecksum => "reject_checksum",
        /// Final-stage rejects: duplicate / out-of-order segment.
        RejectOutOfOrder => "reject_out_of_order",
        /// Final-stage rejects: unmarshalling failure.
        RejectBadFormat => "reject_bad_format",
        /// Initial-stage rejects: no matching connection.
        RejectNoConnection => "reject_no_connection",
        /// Retransmissions across all connections.
        Retransmits => "retransmits",
        /// Handshakes completed.
        Handshakes => "handshakes",
        /// SYNs retried after the retry interval.
        SynRetries => "syn_retries",
        /// Datagrams dropped by fault injection.
        FaultDrops => "fault_drops",
        /// Datagrams bit-flipped by fault injection.
        FaultCorruptions => "fault_corruptions",
        /// Datagrams for a port nobody listens on.
        Unroutable => "unroutable",
        /// RTO timer expiries that doubled the retransmission timeout
        /// (exponential back-off steps in `utcp::conn`).
        RtoBackoffs => "rto_backoffs",
        /// Fast retransmits: segments resent on the duplicate-ACK / SACK
        /// evidence path, without waiting for the RTO.
        FastRetransmits => "fast_retransmits",
        /// Payload bytes newly reported as received out-of-order via SACK
        /// blocks (counted once per byte when it first enters the sender's
        /// scoreboard).
        SackedBytes => "sacked_bytes",
    }
}

labels! {
    /// Histogram-valued metrics.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Metric {
        /// Virtual ticks from a chunk's first transmission to its
        /// acceptance by the client (retransmission rounds included).
        ChunkLatencyTicks => "chunk_latency_ticks",
        /// Virtual ticks from a client's first SYN to an established
        /// handshake.
        HandshakeTicks => "handshake_ticks",
        /// Ready-connection count offered to the scheduler each round.
        ReadyQueueDepth => "ready_queue_depth",
        /// Payload bytes per delivered chunk.
        ChunkBytes => "chunk_bytes",
        /// Kernel-part datagrams queued at an endpoint (high-water samples).
        KernelQueueDepth => "kernel_queue_depth",
    }
}

labels! {
    /// Packet-level events for the trace ring.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum EventKind {
        /// A client (re-)sent its SYN.
        SynSent => "syn_sent",
        /// A handshake completed (value: ticks since first SYN).
        Established => "established",
        /// The server handed a chunk to the transport (value: chunk seq).
        ChunkSent => "chunk_sent",
        /// A client accepted a chunk (value: chunk seq).
        ChunkAccepted => "chunk_accepted",
        /// A client rejected a segment (value: reject counter index).
        ChunkRejected => "chunk_rejected",
        /// A connection's RTO fired and retransmitted (value: total so far).
        Retransmit => "retransmit",
        /// A connection delivered its last chunk (value: duration ticks).
        Completed => "completed",
        /// An RTO expiry doubled a connection's timeout (value: the new
        /// RTO in ticks).
        RtoBackoff => "rto_backoff",
        /// Duplicate-ACK evidence triggered a fast retransmit without
        /// waiting for the RTO (value: the sequence number resent).
        FastRetransmit => "fast_retransmit",
    }
}

labels! {
    /// Which state-machine edge produced a flight-recorder snapshot.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FlightEdge {
        /// A segment left the connection (new data or retransmit).
        Send => "send",
        /// Inbound processing changed connection state (ACK advanced
        /// `snd_una`, data advanced `rcv_nxt`, or the window moved).
        Recv => "recv",
        /// The RTO fired and backed off exponentially.
        Rto => "rto",
    }
}

/// One flight-recorder snapshot: the sender-side TCP state at an edge.
/// The virtual-clock tick is stamped by the consuming observer from the
/// last [`SpanObserver::tick`], matching trace-event discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightSnap {
    /// Which edge fired.
    pub edge: FlightEdge,
    /// Oldest unacknowledged sequence number (`snd_una`).
    pub una: u32,
    /// Next sequence number to send (`snd_nxt`).
    pub nxt: u32,
    /// Next sequence number expected from the peer (`rcv_nxt`).
    pub rcv: u32,
    /// Congestion window in bytes.
    pub cwnd: u32,
    /// Current retransmission timeout in virtual ticks.
    pub rto: u32,
    /// Consecutive duplicate ACKs counted toward (or during) fast
    /// retransmit.
    pub dup_acks: u32,
    /// Whether the sender is inside a fast-recovery episode.
    pub in_recovery: bool,
}

/// The hook trait instrumented code reports through.
///
/// Every method has an empty default body, so observers implement only
/// what they consume. Call sites guard bookkeeping that has a cost of
/// its own (work-counter snapshots, latency maps) with
/// [`SpanObserver::ENABLED`], which is a `const`: with
/// [`NoopObserver`] the branch folds to `false` at monomorphisation
/// time and the instrumentation vanishes from the generated code.
pub trait SpanObserver {
    /// Whether this observer wants data at all.
    const ENABLED: bool = true;

    /// The server's virtual clock advanced; subsequent events are
    /// stamped with `now`.
    #[inline]
    fn tick(&mut self, now: u64) {
        let _ = now;
    }

    /// A processing span completed: `work` was spent in `layer` during
    /// `stage` of `path`. The system share of `work` is attributed to
    /// [`Layer::Kernel`] by aggregating observers.
    #[inline]
    fn span(&mut self, path: PathLabel, stage: Stage, layer: Layer, work: Work) {
        let _ = (path, stage, layer, work);
    }

    /// Increment a run counter by `n`.
    #[inline]
    fn count(&mut self, counter: Counter, n: u64) {
        let _ = (counter, n);
    }

    /// Record one histogram sample.
    #[inline]
    fn sample(&mut self, metric: Metric, value: u64) {
        let _ = (metric, value);
    }

    /// Append a packet-level event to the trace, stamped with the last
    /// [`SpanObserver::tick`].
    #[inline]
    fn event(&mut self, kind: EventKind, conn: u32, value: u64) {
        let _ = (kind, conn, value);
    }

    /// Append a flight-recorder snapshot for connection `conn`, stamped
    /// with the last [`SpanObserver::tick`].
    #[inline]
    fn flight(&mut self, conn: u32, snap: FlightSnap) {
        let _ = (conn, snap);
    }

    /// Record a per-segment causal-trace edge (see [`crate::segtrace`]),
    /// stamped with the last [`SpanObserver::tick`].
    #[inline]
    fn seg(&mut self, tag: crate::segtrace::SegTag, ev: crate::segtrace::SegEv) {
        let _ = (tag, ev);
    }
}

/// The observer that observes nothing, at zero cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl SpanObserver for NoopObserver {
    const ENABLED: bool = false;
}

/// Forwarding through a mutable reference, so call sites can hand out
/// `&mut O` without consuming the observer.
impl<O: SpanObserver> SpanObserver for &mut O {
    const ENABLED: bool = O::ENABLED;

    #[inline]
    fn tick(&mut self, now: u64) {
        (**self).tick(now);
    }

    #[inline]
    fn span(&mut self, path: PathLabel, stage: Stage, layer: Layer, work: Work) {
        (**self).span(path, stage, layer, work);
    }

    #[inline]
    fn count(&mut self, counter: Counter, n: u64) {
        (**self).count(counter, n);
    }

    #[inline]
    fn sample(&mut self, metric: Metric, value: u64) {
        (**self).sample(metric, value);
    }

    #[inline]
    fn event(&mut self, kind: EventKind, conn: u32, value: u64) {
        (**self).event(kind, conn, value);
    }

    #[inline]
    fn flight(&mut self, conn: u32, snap: FlightSnap) {
        (**self).flight(conn, snap);
    }

    #[inline]
    fn seg(&mut self, tag: crate::segtrace::SegTag, ev: crate::segtrace::SegEv) {
        (**self).seg(tag, ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_stable() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, m) in Metric::ALL.iter().enumerate() {
            assert_eq!(m.index(), i);
        }
        for (i, l) in Layer::ALL.iter().enumerate() {
            assert_eq!(l.index(), i);
        }
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        for (i, p) in PathLabel::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        for (i, e) in FlightEdge::ALL.iter().enumerate() {
            assert_eq!(e.index(), i);
        }
        for (i, e) in EventKind::ALL.iter().enumerate() {
            assert_eq!(e.index(), i);
        }
    }

    #[test]
    fn work_delta_saturates() {
        let w = Work::delta((100, 50), (150, 60));
        assert_eq!(w, Work { user: 50, system: 10 });
        assert_eq!(w.total(), 60);
        // A counter reset between snapshots must not wrap.
        let w = Work::delta((100, 50), (0, 0));
        assert_eq!(w, Work { user: 0, system: 0 });
    }

    #[test]
    fn noop_observer_is_disabled() {
        const { assert!(!NoopObserver::ENABLED) };
        fn enabled<O: SpanObserver>(_o: &O) -> bool {
            O::ENABLED
        }
        let mut o = NoopObserver;
        assert!(!enabled(&o));
        assert!(!enabled(&&mut o));
    }
}
