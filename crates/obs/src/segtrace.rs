//! Per-segment causal tracing with critical-path latency decomposition.
//!
//! The rest of `obs` aggregates: counters, histograms, windowed series.
//! This module follows *individual* TPDUs: a traced chunk gets a span
//! chain with a virtual-clock timestamp at every lifecycle edge — app
//! enqueue, marshal stages, kernel-part send (one per transmission,
//! fresh / fast-retransmit / RTO), kernel-part receive, out-of-order
//! hold, accept, ACK generation — in Dapper's span-tree discipline:
//! retransmissions are child spans of the original send, the wire hop
//! is the edge from a transmission's send mark to its receive mark,
//! and the hold span runs from arrival to replay.
//!
//! # Identity and propagation
//!
//! A trace is keyed by `(connection id, chunk seq)`; a single
//! *transmission* of that chunk is a [`SegTag`] (the key plus a
//! transmission ordinal). Sender-side marks are emitted by
//! `utcp::Connection` and the server pipeline. Receiver-side marks need
//! the tag to cross the kernel part: the tag rides **out of band** —
//! a side-table on the in-process loop-back, an optional envelope
//! field on the framed UDP backend — so the TPDU bytes a traced run
//! puts on the wire are byte-identical to an untraced run, and the
//! ILP ≡ non-ILP wire identity is untouched.
//!
//! # Sampling
//!
//! Deterministic from connection id and chunk seq alone (no RNG, no
//! host state): chunk `c` of connection `g` is sampled iff
//! `(g + c) % every == 0` (see [`sampled`]). `every == 0` disables the
//! tracer entirely. Independently, any chunk that enters loss recovery
//! (fast retransmit or RTO) is **promoted** to traced at its first
//! retransmission — the store backfills its enqueue and first-send
//! marks from the lightweight pending ledger it keeps for untraced
//! chunks (bounded like the trace store; promotion consumes the entry),
//! so recovery episodes are always observable.
//!
//! # Critical-path decomposition
//!
//! For a completed trace with enqueue tick `e`, first-send tick `s0`,
//! consumed-transmission send tick `sx`, its arrival tick `r`, and
//! accept tick `a`, the decomposition is the telescoping
//!
//! ```text
//! queueing    = s0 - e     (scheduler + flow-control wait)
//! recovery    = sx - s0    (loss-recovery wait: 0 when xmit 0 is consumed)
//! propagation = r  - sx    (kernel queue + wire, incl. fault delay)
//! processing  = a  - r     (receive pipeline + out-of-order hold)
//! ```
//!
//! which sums *exactly* to `a - e`, and `recovery + propagation +
//! processing` is exactly the harness's measured
//! `Metric::ChunkLatencyTicks` sample (`a - s0`) for that chunk — the
//! components are an exact partition of the measured latency, not an
//! estimate. The store asserts nothing; [`Breakdown::causal_ok`] gives
//! oracles a precise predicate.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::labels;
use crate::span::Stage;

/// Tick value meaning "not recorded".
const UNSET: u64 = u64::MAX;

/// Per-trace event cap: a pathological retransmission storm cannot grow
/// one trace without bound. Overflow is counted, never silent.
pub const MAX_TRACE_EVENTS: usize = 96;

/// Identity of one transmission of one traced chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegTag {
    /// Connection id (`obs_id`: the connection's harness index).
    pub conn: u32,
    /// Chunk sequence number within the connection's transfer.
    pub chunk: u32,
    /// Transmission ordinal: 0 = original send, 1.. = retransmissions.
    pub xmit: u16,
}

labels! {
    /// How a transmission left the sender.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum XmitKind {
        /// First transmission of new data.
        Fresh => "fresh",
        /// Duplicate-ACK / SACK-driven fast retransmit.
        Fast => "fast",
        /// RTO expiry retransmit.
        Rto => "rto",
    }
}

/// A lifecycle edge of a traced segment. The tag's `xmit` field names
/// which transmission an edge belongs to (0 for pre-send edges).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegEv {
    /// The chunk became head-of-line in the application's send queue.
    /// `traced: false` feeds the pending ledger only (promotion
    /// backfill); `true` opens a sampled trace.
    Enqueue {
        /// Whether the sampling rule selected this chunk.
        traced: bool,
    },
    /// A sender pipeline stage completed (ring reserve / fused marshal
    /// loop / commit, or the non-ILP passes occupying those positions).
    SendStage(Stage),
    /// The kernel part accepted transmission `xmit` for the wire.
    /// Untraced fresh sends feed the pending ledger; a `traced`
    /// retransmission of a chunk with no open trace *promotes* it.
    Send {
        /// How this transmission left the sender.
        kind: XmitKind,
        /// Whether the chunk is traced (sampled or promoted).
        traced: bool,
    },
    /// The receiver's kernel part handed transmission `xmit` up.
    KernelRecv,
    /// A receive pipeline stage completed.
    RecvStage(Stage),
    /// The segment was staged in the receiver's out-of-order hold.
    Hold,
    /// The segment was accepted and its bytes delivered (the tag names
    /// the transmission that was consumed).
    Accept,
    /// The acceptance ACK was generated.
    AckGen,
}

impl SegEv {
    /// Stable snake_case name for exposition.
    pub fn name(self) -> &'static str {
        match self {
            SegEv::Enqueue { .. } => "enqueue",
            SegEv::SendStage(Stage::Initial) => "send_initial",
            SegEv::SendStage(Stage::Integrated) => "send_integrated",
            SegEv::SendStage(Stage::Final) => "send_final",
            SegEv::Send { .. } => "send",
            SegEv::KernelRecv => "kernel_recv",
            SegEv::RecvStage(Stage::Initial) => "recv_initial",
            SegEv::RecvStage(Stage::Integrated) => "recv_integrated",
            SegEv::RecvStage(Stage::Final) => "recv_final",
            SegEv::Hold => "hold",
            SegEv::Accept => "accept",
            SegEv::AckGen => "ack_gen",
        }
    }
}

/// Deterministic sampling rule: is chunk `chunk` of connection `conn`
/// selected at rate `every`? `every == 0` means the tracer is off.
pub fn sampled(every: u32, conn: u32, chunk: u32) -> bool {
    every != 0 && conn.wrapping_add(chunk).is_multiple_of(every)
}

/// One recorded edge of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegRec {
    /// Virtual tick the edge fired.
    pub tick: u64,
    /// Transmission ordinal the edge belongs to.
    pub xmit: u16,
    /// The edge.
    pub ev: SegEv,
}

labels! {
    /// Why a trace exists.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Origin {
        /// Selected by the every-Nth sampling rule at enqueue.
        Sampled => "sampled",
        /// Opened retroactively when the chunk entered loss recovery
        /// (enqueue and first send backfilled from the pending ledger).
        Promoted => "promoted",
        /// First seen from wire context on a receiver with no sender-side
        /// marks (the two-process UDP world: each process keeps its half).
        Wire => "wire",
    }
}

/// One traced segment's span chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegTrace {
    /// Global connection id.
    pub conn: u32,
    /// Chunk sequence number.
    pub chunk: u32,
    /// Why the trace exists.
    pub origin: Origin,
    /// Recorded edges, in arrival order (within one virtual tick the
    /// order is the causal call order).
    pub events: Vec<SegRec>,
}

impl SegTrace {
    fn push(&mut self, rec: SegRec, truncated: &mut u64) {
        if self.events.len() >= MAX_TRACE_EVENTS {
            *truncated += 1;
            return;
        }
        self.events.push(rec);
    }

    /// Tick of the first matching event, or `None`.
    fn first_tick(&self, pred: impl Fn(&SegRec) -> bool) -> Option<u64> {
        self.events.iter().find(|r| pred(r)).map(|r| r.tick)
    }

    /// The accept edge, if the chunk was delivered from this trace.
    pub fn accept(&self) -> Option<SegRec> {
        self.events.iter().find(|r| r.ev == SegEv::Accept).copied()
    }

    /// Highest transmission ordinal seen on a send edge.
    pub fn last_xmit(&self) -> Option<u16> {
        self.events
            .iter()
            .filter(|r| matches!(r.ev, SegEv::Send { .. }))
            .map(|r| r.xmit)
            .max()
    }

    /// Critical-path decomposition, if the chain is complete (enqueue,
    /// first send, consumed transmission's send + receive, accept).
    pub fn breakdown(&self) -> Option<Breakdown> {
        let e = self.first_tick(|r| matches!(r.ev, SegEv::Enqueue { .. }))?;
        let s0 = self.first_tick(|r| matches!(r.ev, SegEv::Send { .. }) && r.xmit == 0)?;
        let acc = self.accept()?;
        let x = acc.xmit;
        let sx = self.first_tick(|r| matches!(r.ev, SegEv::Send { .. }) && r.xmit == x)?;
        let rx = self.first_tick(|r| r.ev == SegEv::KernelRecv && r.xmit == x)?;
        Some(Breakdown {
            enqueue: e,
            first_send: s0,
            consumed_send: sx,
            arrival: rx,
            accept: acc.tick,
        })
    }

    /// Every non-send edge must name a transmission whose send edge is
    /// recorded, and every retransmission must have its parent (the
    /// original send, xmit 0) present — "no orphan spans". Wire-origin
    /// traces (receiver half of a two-process world) are exempt from
    /// the send-side requirement.
    pub fn no_orphans(&self) -> bool {
        if self.origin == Origin::Wire {
            return true;
        }
        let sent: Vec<u16> = self
            .events
            .iter()
            .filter(|r| matches!(r.ev, SegEv::Send { .. }))
            .map(|r| r.xmit)
            .collect();
        let has_send = |x: u16| sent.contains(&x);
        if sent.iter().any(|&x| x > 0) && !has_send(0) {
            return false;
        }
        self.events.iter().all(|r| match r.ev {
            SegEv::KernelRecv | SegEv::Hold | SegEv::Accept | SegEv::AckGen => has_send(r.xmit),
            _ => true,
        })
    }

    fn to_json(&self) -> Json {
        let events: Vec<Json> = self
            .events
            .iter()
            .map(|r| {
                let mut o = Json::obj()
                    .set("tick", Json::U64(r.tick))
                    .set("xmit", Json::U64(u64::from(r.xmit)))
                    .set("ev", Json::Str(r.ev.name().to_string()));
                if let SegEv::Send { kind, .. } = r.ev {
                    o = o.set("kind", Json::Str(kind.name().to_string()));
                }
                o
            })
            .collect();
        let mut o = Json::obj()
            .set("conn", Json::U64(u64::from(self.conn)))
            .set("chunk", Json::U64(u64::from(self.chunk)))
            .set("origin", Json::Str(self.origin.name().to_string()))
            .set("events", Json::Arr(events));
        if let Some(b) = self.breakdown() {
            o = o.set("breakdown", b.to_json());
        }
        o
    }
}

/// The five milestones of a completed trace, as absolute ticks. The
/// component accessors are the telescoping differences (module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Breakdown {
    /// App enqueue tick `e`.
    pub enqueue: u64,
    /// First-transmission send tick `s0`.
    pub first_send: u64,
    /// Send tick `sx` of the transmission that was accepted.
    pub consumed_send: u64,
    /// Receiver kernel-part arrival tick `r` of that transmission.
    pub arrival: u64,
    /// Accept tick `a`.
    pub accept: u64,
}

impl Breakdown {
    /// Scheduler + flow-control wait before the first transmission.
    pub fn queueing(&self) -> u64 {
        self.first_send.saturating_sub(self.enqueue)
    }

    /// Loss-recovery wait: first send → consumed transmission's send.
    pub fn recovery(&self) -> u64 {
        self.consumed_send.saturating_sub(self.first_send)
    }

    /// Kernel queue + wire time of the consumed transmission.
    pub fn propagation(&self) -> u64 {
        self.arrival.saturating_sub(self.consumed_send)
    }

    /// Receive-pipeline + out-of-order-hold time.
    pub fn processing(&self) -> u64 {
        self.accept.saturating_sub(self.arrival)
    }

    /// End-to-end enqueue → accept ticks.
    pub fn total(&self) -> u64 {
        self.accept.saturating_sub(self.enqueue)
    }

    /// First send → accept: exactly the harness's per-chunk
    /// `ChunkLatencyTicks` sample.
    pub fn measured_latency(&self) -> u64 {
        self.accept.saturating_sub(self.first_send)
    }

    /// The milestones are causally ordered (so every component is a
    /// true non-negative difference and the telescoping sums are
    /// exact, not saturated).
    pub fn causal_ok(&self) -> bool {
        self.enqueue <= self.first_send
            && self.first_send <= self.consumed_send
            && self.consumed_send <= self.arrival
            && self.arrival <= self.accept
    }

    fn to_json(self) -> Json {
        Json::obj()
            .set("queueing", Json::U64(self.queueing()))
            .set("recovery", Json::U64(self.recovery()))
            .set("propagation", Json::U64(self.propagation()))
            .set("processing", Json::U64(self.processing()))
            .set("total", Json::U64(self.total()))
            .set("measured_latency", Json::U64(self.measured_latency()))
    }
}

/// Aggregate of completed-trace components (plain sums; exact because
/// each addend is exact).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ComponentTotals {
    /// Completed traces summed into the totals.
    pub completed: u64,
    /// Σ queueing.
    pub queueing: u64,
    /// Σ recovery.
    pub recovery: u64,
    /// Σ propagation.
    pub propagation: u64,
    /// Σ processing.
    pub processing: u64,
    /// Σ total (enqueue → accept).
    pub total: u64,
    /// Σ measured latency (first send → accept).
    pub measured_latency: u64,
}

impl ComponentTotals {
    /// JSON form used by `BENCH_trace.json` and the examples.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("completed", Json::U64(self.completed))
            .set("queueing", Json::U64(self.queueing))
            .set("recovery", Json::U64(self.recovery))
            .set("propagation", Json::U64(self.propagation))
            .set("processing", Json::U64(self.processing))
            .set("total", Json::U64(self.total))
            .set("measured_latency", Json::U64(self.measured_latency))
    }
}

/// Pending ledger entry: the two backfill facts kept for an untraced
/// chunk while the tracer is on, so promotion can reconstruct a full
/// chain. Promotion consumes the entry — a chunk with a trace has none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pending {
    enqueue: u64,
    first_send: u64,
}

impl Pending {
    const UNSET: Pending = Pending { enqueue: UNSET, first_send: UNSET };
}

/// The per-segment trace store: open/completed traces keyed by
/// `(conn << 32) | chunk`, plus the pending backfill ledger. Both maps
/// hold at most `max_traces` entries, and what either refuses is
/// counted.
#[derive(Debug)]
pub struct SegStore {
    traces: BTreeMap<u64, SegTrace>,
    pending: BTreeMap<u64, Pending>,
    max_traces: usize,
    /// Traces refused because `max_traces` was reached.
    pub dropped_traces: u64,
    /// Ledger notes refused because the ledger was full. The chunk
    /// still promotes if it enters loss recovery, without the prefix
    /// the note would have backfilled.
    pub refused_pending: u64,
    /// Events refused because a trace hit [`MAX_TRACE_EVENTS`].
    pub truncated_events: u64,
}

impl Default for SegStore {
    fn default() -> Self {
        SegStore::new(4096)
    }
}

fn key(conn: u32, chunk: u32) -> u64 {
    (u64::from(conn) << 32) | u64::from(chunk)
}

impl SegStore {
    /// A store retaining at most `max_traces` traces, and as many
    /// ledger entries (both drop-accounted).
    pub fn new(max_traces: usize) -> Self {
        SegStore {
            traces: BTreeMap::new(),
            pending: BTreeMap::new(),
            max_traces,
            dropped_traces: 0,
            refused_pending: 0,
            truncated_events: 0,
        }
    }

    /// Number of retained traces.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// Whether no trace is retained.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Iterate retained traces in key order (conn-major, chunk-minor).
    pub fn iter(&self) -> impl Iterator<Item = &SegTrace> {
        self.traces.values()
    }

    /// The trace for `(conn, chunk)`, if retained.
    pub fn get(&self, conn: u32, chunk: u32) -> Option<&SegTrace> {
        self.traces.get(&key(conn, chunk))
    }

    /// Get-or-create the trace for `(conn, chunk)` in `traces`,
    /// enforcing the cap with drop accounting. An associated function
    /// over disjoint fields so callers can keep other field borrows.
    fn open_in<'a>(
        traces: &'a mut BTreeMap<u64, SegTrace>,
        max_traces: usize,
        dropped: &mut u64,
        conn: u32,
        chunk: u32,
        origin: Origin,
    ) -> Option<&'a mut SegTrace> {
        let k = key(conn, chunk);
        if !traces.contains_key(&k) && traces.len() >= max_traces {
            *dropped += 1;
            return None;
        }
        Some(traces.entry(k).or_insert_with(|| SegTrace {
            conn,
            chunk,
            origin,
            events: Vec::new(),
        }))
    }

    /// The ledger entry for key `k`, created unless the ledger is full
    /// (counted). Associated for the same reason as [`Self::open_in`].
    fn note_in<'a>(
        pending: &'a mut BTreeMap<u64, Pending>,
        cap: usize,
        refused: &mut u64,
        k: u64,
    ) -> Option<&'a mut Pending> {
        if !pending.contains_key(&k) && pending.len() >= cap {
            *refused += 1;
            return None;
        }
        Some(pending.entry(k).or_insert(Pending::UNSET))
    }

    /// Record one edge, stamped with virtual tick `now`. This is the
    /// single ingestion point the recorder's `seg` hook calls.
    pub fn record(&mut self, now: u64, tag: SegTag, ev: SegEv) {
        let SegStore {
            traces,
            pending,
            max_traces,
            dropped_traces,
            refused_pending,
            truncated_events,
        } = self;
        let k = key(tag.conn, tag.chunk);
        match ev {
            SegEv::Enqueue { traced: true } => {
                if let Some(t) = Self::open_in(
                    traces,
                    *max_traces,
                    dropped_traces,
                    tag.conn,
                    tag.chunk,
                    Origin::Sampled,
                ) {
                    t.push(SegRec { tick: now, xmit: tag.xmit, ev }, truncated_events);
                }
            }
            SegEv::Enqueue { traced: false } => {
                if let Some(p) = Self::note_in(pending, *max_traces, refused_pending, k) {
                    p.enqueue = p.enqueue.min(now);
                }
            }
            SegEv::Send { traced: false, .. } => {
                // Untraced fresh send: remember the first-send tick for
                // a possible later promotion.
                if let Some(p) = Self::note_in(pending, *max_traces, refused_pending, k) {
                    p.first_send = p.first_send.min(now);
                }
            }
            SegEv::Send { traced: true, .. } => {
                // Promotion: the chunk entered loss recovery without
                // having been sampled. Its prefix comes out of the
                // pending ledger, which then forgets the chunk.
                let backfill = if tag.xmit > 0 && !traces.contains_key(&k) {
                    Some(pending.remove(&k).unwrap_or(Pending::UNSET))
                } else {
                    None
                };
                let origin = if backfill.is_some() { Origin::Promoted } else { Origin::Sampled };
                if let Some(t) = Self::open_in(
                    traces,
                    *max_traces,
                    dropped_traces,
                    tag.conn,
                    tag.chunk,
                    origin,
                ) {
                    if let Some(p) = backfill {
                        if p.enqueue != UNSET {
                            t.push(
                                SegRec {
                                    tick: p.enqueue,
                                    xmit: 0,
                                    ev: SegEv::Enqueue { traced: true },
                                },
                                truncated_events,
                            );
                        }
                        if p.first_send != UNSET {
                            t.push(
                                SegRec {
                                    tick: p.first_send,
                                    xmit: 0,
                                    ev: SegEv::Send { kind: XmitKind::Fresh, traced: true },
                                },
                                truncated_events,
                            );
                        }
                    }
                    t.push(SegRec { tick: now, xmit: tag.xmit, ev }, truncated_events);
                }
            }
            SegEv::SendStage(_) => {
                // Stage marks are decoration on an existing trace; one
                // arriving before the trace opened (a standalone
                // pipeline call with no enqueue mark) is dropped rather
                // than allowed to open a mislabeled trace.
                if let Some(t) = traces.get_mut(&k) {
                    t.push(SegRec { tick: now, xmit: tag.xmit, ev }, truncated_events);
                }
            }
            _ => {
                // Receiver-side edges always belong to a traced chunk
                // (context only crosses the kernel part when traced). A
                // receiver that never saw the sender's marks (the
                // two-process world) opens a wire-origin trace.
                let origin = if traces.contains_key(&k) { Origin::Sampled } else { Origin::Wire };
                if let Some(t) = Self::open_in(
                    traces,
                    *max_traces,
                    dropped_traces,
                    tag.conn,
                    tag.chunk,
                    origin,
                ) {
                    t.push(SegRec { tick: now, xmit: tag.xmit, ev }, truncated_events);
                }
            }
        }
    }

    /// Exact component sums over every completed trace.
    pub fn totals(&self) -> ComponentTotals {
        let mut t = ComponentTotals::default();
        for tr in self.traces.values() {
            if let Some(b) = tr.breakdown() {
                t.completed += 1;
                t.queueing += b.queueing();
                t.recovery += b.recovery();
                t.propagation += b.propagation();
                t.processing += b.processing();
                t.total += b.total();
                t.measured_latency += b.measured_latency();
            }
        }
        t
    }

    /// Count of traces by origin: `(sampled, promoted, wire)`.
    pub fn origin_counts(&self) -> (u64, u64, u64) {
        let mut c = [0u64; Origin::ALL.len()];
        for t in self.traces.values() {
            c[t.origin.index()] += 1;
        }
        (c[0], c[1], c[2])
    }

    /// The store as JSON: every retained trace (key order, so identical
    /// stores render byte-identically), origin counts, exact component
    /// totals, and drop accounting.
    pub fn to_json(&self) -> Json {
        let traces: Vec<Json> = self.traces.values().map(SegTrace::to_json).collect();
        let (sampled, promoted, wire) = self.origin_counts();
        Json::obj()
            .set("traces", Json::Arr(traces))
            .set("sampled", Json::U64(sampled))
            .set("promoted", Json::U64(promoted))
            .set("wire", Json::U64(wire))
            .set("pending", Json::U64(self.pending.len() as u64))
            .set("dropped_traces", Json::U64(self.dropped_traces))
            .set("refused_pending", Json::U64(self.refused_pending))
            .set("truncated_events", Json::U64(self.truncated_events))
            .set("components", self.totals().to_json())
    }

    /// Chrome `trace_event` duration spans (`"ph": "X"`) for every
    /// retained trace: the root span runs enqueue → accept (or the last
    /// recorded tick while incomplete), each transmission's wire hop is
    /// a child `wire#n` span, the hold span covers arrival → accept,
    /// and instantaneous edges emit as instants. `pid` groups the spans
    /// under one process row (one per exporting process).
    pub fn chrome_spans(&self, pid: u64) -> Vec<Json> {
        let mut out = Vec::new();
        let dur = |name: &str, t0: u64, t1: u64, tid: u64, args: Json| {
            Json::obj()
                .set("name", Json::Str(name.to_string()))
                .set("cat", Json::Str("segtrace".to_string()))
                .set("ph", Json::Str("X".to_string()))
                .set("ts", Json::U64(t0))
                .set("dur", Json::U64(t1.saturating_sub(t0)))
                .set("pid", Json::U64(pid))
                .set("tid", Json::U64(tid))
                .set("args", args)
        };
        for tr in self.traces.values() {
            let tid = u64::from(tr.conn);
            let label = format!("chunk#{}", tr.chunk);
            let Some(first) = tr.events.first().map(|r| r.tick) else { continue };
            let last = tr.events.iter().map(|r| r.tick).max().unwrap_or(first);
            let end = tr.accept().map_or(last, |a| a.tick);
            out.push(dur(
                &label,
                first,
                end,
                tid,
                Json::obj()
                    .set("origin", Json::Str(tr.origin.name().to_string()))
                    .set("chunk", Json::U64(u64::from(tr.chunk))),
            ));
            // Wire hops: each transmission's send → its kernel receive.
            for r in &tr.events {
                if let SegEv::Send { kind, .. } = r.ev {
                    let arrive = tr
                        .events
                        .iter()
                        .find(|q| q.ev == SegEv::KernelRecv && q.xmit == r.xmit)
                        .map(|q| q.tick);
                    if let Some(t1) = arrive {
                        out.push(dur(
                            &format!("{}#wire{}", label, r.xmit),
                            r.tick,
                            t1,
                            tid,
                            Json::obj()
                                .set("xmit", Json::U64(u64::from(r.xmit)))
                                .set("kind", Json::Str(kind.name().to_string()))
                                .set(
                                    "parent",
                                    Json::Str(if r.xmit == 0 {
                                        label.clone()
                                    } else {
                                        format!("{label}#wire0")
                                    }),
                                ),
                        ));
                    }
                }
            }
            // Hold span: arrival of the consumed transmission → accept.
            if let Some(b) = tr.breakdown() {
                if b.processing() > 0 {
                    out.push(dur(
                        &format!("{label}#hold"),
                        b.arrival,
                        b.accept,
                        tid,
                        Json::obj().set("parent", Json::Str(label.clone())),
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag(conn: u32, chunk: u32, xmit: u16) -> SegTag {
        SegTag { conn, chunk, xmit }
    }

    #[test]
    fn sampling_rule_is_deterministic_and_off_at_zero() {
        assert!(!sampled(0, 0, 0), "every == 0 disables");
        assert!(sampled(1, 7, 3), "every == 1 samples all");
        assert!(sampled(4, 1, 3));
        assert!(!sampled(4, 1, 4));
        for c in 0..32 {
            assert_eq!(sampled(3, 5, c), sampled(3, 5, c), "pure function");
        }
    }

    /// Drive one clean sampled chunk through every edge.
    fn clean_trace(store: &mut SegStore) {
        store.record(10, tag(2, 0, 0), SegEv::Enqueue { traced: true });
        store.record(12, tag(2, 0, 0), SegEv::SendStage(Stage::Initial));
        store.record(12, tag(2, 0, 0), SegEv::SendStage(Stage::Integrated));
        store.record(12, tag(2, 0, 0), SegEv::Send { kind: XmitKind::Fresh, traced: true });
        store.record(12, tag(2, 0, 0), SegEv::SendStage(Stage::Final));
        store.record(13, tag(2, 0, 0), SegEv::KernelRecv);
        store.record(13, tag(2, 0, 0), SegEv::RecvStage(Stage::Integrated));
        store.record(13, tag(2, 0, 0), SegEv::Accept);
        store.record(13, tag(2, 0, 0), SegEv::AckGen);
    }

    #[test]
    fn complete_chain_decomposes_exactly() {
        let mut s = SegStore::default();
        clean_trace(&mut s);
        let t = s.get(2, 0).expect("trace retained");
        assert_eq!(t.origin, Origin::Sampled);
        assert!(t.no_orphans());
        let b = t.breakdown().expect("complete chain");
        assert!(b.causal_ok());
        assert_eq!(b.queueing(), 2);
        assert_eq!(b.recovery(), 0);
        assert_eq!(b.propagation(), 1);
        assert_eq!(b.processing(), 0);
        assert_eq!(b.total(), 3);
        assert_eq!(b.measured_latency(), 1);
        assert_eq!(
            b.queueing() + b.recovery() + b.propagation() + b.processing(),
            b.total(),
            "components partition the total exactly"
        );
        assert_eq!(
            b.recovery() + b.propagation() + b.processing(),
            b.measured_latency(),
            "post-send components partition the measured latency exactly"
        );
    }

    #[test]
    fn retransmission_consumed_copy_drives_the_decomposition() {
        let mut s = SegStore::default();
        s.record(5, tag(1, 3, 0), SegEv::Enqueue { traced: true });
        s.record(5, tag(1, 3, 0), SegEv::Send { kind: XmitKind::Fresh, traced: true });
        // Original copy lost; fast retransmit at tick 9 arrives at 10,
        // held until 11, accepted at 11.
        s.record(9, tag(1, 3, 1), SegEv::Send { kind: XmitKind::Fast, traced: true });
        s.record(10, tag(1, 3, 1), SegEv::KernelRecv);
        s.record(10, tag(1, 3, 1), SegEv::Hold);
        s.record(11, tag(1, 3, 1), SegEv::Accept);
        let t = s.get(1, 3).unwrap();
        assert!(t.no_orphans());
        let b = t.breakdown().unwrap();
        assert!(b.causal_ok());
        assert_eq!(b.queueing(), 0);
        assert_eq!(b.recovery(), 4, "first send 5 → consumed send 9");
        assert_eq!(b.propagation(), 1);
        assert_eq!(b.processing(), 1, "the hold tick");
        assert_eq!(b.total(), 6);
        assert_eq!(b.measured_latency(), 6);
    }

    #[test]
    fn unsampled_chunk_promotes_on_retransmit_with_backfill() {
        let mut s = SegStore::default();
        // Untraced life: ledger only.
        s.record(3, tag(0, 7, 0), SegEv::Enqueue { traced: false });
        s.record(4, tag(0, 7, 0), SegEv::Send { kind: XmitKind::Fresh, traced: false });
        assert!(s.get(0, 7).is_none(), "not traced yet");
        // Loss recovery: RTO retransmit promotes.
        s.record(20, tag(0, 7, 1), SegEv::Send { kind: XmitKind::Rto, traced: true });
        s.record(21, tag(0, 7, 1), SegEv::KernelRecv);
        s.record(21, tag(0, 7, 1), SegEv::Accept);
        let t = s.get(0, 7).expect("promoted");
        assert_eq!(t.origin, Origin::Promoted);
        assert!(t.no_orphans(), "backfilled xmit 0 parents the retransmit");
        let b = t.breakdown().expect("backfill completes the chain");
        assert!(b.causal_ok());
        assert_eq!(b.queueing(), 1);
        assert_eq!(b.recovery(), 16);
        assert_eq!(b.propagation(), 1);
        assert_eq!(b.processing(), 0);
        assert_eq!(b.total(), 18);
    }

    #[test]
    fn receiver_only_context_opens_a_wire_trace() {
        let mut s = SegStore::default();
        s.record(7, tag(9, 2, 0), SegEv::KernelRecv);
        s.record(7, tag(9, 2, 0), SegEv::Accept);
        let t = s.get(9, 2).unwrap();
        assert_eq!(t.origin, Origin::Wire);
        assert!(t.no_orphans(), "wire traces are exempt from send-side parents");
        assert!(t.breakdown().is_none(), "no enqueue ⇒ no decomposition");
    }

    #[test]
    fn orphan_detection_fires_on_missing_parent() {
        let mut s = SegStore::default();
        s.record(5, tag(1, 1, 0), SegEv::Enqueue { traced: true });
        s.record(6, tag(1, 1, 0), SegEv::Send { kind: XmitKind::Fresh, traced: true });
        // A receive edge for a transmission that was never sent.
        s.record(8, tag(1, 1, 3), SegEv::KernelRecv);
        assert!(!s.get(1, 1).unwrap().no_orphans());
    }

    #[test]
    fn totals_sum_only_completed_traces_exactly() {
        let mut s = SegStore::default();
        clean_trace(&mut s);
        // An incomplete trace (no accept) contributes nothing.
        s.record(4, tag(3, 0, 0), SegEv::Enqueue { traced: true });
        s.record(5, tag(3, 0, 0), SegEv::Send { kind: XmitKind::Fresh, traced: true });
        let t = s.totals();
        assert_eq!(t.completed, 1);
        assert_eq!(t.queueing, 2);
        assert_eq!(t.total, 3);
        assert_eq!(t.measured_latency, 1);
        assert_eq!(
            t.queueing + t.recovery + t.propagation + t.processing,
            t.total,
            "aggregate components stay an exact partition"
        );
    }

    #[test]
    fn trace_cap_drops_with_accounting() {
        let mut s = SegStore::new(2);
        for c in 0..4u32 {
            s.record(1, tag(c, 0, 0), SegEv::Enqueue { traced: true });
        }
        assert_eq!(s.len(), 2);
        assert_eq!(s.dropped_traces, 2);
    }

    #[test]
    fn pending_ledger_is_bounded_and_forgets_opened_chunks() {
        let ledger = |s: &SegStore| s.to_json().get("pending").cloned();
        let mut s = SegStore::new(2);
        // A sampled chunk has its trace from the start: nothing to backfill.
        s.record(1, tag(0, 0, 0), SegEv::Enqueue { traced: true });
        s.record(1, tag(0, 0, 0), SegEv::Send { kind: XmitKind::Fresh, traced: true });
        assert_eq!(ledger(&s), Some(Json::U64(0)));
        // An untraced chunk is noted once, and forgotten when it promotes.
        s.record(2, tag(0, 1, 0), SegEv::Enqueue { traced: false });
        s.record(3, tag(0, 1, 0), SegEv::Send { kind: XmitKind::Fresh, traced: false });
        assert_eq!(ledger(&s), Some(Json::U64(1)));
        s.record(9, tag(0, 1, 1), SegEv::Send { kind: XmitKind::Rto, traced: true });
        assert_eq!(ledger(&s), Some(Json::U64(0)));
        assert_eq!(s.get(0, 1).unwrap().events.len(), 3, "backfilled enqueue and first send");
        // The ledger holds at most the cap; the third chunk's notes are
        // refused and counted.
        for chunk in 2..5 {
            s.record(10, tag(0, chunk, 0), SegEv::Enqueue { traced: false });
            s.record(11, tag(0, chunk, 0), SegEv::Send { kind: XmitKind::Fresh, traced: false });
        }
        assert_eq!(ledger(&s), Some(Json::U64(2)));
        assert_eq!(s.refused_pending, 2);
    }

    #[test]
    fn event_cap_truncates_with_accounting() {
        let mut s = SegStore::default();
        s.record(0, tag(0, 0, 0), SegEv::Enqueue { traced: true });
        for i in 0..(MAX_TRACE_EVENTS as u64 + 10) {
            s.record(i, tag(0, 0, 0), SegEv::RecvStage(Stage::Integrated));
        }
        assert_eq!(s.get(0, 0).unwrap().events.len(), MAX_TRACE_EVENTS);
        assert_eq!(s.truncated_events, 11);
    }

    #[test]
    fn chrome_spans_cover_root_wire_and_hold() {
        let mut s = SegStore::default();
        s.record(5, tag(1, 3, 0), SegEv::Enqueue { traced: true });
        s.record(5, tag(1, 3, 0), SegEv::Send { kind: XmitKind::Fresh, traced: true });
        s.record(9, tag(1, 3, 1), SegEv::Send { kind: XmitKind::Fast, traced: true });
        s.record(10, tag(1, 3, 1), SegEv::KernelRecv);
        s.record(10, tag(1, 3, 1), SegEv::Hold);
        s.record(11, tag(1, 3, 1), SegEv::Accept);
        let spans = s.chrome_spans(4);
        let names: Vec<&str> =
            spans.iter().filter_map(|e| e.get("name").and_then(|n| n.as_str())).collect();
        assert!(names.contains(&"chunk#3"), "root span: {names:?}");
        assert!(names.contains(&"chunk#3#wire1"), "wire hop of the consumed copy");
        assert!(names.contains(&"chunk#3#hold"), "hold span");
        for e in &spans {
            assert_eq!(e.get("pid"), Some(&Json::U64(4)));
            assert_eq!(e.get("ph").and_then(|p| p.as_str()), Some("X"));
        }
    }
}
