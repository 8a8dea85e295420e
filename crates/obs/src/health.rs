//! Cross-layer health engine: anomaly detectors, per-connection flight
//! recorder, and diagnostic bundles.
//!
//! PRs 2 and 4 gave the stack raw telemetry — counters, histograms,
//! windowed series, a trace ring — but nothing *interprets* it: a
//! retransmit storm or a stalled connection is invisible until a human
//! reads a JSON report. This module closes that loop with two pieces:
//!
//! * a **flight recorder** ([`FlightRing`]) — a tiny fixed-size ring of
//!   sender-state snapshots ([`crate::span::FlightSnap`]: `snd_una`,
//!   `snd_nxt`, `rcv_nxt`, cwnd, RTO) that `utcp::conn` pushes at its
//!   send / recv / RTO edges through the [`crate::span::SpanObserver`]
//!   hook, so the sites compile away with `NoopObserver` exactly like
//!   span hooks, and the recorder writes only plain host memory (no
//!   instrumented `Mem` accesses — observed runs stay bit-identical to
//!   unobserved ones);
//!
//! * a set of **detectors** ([`analyze`]) — pure functions over a
//!   finished [`Recorder`] plus per-connection harness views
//!   ([`ConnView`]) and kernel-part queue stats ([`QueueStat`]) that
//!   raise named, structured [`Verdict`]s. Because analysis is a pure
//!   function of merged telemetry, sharded and unsharded runs that
//!   merge to the same recorder produce byte-identical verdicts — the
//!   S = 1 equivalence the rest of the observability stack already
//!   pins down.
//!
//! The detector catalogue (the thresholds are this module's constants):
//!
//! | detector | fires when |
//! |---|---|
//! | `retransmit_storm` | a series window has `retransmits >=` [`STORM_MIN`] and retransmits ≥ [`STORM_RATIO`]·deliveries |
//! | `rto_spiral` | ≥ [`SPIRAL_BACKOFFS`] consecutive RTO back-offs with `snd_una` frozen and the RTO strictly growing |
//! | `stall` | an established conn has unacked data and no delivery progress for [`STALL_RTOS`]·RTO ticks |
//! | `queue_saturation` | the kernel-part queue high-water reached [`QUEUE_PCT`] of slot capacity |
//! | `fairness_collapse` | the weight-normalised Jain index at first completion drops below [`FAIRNESS_MIN`] |
//!
//! When anything fires, [`bundle`] assembles a diagnostic JSON — the
//! verdicts, the offending connections' flight dumps, the relevant
//! series windows and the trace-ring slice — rendered for humans by
//! `examples/doctor.rs`.

use crate::json::Json;
use crate::labels;
use crate::recorder::Recorder;
use crate::ring::Ring;
use crate::span::{Counter, FlightEdge, FlightSnap};

/// Snapshots retained per connection. Deliberately tiny: the flight
/// recorder answers "what were the last few state transitions before
/// things went wrong", not "replay the run".
pub const FLIGHT_CAPACITY: usize = 16;

/// One retained flight-recorder entry: a snapshot stamped with the
/// virtual tick the consuming observer last saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightRec {
    /// Virtual tick of the last `SpanObserver::tick` before the edge.
    pub tick: u64,
    /// The state snapshot itself.
    pub snap: FlightSnap,
}

/// A connection's flight recorder: a [`Ring`] of [`FLIGHT_CAPACITY`]
/// snapshots (one capacity crate-wide, so shard rings merge
/// structurally).
pub type FlightRing = Ring<FlightRec>;

impl FlightRing {
    /// The ring as JSON: capacity, totals, and the retained snapshots
    /// oldest-first.
    pub fn to_json(&self) -> Json {
        let snaps: Vec<Json> = self
            .iter()
            .map(|r| {
                Json::obj()
                    .set("tick", Json::U64(r.tick))
                    .set("edge", Json::Str(r.snap.edge.name().to_string()))
                    .set("una", Json::U64(r.snap.una as u64))
                    .set("nxt", Json::U64(r.snap.nxt as u64))
                    .set("rcv", Json::U64(r.snap.rcv as u64))
                    .set("cwnd", Json::U64(r.snap.cwnd as u64))
                    .set("rto", Json::U64(r.snap.rto as u64))
                    .set("dup_acks", Json::U64(r.snap.dup_acks as u64))
                    .set("in_recovery", Json::Bool(r.snap.in_recovery))
            })
            .collect();
        Json::obj()
            .set("capacity", Json::U64(self.capacity() as u64))
            .set("total", Json::U64(self.total_pushed()))
            .set("overwritten", Json::U64(self.overwritten()))
            .set("snaps", Json::Arr(snaps))
    }
}

labels! {
    /// The named anomaly detectors, in verdict-sort order.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    pub enum Detector {
        /// Retransmissions rival deliveries inside one series window.
        RetransmitStorm => "retransmit_storm",
        /// Consecutive exponential RTO back-offs with no forward progress.
        RtoSpiral => "rto_spiral",
        /// Unacked data with no delivery progress for N× RTO.
        Stall => "stall",
        /// Kernel-part queue high-water at slot capacity.
        QueueSaturation => "queue_saturation",
        /// Weight-normalised Jain fairness index collapse.
        FairnessCollapse => "fairness_collapse",
    }
}

// Detector thresholds. Deliberately conservative — the sim's clean-seed
// sweep pins zero false positives across every scenario kind.

/// Storm: minimum retransmits in a window before it can qualify — an
/// absolute noise gate. Deliberately *not* scaled by a coarsened
/// window's span: retransmissions are RTO-rate-limited (one per
/// connection per RTO), so a span-scaled floor would demand rates the
/// protocol cannot physically emit and old windows could never fire.
pub const STORM_MIN: u64 = 4;
/// Storm: retransmits must also reach this multiple of the same
/// window's deliveries (1.0 = retransmitting as much as it ships).
pub const STORM_RATIO: f64 = 1.0;
/// Spiral: consecutive RTO back-offs (una frozen, RTO strictly growing)
/// before the exponential retreat is called a spiral.
pub const SPIRAL_BACKOFFS: usize = 3;
/// Stall: no delivery progress for this many multiples of the
/// connection's current RTO while data is in flight.
pub const STALL_RTOS: u64 = 4;
/// Saturation: queue high-water as a fraction of slot capacity.
pub const QUEUE_PCT: f64 = 1.0;
/// Fairness: minimum acceptable weight-normalised Jain index.
pub const FAIRNESS_MIN: f64 = 0.6;
/// Fairness: sessions needed before the index means anything.
pub const FAIRNESS_MIN_CONNS: usize = 2;

/// Per-connection facts only the harness knows, snapshotted for
/// analysis. Connection ids are *global* (shard `conn_base` + local
/// index), so views from different shards concatenate without
/// collision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConnView {
    /// Global connection id.
    pub conn: u32,
    /// Handshake completed.
    pub established: bool,
    /// Transfer finished.
    pub done: bool,
    /// Sender bytes in flight (`snd_nxt - snd_una`).
    pub in_flight: u32,
    /// Sender's current RTO in virtual ticks.
    pub rto: u32,
    /// Sender's congestion window in bytes.
    pub cwnd: u32,
    /// Harness virtual clock at snapshot time.
    pub now: u64,
    /// Last virtual tick this connection made delivery progress
    /// (chunk accepted client-side), or its establish tick if none.
    pub last_progress: u64,
    /// Total bytes delivered to the client so far.
    pub delivered_bytes: u64,
    /// Bytes delivered when the *first* connection completed — the
    /// fairness snapshot (equals `delivered_bytes` when no connection
    /// has completed yet).
    pub share_bytes: u64,
    /// Scheduler weight (1 = unweighted).
    pub weight: u32,
}

/// Kernel-part queue occupancy facts for the saturation detector.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStat {
    /// High-water mark of datagrams queued across the backend.
    pub peak: u64,
    /// Total queue capacity (0 = unknown/unbounded; disables the
    /// detector).
    pub capacity: u64,
}

/// One structured detector verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Which detector fired.
    pub detector: Detector,
    /// The offending connection, when the anomaly is per-connection.
    pub conn: Option<u32>,
    /// First tick of the offending series window, when windowed.
    pub window_start: Option<u64>,
    /// Width of the offending series window in ticks.
    pub window_ticks: Option<u64>,
    /// The measured value that crossed the threshold.
    pub measured: f64,
    /// The threshold it crossed.
    pub threshold: f64,
    /// Human-readable evidence line.
    pub detail: String,
}

impl Verdict {
    /// A verdict about a whole run or one connection (no series window).
    fn new(
        detector: Detector,
        conn: Option<u32>,
        measured: f64,
        threshold: f64,
        detail: String,
    ) -> Verdict {
        Verdict { detector, conn, window_start: None, window_ticks: None, measured, threshold, detail }
    }

    /// The verdict as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("detector", Json::Str(self.detector.name().to_string()))
            .set("conn", self.conn.map_or(Json::Null, |c| Json::U64(c as u64)))
            .set("window_start", self.window_start.map_or(Json::Null, Json::U64))
            .set("window_ticks", self.window_ticks.map_or(Json::Null, Json::U64))
            .set("measured", Json::F64(self.measured))
            .set("threshold", Json::F64(self.threshold))
            .set("detail", Json::Str(self.detail.clone()))
    }
}

/// Jain's fairness index over per-connection shares: `(Σx)² / (n·Σx²)`.
///
/// 1.0 means every connection got an identical share; `1/n` means one
/// connection got everything. Shares of a weighted run should be
/// normalised by weight before calling, so that a perfectly weighted
/// schedule also scores 1.0. Non-finite or negative shares (a NaN from
/// a zero-weight division, a negative from upstream subtraction bugs)
/// are clamped to 0 rather than poisoning the index, and a degenerate
/// all-zero or empty population is perfectly fair.
pub fn jain(shares: &[f64]) -> f64 {
    if shares.is_empty() {
        return 1.0;
    }
    let clean = shares.iter().map(|&x| if x.is_finite() && x > 0.0 { x } else { 0.0 });
    let sum: f64 = clean.clone().sum();
    let sum_sq: f64 = clean.map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (shares.len() as f64 * sum_sq)
}

/// Run every detector over a finished recorder plus the harness-side
/// views, returning verdicts sorted by `(detector, conn, window)` so
/// the output is deterministic and shard-merge invariant.
pub fn analyze(rec: &Recorder, views: &[ConnView], queue: QueueStat) -> Vec<Verdict> {
    let mut out = Vec::new();

    // Retransmit storm: judged per series window so a mid-run burst is
    // visible even when run totals look healthy. The ratio is the
    // signal — retransmissions rivalling deliveries — and the floor is
    // only an absolute noise gate. Both judge coarsened windows as-is
    // (see [`STORM_MIN`]): the ratio is span-invariant.
    let wt = rec.series().config().window_ticks;
    for w in rec.series().iter() {
        let r = w.counter(Counter::Retransmits);
        let d = w.counter(Counter::ChunksDelivered);
        if r >= STORM_MIN && r as f64 >= STORM_RATIO * d as f64 {
            let (start, ticks) = (w.start_tick(wt), w.ticks(wt));
            out.push(Verdict {
                window_start: Some(start),
                window_ticks: Some(ticks),
                ..Verdict::new(
                    Detector::RetransmitStorm,
                    None,
                    r as f64,
                    STORM_MIN as f64,
                    format!("window [{start}, +{ticks}) retransmitted {r} vs {d} delivered"),
                )
            });
        }
    }

    // RTO spiral: scan each connection's flight ring for runs of Rto
    // edges with snd_una frozen and the RTO strictly growing — the
    // signature of exponential back-off retreating with nothing acked.
    for (&conn, ring) in rec.flights() {
        let mut run = 0usize;
        let mut best = 0usize;
        let mut prev: Option<FlightSnap> = None;
        for rec in ring.iter() {
            if rec.snap.edge != FlightEdge::Rto {
                continue;
            }
            match prev {
                Some(p) if p.una == rec.snap.una && rec.snap.rto > p.rto => run += 1,
                _ => run = 1,
            }
            best = best.max(run);
            prev = Some(rec.snap);
        }
        if best >= SPIRAL_BACKOFFS {
            out.push(Verdict::new(
                Detector::RtoSpiral,
                Some(conn),
                best as f64,
                SPIRAL_BACKOFFS as f64,
                format!("conn {conn}: {best} consecutive RTO back-offs, snd_una frozen"),
            ));
        }
    }

    // Zero-progress stall: data in flight, nothing delivered for
    // STALL_RTOS × the connection's (already backed-off) RTO.
    for v in views {
        if !v.established || v.done || v.in_flight == 0 {
            continue;
        }
        let idle = v.now.saturating_sub(v.last_progress);
        let limit = STALL_RTOS * v.rto as u64;
        if limit > 0 && idle >= limit {
            out.push(Verdict::new(
                Detector::Stall,
                Some(v.conn),
                idle as f64,
                limit as f64,
                format!(
                    "conn {}: {} bytes in flight, no progress for {} ticks (rto {})",
                    v.conn, v.in_flight, idle, v.rto
                ),
            ));
        }
    }

    // Queue saturation: the kernel part's high-water reached capacity.
    // Loopback recycles slots round-robin on overflow, so a saturated
    // pool silently corrupts queued datagrams — this is the detector
    // that explains the resulting checksum-reject storm.
    if queue.capacity > 0 {
        let limit = (QUEUE_PCT * queue.capacity as f64).ceil();
        if queue.peak as f64 >= limit {
            out.push(Verdict::new(
                Detector::QueueSaturation,
                None,
                queue.peak as f64,
                limit,
                format!("kernel-part queue peaked at {} of {} slots", queue.peak, queue.capacity),
            ));
        }
    }

    // Fairness collapse: Jain index over weight-normalised shares at
    // the first-completion snapshot (the same population the server
    // report's fairness figure uses).
    let shares: Vec<f64> = views
        .iter()
        .filter(|v| v.established && v.weight > 0)
        .map(|v| v.share_bytes as f64 / v.weight as f64)
        .collect();
    if shares.len() >= FAIRNESS_MIN_CONNS {
        let j = jain(&shares);
        if j < FAIRNESS_MIN {
            out.push(Verdict::new(
                Detector::FairnessCollapse,
                None,
                j,
                FAIRNESS_MIN,
                format!("jain index {:.3} across {} sessions (weight-normalised)", j, shares.len()),
            ));
        }
    }

    out.sort_by(|a, b| {
        (a.detector, a.conn, a.window_start).cmp(&(b.detector, b.conn, b.window_start))
    });
    out
}

/// Trace events included in a diagnostic bundle (the newest slice of
/// the ring).
const BUNDLE_TRACE_EVENTS: usize = 48;

/// Counters whose series windows a bundle carries as evidence.
const BUNDLE_SERIES: [Counter; 4] = [
    Counter::ChunksDelivered,
    Counter::Retransmits,
    Counter::RtoBackoffs,
    Counter::RejectChecksum,
];

/// Assemble the diagnostic bundle for a set of verdicts: the verdicts
/// themselves, the offending connections' flight-recorder dumps and
/// views, the relevant series windows, the queue stat, and the newest
/// trace-ring slice. Pure function of merged telemetry — S = 1 sharded
/// output is byte-identical to unsharded.
pub fn bundle(
    rec: &Recorder,
    views: &[ConnView],
    queue: QueueStat,
    verdicts: &[Verdict],
) -> Json {
    let verdict_json: Vec<Json> = verdicts.iter().map(Verdict::to_json).collect();

    // Connections named by any verdict, with their flight dump + view.
    let named: std::collections::BTreeSet<u32> = verdicts.iter().filter_map(|v| v.conn).collect();
    let mut conns = Json::obj();
    for &c in &named {
        let mut entry = Json::obj();
        if let Some(ring) = rec.flights().get(&c) {
            entry = entry.set("flight", ring.to_json());
        }
        if let Some(v) = views.iter().find(|v| v.conn == c) {
            entry = entry
                .set("established", Json::Bool(v.established))
                .set("done", Json::Bool(v.done))
                .set("in_flight", Json::U64(v.in_flight as u64))
                .set("rto", Json::U64(v.rto as u64))
                .set("cwnd", Json::U64(v.cwnd as u64))
                .set("last_progress", Json::U64(v.last_progress))
                .set("delivered_bytes", Json::U64(v.delivered_bytes))
                .set("weight", Json::U64(v.weight as u64));
        }
        conns = conns.set(&c.to_string(), entry);
    }

    let wt = rec.series().config().window_ticks;
    let mut series = Json::obj();
    for &c in &BUNDLE_SERIES {
        let windows: Vec<Json> = rec
            .series()
            .iter()
            .map(|w| {
                Json::obj()
                    .set("start_tick", Json::U64(w.start_tick(wt)))
                    .set("ticks", Json::U64(w.ticks(wt)))
                    .set("value", Json::U64(w.counter(c)))
            })
            .collect();
        series = series.set(c.name(), Json::Arr(windows));
    }

    let tail = rec.trace().len().saturating_sub(BUNDLE_TRACE_EVENTS);
    let trace: Vec<Json> = rec.trace().iter().skip(tail).map(|e| e.to_json()).collect();

    Json::obj()
        .set("verdicts", Json::Arr(verdict_json))
        .set("conns", conns)
        .set("series", series)
        .set(
            "queue",
            Json::obj()
                .set("peak", Json::U64(queue.peak))
                .set("capacity", Json::U64(queue.capacity)),
        )
        .set("trace_tail", Json::Arr(trace))
        .set("now", Json::U64(rec.now()))
}

/// The whole diagnosis in one call: [`analyze`], then [`bundle`]
/// around what it found. Every world with
/// a recorder, views and a queue stat (one harness, a joined sharded
/// run) reports through here.
pub fn diagnose(rec: &Recorder, views: &[ConnView], queue: QueueStat) -> Json {
    let verdicts = analyze(rec, views, queue);
    bundle(rec, views, queue, &verdicts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{EventKind, SpanObserver};

    fn snap(edge: FlightEdge, una: u32, rto: u32) -> FlightSnap {
        FlightSnap {
            edge,
            una,
            nxt: una + 100,
            rcv: 0,
            cwnd: 1536,
            rto,
            dup_acks: 0,
            in_recovery: false,
        }
    }

    #[test]
    fn flight_ring_overwrites_and_accounts() {
        let mut r = FlightRing::new(FLIGHT_CAPACITY);
        for i in 0..FLIGHT_CAPACITY as u32 + 5 {
            r.push(FlightRec { tick: i as u64, snap: snap(FlightEdge::Send, i, 8) });
        }
        assert_eq!(r.len(), FLIGHT_CAPACITY);
        assert_eq!(r.total_pushed(), FLIGHT_CAPACITY as u64 + 5);
        assert_eq!(r.overwritten(), 5);
        assert_eq!(r.iter().next().unwrap().snap.una, 5, "oldest evicted");
    }

    #[test]
    fn flight_ring_merge_into_fresh_is_identity() {
        let mut a = FlightRing::new(FLIGHT_CAPACITY);
        for i in 0..FLIGHT_CAPACITY as u32 + 3 {
            a.push(FlightRec { tick: i as u64, snap: snap(FlightEdge::Send, i, 8) });
        }
        let mut fresh = FlightRing::new(FLIGHT_CAPACITY);
        fresh.merge_from(&a);
        assert_eq!(fresh.to_json().render(), a.to_json().render());
    }

    fn view(conn: u32) -> ConnView {
        ConnView {
            conn,
            established: true,
            done: true,
            in_flight: 0,
            rto: 8,
            cwnd: 1536,
            now: 100,
            last_progress: 90,
            delivered_bytes: 4096,
            share_bytes: 4096,
            weight: 1,
        }
    }

    #[test]
    fn clean_recorder_yields_no_verdicts() {
        let mut rec = Recorder::new(16);
        for t in 0..100 {
            rec.tick(t);
            rec.count(Counter::ChunksDelivered, 2);
        }
        let views = [view(0), view(1)];
        let v = analyze(&rec, &views, QueueStat { peak: 3, capacity: 64 });
        assert!(v.is_empty(), "unexpected verdicts: {v:?}");
    }

    #[test]
    fn storm_fires_on_a_windowed_burst_and_scales_for_coarsening() {
        let mut rec = Recorder::with_series(
            16,
            crate::timeseries::SeriesConfig { window_ticks: 16, ring: 4 },
        );
        // Healthy run, then a burst where retransmits swamp deliveries.
        for t in 0..64 {
            rec.tick(t);
            rec.count(Counter::ChunksDelivered, 3);
        }
        for t in 64..80 {
            rec.tick(t);
            rec.count(Counter::Retransmits, 1);
        }
        let v = analyze(&rec, &[], QueueStat::default());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].detector, Detector::RetransmitStorm);
        assert_eq!(v[0].window_start, Some(64));
        // A coarsened window aggregating *healthy* history must not
        // fire even though aggregation pushes its absolute retransmit
        // count past the floor (3 per base window, coarsened 2× and
        // beyond): the ratio term sees deliveries dominating.
        let mut rec2 = Recorder::with_series(
            16,
            crate::timeseries::SeriesConfig { window_ticks: 16, ring: 2 },
        );
        for t in 0..16 * 12 {
            rec2.tick(t);
            if t % 16 == 0 {
                rec2.count(Counter::Retransmits, 3);
            }
            rec2.count(Counter::ChunksDelivered, 4);
        }
        let v2 = analyze(&rec2, &[], QueueStat::default());
        assert!(v2.is_empty(), "coarsened healthy history misread as storm: {v2:?}");
        // The same aggregation with deliveries absent IS a storm — a
        // long outage seen only through coarsened history still fires.
        let mut rec3 = Recorder::with_series(
            16,
            crate::timeseries::SeriesConfig { window_ticks: 16, ring: 2 },
        );
        for t in 0..16 * 12 {
            rec3.tick(t);
            if t % 16 == 0 {
                rec3.count(Counter::Retransmits, 3);
            }
        }
        let v3 = analyze(&rec3, &[], QueueStat::default());
        assert!(
            v3.iter().any(|v| v.detector == Detector::RetransmitStorm),
            "delivery-free coarsened history must read as storm: {v3:?}"
        );
    }

    #[test]
    fn spiral_needs_frozen_una_and_growing_rto() {
        let mut rec = Recorder::new(16);
        rec.tick(10);
        // Three back-offs, una frozen: 16 -> 32 -> 64.
        rec.flight(7, snap(FlightEdge::Rto, 500, 16));
        rec.flight(7, snap(FlightEdge::Send, 500, 16));
        rec.flight(7, snap(FlightEdge::Rto, 500, 32));
        rec.flight(7, snap(FlightEdge::Rto, 500, 64));
        let v = analyze(&rec, &[], QueueStat::default());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].detector, Detector::RtoSpiral);
        assert_eq!(v[0].conn, Some(7));
        // Progress between back-offs (una advanced) breaks the run.
        let mut rec2 = Recorder::new(16);
        rec2.flight(7, snap(FlightEdge::Rto, 500, 16));
        rec2.flight(7, snap(FlightEdge::Rto, 600, 32));
        rec2.flight(7, snap(FlightEdge::Rto, 700, 64));
        assert!(analyze(&rec2, &[], QueueStat::default()).is_empty());
    }

    #[test]
    fn stall_fires_only_with_data_in_flight_and_idle_clock() {
        let stalled = ConnView {
            done: false,
            in_flight: 1024,
            now: 1000,
            last_progress: 100,
            ..view(3)
        };
        let v = analyze(&Recorder::new(4), &[stalled], QueueStat::default());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].detector, Detector::Stall);
        assert_eq!(v[0].conn, Some(3));
        // Same idle age with nothing in flight: idle, not stalled.
        let idle = ConnView { in_flight: 0, ..stalled };
        assert!(analyze(&Recorder::new(4), &[idle], QueueStat::default()).is_empty());
    }

    #[test]
    fn saturation_and_fairness_thresholds() {
        let v = analyze(&Recorder::new(4), &[], QueueStat { peak: 64, capacity: 64 });
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].detector, Detector::QueueSaturation);
        // Unknown capacity disables the detector.
        assert!(analyze(&Recorder::new(4), &[], QueueStat { peak: 64, capacity: 0 }).is_empty());
        // Equal bytes under wildly unequal weights: normalised shares
        // collapse the index.
        let a = ConnView { weight: 32, ..view(0) };
        let b = view(1);
        let v = analyze(&Recorder::new(4), &[a, b], QueueStat::default());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].detector, Detector::FairnessCollapse);
        assert!(v[0].measured < FAIRNESS_MIN);
    }

    #[test]
    fn verdicts_sort_deterministically_and_bundle_carries_evidence() {
        let mut rec = Recorder::new(16);
        rec.tick(10);
        rec.event(EventKind::Retransmit, 7, 1);
        rec.flight(7, snap(FlightEdge::Rto, 500, 16));
        rec.flight(7, snap(FlightEdge::Rto, 500, 32));
        rec.flight(7, snap(FlightEdge::Rto, 500, 64));
        let stalled = ConnView {
            done: false,
            in_flight: 1024,
            now: 1000,
            last_progress: 100,
            ..view(7)
        };
        let verdicts = analyze(&rec, &[stalled], QueueStat::default());
        assert_eq!(verdicts.len(), 2, "{verdicts:?}");
        assert!(verdicts[0].detector < verdicts[1].detector, "sorted by detector");
        let b = bundle(&rec, &[stalled], QueueStat::default(), &verdicts);
        let conn7 = b.get("conns").and_then(|c| c.get("7")).expect("offender included");
        assert!(conn7.get("flight").is_some(), "flight dump attached");
        assert_eq!(conn7.get("in_flight"), Some(&Json::U64(1024)));
        assert!(b.get("series").and_then(|s| s.get("retransmits")).is_some());
        assert!(b.get("trace_tail").and_then(|t| t.as_arr()).is_some());
        // Deterministic render: same inputs, same bytes.
        let b2 = bundle(&rec, &[stalled], QueueStat::default(), &verdicts);
        assert_eq!(b.render(), b2.render());
    }
}
