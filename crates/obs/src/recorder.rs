//! The everything-in-one aggregating observer.
//!
//! A [`Recorder`] is what benches and examples actually instantiate:
//! it implements [`SpanObserver`] and folds everything reported into
//! run totals (a [`Tally`]: a value per counter, a histogram per
//! metric), the per-(path, stage, layer) work matrix, a bounded event
//! trace stamped by the server's virtual clock, the windowed series,
//! the per-connection flight rings and the per-segment trace store.
//!
//! The recorder deliberately issues no instrumented (memsim-counted)
//! memory accesses of its own — it writes plain host memory — so
//! attaching it does not perturb simulated costs: throughput measured
//! with and without observation is bit-identical.

use std::collections::BTreeMap;

use crate::health::{FlightRec, FlightRing, FLIGHT_CAPACITY};
use crate::hist::Histogram;
use crate::json::Json;
use crate::segtrace::{SegEv, SegStore, SegTag};
use crate::span::{
    Counter, EventKind, FlightSnap, Layer, Metric, PathLabel, SpanObserver, Stage, Work,
};
use crate::tally::Tally;
use crate::timeseries::{SeriesConfig, SeriesRecorder};
use crate::trace::{TraceEvent, TraceRing};

const N_PATHS: usize = PathLabel::ALL.len();
const N_STAGES: usize = Stage::ALL.len();
const N_LAYERS: usize = Layer::ALL.len();

/// Aggregates counters, histograms, the work matrix, and an event
/// trace. See the module docs for the attribution rules.
#[derive(Debug)]
pub struct Recorder {
    totals: Tally,
    /// Work units by `[path][stage][layer]`.
    work: [[[u64; N_LAYERS]; N_STAGES]; N_PATHS],
    trace: TraceRing,
    /// Windowed view of counters and samples (see [`crate::timeseries`]).
    series: SeriesRecorder,
    /// Per-connection flight recorders, keyed by *global* connection id
    /// (see [`crate::health`]).
    flights: BTreeMap<u32, FlightRing>,
    /// Per-segment causal traces (see [`crate::segtrace`]), keyed by
    /// global connection id + chunk seq.
    segs: SegStore,
    now: u64,
}

impl Recorder {
    /// A fresh recorder whose trace retains the last `trace_capacity`
    /// events, with windowed series telemetry at the default
    /// [`SeriesConfig`].
    pub fn new(trace_capacity: usize) -> Self {
        Self::with_series(trace_capacity, SeriesConfig::default())
    }

    /// A fresh recorder with an explicit window shape for the series.
    pub fn with_series(trace_capacity: usize, series: SeriesConfig) -> Self {
        Recorder {
            totals: Tally::default(),
            work: [[[0; N_LAYERS]; N_STAGES]; N_PATHS],
            trace: TraceRing::new(trace_capacity),
            series: SeriesRecorder::new(series),
            flights: BTreeMap::new(),
            segs: SegStore::default(),
            now: 0,
        }
    }

    /// Per-connection flight recorders, keyed by global connection id.
    pub fn flights(&self) -> &BTreeMap<u32, FlightRing> {
        &self.flights
    }

    /// Connection `conn`'s flight ring, created on first use.
    fn flight_ring(&mut self, conn: u32) -> &mut FlightRing {
        self.flights.entry(conn).or_insert_with(|| FlightRing::new(FLIGHT_CAPACITY))
    }

    /// The per-segment causal-trace store.
    pub fn segtrace(&self) -> &SegStore {
        &self.segs
    }

    /// The windowed time series every counter delta and sample also
    /// lands in.
    pub fn series(&self) -> &SeriesRecorder {
        &self.series
    }

    /// Current value of a run counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.totals.counter(c)
    }

    /// The histogram behind a metric.
    pub fn hist(&self, m: Metric) -> &Histogram {
        self.totals.hist(m)
    }

    /// Work units attributed to `(path, stage, layer)`.
    pub fn work(&self, path: PathLabel, stage: Stage, layer: Layer) -> u64 {
        self.work[path.index()][stage.index()][layer.index()]
    }

    /// Total work units in one stage of a path, across all layers.
    pub fn stage_total(&self, path: PathLabel, stage: Stage) -> u64 {
        self.work[path.index()][stage.index()].iter().sum()
    }

    /// Total work units spent on a path.
    pub fn path_total(&self, path: PathLabel) -> u64 {
        Stage::ALL.iter().map(|&s| self.stage_total(path, s)).sum()
    }

    /// The fraction of a path's work spent in `stage` (0.0 when the
    /// path saw no work at all).
    pub fn stage_share(&self, path: PathLabel, stage: Stage) -> f64 {
        let total = self.path_total(path);
        if total == 0 {
            0.0
        } else {
            self.stage_total(path, stage) as f64 / total as f64
        }
    }

    /// The retained event trace.
    pub fn trace(&self) -> &TraceRing {
        &self.trace
    }

    /// The last virtual tick reported via [`SpanObserver::tick`].
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Fold another recorder into this one: counters and the work matrix
    /// add, histograms merge bucket-wise (exact count/sum/min/max), the
    /// traces concatenate with drop accounting, the windowed series
    /// merge window-aligned (see
    /// [`crate::timeseries::SeriesRecorder::merge_from`]; the series
    /// configs must match), and `now` takes the later clock. This is how
    /// the sharded server unifies per-shard recorders into one report;
    /// merging is associative and (up to trace interleaving order)
    /// commutative, and merging a recorder into a fresh one of the same
    /// trace capacity reproduces its [`Recorder::to_json`] byte for
    /// byte.
    ///
    /// Trace events keep their shard-local connection indices; callers
    /// that need global attribution should emit per-shard sections (see
    /// the server's shard report) rather than re-labelling events.
    pub fn merge(&mut self, other: &Recorder) {
        self.totals.absorb(&other.totals);
        for p in 0..N_PATHS {
            for s in 0..N_STAGES {
                for l in 0..N_LAYERS {
                    self.work[p][s][l] += other.work[p][s][l];
                }
            }
        }
        self.trace.merge_from(&other.trace);
        self.series.merge_from(&other.series);
        for (&conn, ring) in &other.flights {
            self.flight_ring(conn).merge_from(ring);
        }
        self.segs.merge_from(&other.segs);
        self.now = self.now.max(other.now);
    }

    /// The whole recorder as a JSON tree — counters, per-metric summary
    /// statistics, the work matrix with per-stage shares, and the
    /// retained trace (with an honest account of what the ring dropped).
    pub fn to_json(&self) -> Json {
        let mut counters = Json::obj();
        for &c in &Counter::ALL {
            counters = counters.set(c.name(), Json::U64(self.counter(c)));
        }

        let mut metrics = Json::obj();
        for &m in &Metric::ALL {
            let h = self.hist(m);
            metrics = metrics.set(
                m.name(),
                Json::obj()
                    .set("count", Json::U64(h.count()))
                    .set("sum", Json::U64(h.sum()))
                    .set("mean", Json::F64(h.mean()))
                    .set("min", h.min().map_or(Json::Null, Json::U64))
                    .set("max", h.max().map_or(Json::Null, Json::U64))
                    .set("p50", Json::U64(h.p50()))
                    .set("p90", Json::U64(h.p90()))
                    .set("p99", Json::U64(h.p99())),
            );
        }

        let mut work = Json::obj();
        for &p in &PathLabel::ALL {
            let mut stages = Json::obj();
            for &s in &Stage::ALL {
                let mut layers = Json::obj();
                for &l in &Layer::ALL {
                    let w = self.work(p, s, l);
                    if w > 0 {
                        layers = layers.set(l.name(), Json::U64(w));
                    }
                }
                stages = stages.set(
                    s.name(),
                    Json::obj()
                        .set("total", Json::U64(self.stage_total(p, s)))
                        .set("share", Json::F64(self.stage_share(p, s)))
                        .set("by_layer", layers),
                );
            }
            work = work
                .set(p.name(), stages.set("total", Json::U64(self.path_total(p))));
        }

        let events: Vec<Json> = self.trace.iter().map(TraceEvent::to_json).collect();
        let trace = Json::obj()
            .set("capacity", Json::U64(self.trace.capacity() as u64))
            .set("total_events", Json::U64(self.trace.total_pushed()))
            .set("overwritten", Json::U64(self.trace.overwritten()))
            .set("events", Json::Arr(events));

        let mut flights = Json::obj();
        for (conn, ring) in &self.flights {
            flights = flights.set(&conn.to_string(), ring.to_json());
        }

        Json::obj()
            .set("counters", counters)
            .set("metrics", metrics)
            .set("work", work)
            .set("trace", trace)
            .set("series", self.series.to_json())
            .set("flights", flights)
            .set("segtrace", self.segs.to_json())
    }
}

impl SpanObserver for Recorder {
    #[inline]
    fn tick(&mut self, now: u64) {
        self.now = now;
        self.series.tick(now);
    }

    /// The user share of `work` lands in `(path, stage, layer)`; the
    /// system share is credited to [`Layer::Kernel`] of the same stage,
    /// so kernel cost needs no instrumentation sites of its own.
    fn span(&mut self, path: PathLabel, stage: Stage, layer: Layer, work: Work) {
        let cell = &mut self.work[path.index()][stage.index()];
        cell[layer.index()] += work.user;
        cell[Layer::Kernel.index()] += work.system;
    }

    fn count(&mut self, counter: Counter, n: u64) {
        self.totals.count(counter, n);
        self.series.count(counter, n);
    }

    fn sample(&mut self, metric: Metric, value: u64) {
        self.totals.sample(metric, value);
        self.series.sample(metric, value);
    }

    fn event(&mut self, kind: EventKind, conn: u32, value: u64) {
        self.trace.push(TraceEvent { tick: self.now, conn, kind, value });
    }

    fn flight(&mut self, conn: u32, snap: FlightSnap) {
        let tick = self.now;
        self.flight_ring(conn).push(FlightRec { tick, snap });
    }

    fn seg(&mut self, tag: SegTag, ev: SegEv) {
        self.segs.record(self.now, tag, ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_split_user_and_system_work() {
        let mut r = Recorder::new(16);
        r.span(
            PathLabel::Ilp,
            Stage::Integrated,
            Layer::Fused,
            Work { user: 100, system: 25 },
        );
        r.span(
            PathLabel::Ilp,
            Stage::Integrated,
            Layer::Fused,
            Work { user: 50, system: 0 },
        );
        assert_eq!(r.work(PathLabel::Ilp, Stage::Integrated, Layer::Fused), 150);
        assert_eq!(r.work(PathLabel::Ilp, Stage::Integrated, Layer::Kernel), 25);
        assert_eq!(r.stage_total(PathLabel::Ilp, Stage::Integrated), 175);
        assert_eq!(r.path_total(PathLabel::Ilp), 175);
        assert_eq!(r.path_total(PathLabel::NonIlp), 0);
        assert_eq!(r.stage_share(PathLabel::Ilp, Stage::Integrated), 1.0);
        assert_eq!(r.stage_share(PathLabel::NonIlp, Stage::Integrated), 0.0);
    }

    #[test]
    fn events_are_stamped_with_the_last_tick() {
        let mut r = Recorder::new(4);
        r.tick(7);
        r.event(EventKind::ChunkSent, 3, 0);
        r.tick(9);
        r.event(EventKind::ChunkAccepted, 3, 0);
        let ticks: Vec<u64> = r.trace().iter().map(|e| e.tick).collect();
        assert_eq!(ticks, [7, 9]);
        assert_eq!(r.now(), 9);
    }

    #[test]
    fn counters_and_samples_aggregate() {
        let mut r = Recorder::new(4);
        r.count(Counter::ChunksSent, 2);
        r.count(Counter::ChunksSent, 3);
        r.sample(Metric::ChunkLatencyTicks, 10);
        r.sample(Metric::ChunkLatencyTicks, 20);
        assert_eq!(r.counter(Counter::ChunksSent), 5);
        assert_eq!(r.counter(Counter::Retransmits), 0);
        assert_eq!(r.hist(Metric::ChunkLatencyTicks).count(), 2);
        assert_eq!(r.hist(Metric::ChunkLatencyTicks).sum(), 30);
    }

    /// A recorder with a bit of everything in it.
    fn busy_recorder(seed: u64) -> Recorder {
        let mut r = Recorder::new(4);
        r.count(Counter::ChunksSent, seed + 2);
        r.count(Counter::Retransmits, seed);
        r.sample(Metric::ChunkLatencyTicks, 3 * seed + 1);
        r.sample(Metric::ChunkBytes, 1024);
        r.span(
            PathLabel::Ilp,
            Stage::Integrated,
            Layer::Fused,
            Work { user: 10 * seed, system: seed },
        );
        for t in 0..seed + 3 {
            r.tick(t);
            r.event(EventKind::ChunkSent, seed as u32, t);
        }
        r
    }

    #[test]
    fn merge_into_fresh_recorder_is_identity() {
        let orig = busy_recorder(5);
        let mut merged = Recorder::new(orig.trace().capacity());
        merged.merge(&orig);
        assert_eq!(merged.to_json().render(), orig.to_json().render());
    }

    #[test]
    fn merge_adds_counters_histograms_work_and_traces() {
        let a = busy_recorder(2);
        let b = busy_recorder(7);
        let mut m = Recorder::new(4);
        m.merge(&a);
        m.merge(&b);
        assert_eq!(m.counter(Counter::ChunksSent), a.counter(Counter::ChunksSent) + 9);
        let h = m.hist(Metric::ChunkLatencyTicks);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 7 + 22);
        assert_eq!(h.min(), Some(7));
        assert_eq!(h.max(), Some(22));
        assert_eq!(
            m.work(PathLabel::Ilp, Stage::Integrated, Layer::Fused),
            20 + 70,
            "user work adds"
        );
        assert_eq!(m.work(PathLabel::Ilp, Stage::Integrated, Layer::Kernel), 9);
        assert_eq!(
            m.trace().total_pushed(),
            a.trace().total_pushed() + b.trace().total_pushed()
        );
        assert_eq!(m.now(), 9, "later clock wins");
    }

    #[test]
    fn to_json_has_the_expected_shape() {
        let mut r = Recorder::new(4);
        r.count(Counter::Handshakes, 1);
        r.sample(Metric::HandshakeTicks, 12);
        r.tick(3);
        r.event(EventKind::Established, 0, 12);
        r.span(PathLabel::NonIlp, Stage::Final, Layer::Tcp, Work { user: 9, system: 4 });
        let j = r.to_json();
        assert_eq!(
            j.get("counters").and_then(|c| c.get("handshakes")),
            Some(&Json::U64(1))
        );
        let hs = j.get("metrics").and_then(|m| m.get("handshake_ticks")).unwrap();
        assert_eq!(hs.get("count"), Some(&Json::U64(1)));
        assert_eq!(hs.get("p50"), Some(&Json::U64(12)));
        let fin = j
            .get("work")
            .and_then(|w| w.get("non_ilp"))
            .and_then(|p| p.get("final"))
            .unwrap();
        assert_eq!(fin.get("total"), Some(&Json::U64(13)));
        assert_eq!(
            fin.get("by_layer").and_then(|l| l.get("kernel")),
            Some(&Json::U64(4))
        );
        let ev = j.get("trace").and_then(|t| t.get("events")).and_then(|e| e.as_arr()).unwrap();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].get("kind").and_then(|k| k.as_str()), Some("established"));
        let series = j.get("series").expect("series key");
        assert!(series.get("windows").and_then(|w| w.as_arr()).is_some());
    }

    #[test]
    fn series_windows_account_for_every_count_and_sample() {
        let mut r = Recorder::with_series(
            8,
            crate::timeseries::SeriesConfig { window_ticks: 16, ring: 4 },
        );
        for t in 0..200u64 {
            r.tick(t);
            r.count(Counter::ChunksSent, 1);
            if t % 3 == 0 {
                r.sample(Metric::ChunkLatencyTicks, t);
            }
        }
        let windowed: u64 = r.series().counter_values(Counter::ChunksSent).iter().sum();
        assert_eq!(windowed, r.counter(Counter::ChunksSent), "no count lost to windowing");
        let sampled: u64 =
            r.series().iter().map(|w| w.hist(Metric::ChunkLatencyTicks).count()).sum();
        assert_eq!(sampled, r.hist(Metric::ChunkLatencyTicks).count());
        assert!(r.series().iter().count() > 1, "run spans several windows");
    }
}
