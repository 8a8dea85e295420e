//! Observer integration: the ILP and non-ILP paths produce identical
//! wire bytes, so the same fault plan must corrupt the same datagrams
//! and both paths must report identical reject counts — and attaching a
//! recorder must not perturb the run at all.

use memsim::layout::AddressSpace;
use memsim::NativeMem;
use obs::{
    Counter, Detector, EventKind, Metric, QueueStat, Recorder, SeriesConfig,
    SeriesRecorder, SpanObserver,
};
use server::{Path, RoundRobin, ScaleHarness, ServerConfig};
use utcp::FaultPlan;

fn faulty_cfg() -> ServerConfig {
    ServerConfig {
        n_conns: 4,
        file_len: 24 * 1024,
        chunk: 1024,
        faults: FaultPlan { drop_every: 11, corrupt_every: 7, ..Default::default() },
        ..Default::default()
    }
}

fn run_recorded(path: Path) -> (server::AggregateReport, Recorder) {
    let mut space = AddressSpace::new();
    let mut h = ScaleHarness::simplified(&mut space, faulty_cfg());
    let mut arena = space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    h.init_world(&mut m);
    let mut rec = Recorder::new(1024);
    let mut sched = RoundRobin::new();
    let report = h.run(&mut m, &mut sched, (path, &mut rec));
    assert_eq!(h.verify_outputs(&mut m), None, "{path:?}: delivered data corrupted");
    (report, rec)
}

#[test]
fn both_paths_report_identical_reject_counts_under_faults() {
    let (rep_ilp, rec_ilp) = run_recorded(Path::Ilp);
    let (rep_non, rec_non) = run_recorded(Path::NonIlp);

    // The two paths marshal/encrypt/checksum to identical wire bytes, so
    // deterministic fault injection must bite identically.
    for c in [
        Counter::RejectChecksum,
        Counter::RejectOutOfOrder,
        Counter::RejectBadFormat,
        Counter::RejectNoConnection,
        Counter::FaultDrops,
        Counter::FaultCorruptions,
        Counter::ChunksDelivered,
        Counter::Retransmits,
    ] {
        assert_eq!(
            rec_ilp.counter(c),
            rec_non.counter(c),
            "{} differs between paths",
            c.name()
        );
    }
    assert!(rec_ilp.counter(Counter::RejectChecksum) > 0, "corruption plan never fired");
    assert_eq!(rep_ilp.rejected, rep_non.rejected);
    assert_eq!(rep_ilp.payload_bytes, rep_non.payload_bytes);

    // Recorder counters must agree with the harness's own accounting.
    assert_eq!(rec_ilp.counter(Counter::Retransmits), rep_ilp.retransmits);
    assert_eq!(
        rec_ilp.counter(Counter::RejectChecksum)
            + rec_ilp.counter(Counter::RejectOutOfOrder)
            + rec_ilp.counter(Counter::RejectBadFormat)
            + rec_ilp.counter(Counter::RejectNoConnection),
        rep_ilp.rejected
    );
    assert_eq!(rec_ilp.counter(Counter::FaultCorruptions), rep_ilp.corrupted);
}

#[test]
fn observed_run_matches_unobserved_run() {
    let (observed, _) = run_recorded(Path::Ilp);

    let mut space = AddressSpace::new();
    let mut h = ScaleHarness::simplified(&mut space, faulty_cfg());
    let mut arena = space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    h.init_world(&mut m);
    let mut sched = RoundRobin::new();
    let plain = h.run(&mut m, &mut sched, Path::Ilp);

    assert_eq!(observed.payload_bytes, plain.payload_bytes);
    assert_eq!(observed.rounds, plain.rounds, "observation must not change scheduling");
    assert_eq!(observed.retransmits, plain.retransmits);
    assert_eq!(observed.rejected, plain.rejected);
}

#[test]
fn recorder_captures_latency_and_trace() {
    let (report, rec) = run_recorded(Path::Ilp);

    let lat = rec.hist(Metric::ChunkLatencyTicks);
    let delivered: u64 = report.per_conn.iter().map(|p| p.chunks).sum();
    assert_eq!(lat.count(), delivered, "one latency sample per delivered chunk");
    assert!(lat.p50() <= lat.p90() && lat.p90() <= lat.p99(), "percentiles must be monotone");
    // Drops force retransmission, so some chunk needed at least one
    // retry timeout before acceptance.
    assert!(lat.max().unwrap_or(0) > 0, "faults should stretch the latency tail");

    assert_eq!(rec.hist(Metric::HandshakeTicks).count(), 4, "one sample per connection");
    assert!(rec.counter(Counter::Handshakes) == 4);

    let trace = rec.trace();
    assert!(!trace.is_empty());
    let mut per_kind = [0u64; EventKind::ALL.len()];
    let mut last_tick = 0;
    for ev in trace.iter() {
        assert!(ev.tick >= last_tick, "trace must be time-ordered");
        last_tick = ev.tick;
        per_kind[ev.kind.index()] += 1;
        assert!((ev.conn as usize) < 4);
    }
    assert!(per_kind[EventKind::ChunkAccepted.index()] > 0);
    assert!(per_kind[EventKind::Completed.index()] == 4 || trace.overwritten() > 0);
}

#[test]
fn series_windows_tile_the_run_and_account_for_every_event() {
    let (report, rec) = run_recorded(Path::Ilp);
    let series = rec.series();

    // A real transfer spans several windows (default width 64 ticks).
    assert!(series.len() > 1, "run should cross window boundaries");

    // Windows tile virtual time in order without gaps or overlaps.
    let wt = series.config().window_ticks;
    let mut next_start = None;
    for w in series.iter() {
        if let Some(expect) = next_start {
            assert_eq!(w.start_tick(wt), expect, "windows must tile contiguously");
        }
        next_start = Some(w.start_tick(wt) + w.ticks(wt));
    }

    // No counter delta or latency sample is lost to windowing: summing
    // across windows reproduces the aggregate counters exactly.
    let windowed_delivered: u64 = series.counter_values(Counter::ChunksDelivered).iter().sum();
    assert_eq!(windowed_delivered, rec.counter(Counter::ChunksDelivered));
    let windowed_retx: u64 = series.counter_values(Counter::Retransmits).iter().sum();
    assert_eq!(windowed_retx, report.retransmits);
    let windowed_lat: u64 = series.iter().map(|w| w.hist(Metric::ChunkLatencyTicks).count()).sum();
    assert_eq!(windowed_lat, rec.hist(Metric::ChunkLatencyTicks).count());

    // The windowed view is strictly finer than the aggregate: the
    // delivery counter must not be concentrated in a single window.
    let nonzero = series
        .counter_values(Counter::ChunksDelivered)
        .iter()
        .filter(|&&v| v > 0)
        .count();
    assert!(nonzero > 1, "deliveries should spread across windows");
}

fn run_traced(path: Path, every: u32) -> (server::AggregateReport, Recorder) {
    let mut space = AddressSpace::new();
    let cfg = ServerConfig { trace_every: every, ..faulty_cfg() };
    let mut h = ScaleHarness::simplified(&mut space, cfg);
    let mut arena = space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    h.init_world(&mut m);
    let mut rec = Recorder::new(1024);
    let mut sched = RoundRobin::new();
    let report = h.run(&mut m, &mut sched, (path, &mut rec));
    assert_eq!(h.verify_outputs(&mut m), None, "{path:?}: delivered data corrupted");
    (report, rec)
}

#[test]
fn segment_traces_decompose_latency_exactly() {
    // trace_every = 1: every chunk is sampled, so the critical-path
    // milestones must reproduce the harness's independent latency
    // histogram to the tick — an exact cross-check, not a tolerance.
    let (report, rec) = run_traced(Path::Ilp, 1);
    let store = rec.segtrace();
    assert!(!store.is_empty());
    for tr in store.iter() {
        assert!(tr.no_orphans(), "orphan span: conn {} chunk {}", tr.conn, tr.chunk);
        if let Some(b) = tr.breakdown() {
            assert!(b.causal_ok(), "conn {} chunk {}", tr.conn, tr.chunk);
            assert_eq!(
                b.queueing() + b.recovery() + b.propagation() + b.processing(),
                b.total(),
                "telescoping decomposition must be exact (conn {} chunk {})",
                tr.conn,
                tr.chunk
            );
        }
    }
    let totals = store.totals();
    let delivered: u64 = report.per_conn.iter().map(|p| p.chunks).sum();
    assert_eq!(totals.completed, delivered, "every delivered chunk completes its trace");
    assert_eq!(
        totals.queueing + totals.recovery + totals.propagation + totals.processing,
        totals.total
    );
    let lat = rec.hist(Metric::ChunkLatencyTicks);
    assert_eq!(totals.completed, lat.count());
    assert_eq!(
        totals.measured_latency,
        lat.sum(),
        "trace milestones must reproduce the latency histogram tick-for-tick"
    );
    // Drops force retransmission; the consumed copy of some chunk is a
    // retransmit, so recovery wait surfaces as its own component.
    assert!(store.iter().any(|t| t.last_xmit().unwrap_or(0) > 0), "no traced retransmit");
    assert!(totals.recovery > 0, "recovery wait must be attributed");
}

#[test]
fn sampled_traces_are_deterministic_and_do_not_perturb_the_run() {
    // Same seed, same sampling => byte-identical trace stores.
    let (rep_a, rec_a) = run_traced(Path::Ilp, 4);
    let (rep_b, rec_b) = run_traced(Path::Ilp, 4);
    assert_eq!(
        rec_a.segtrace().to_json().render(),
        rec_b.segtrace().to_json().render(),
        "sampled traces must be a pure function of the run"
    );
    assert_eq!(rep_a.per_conn, rep_b.per_conn);

    // Tracing is out-of-band: the traced run is indistinguishable from
    // the untraced one in every protocol-visible way.
    let (plain, plain_rec) = run_recorded(Path::Ilp);
    assert_eq!(rep_a.rounds, plain.rounds, "tracing must not change scheduling");
    assert_eq!(rep_a.payload_bytes, plain.payload_bytes);
    assert_eq!(rep_a.retransmits, plain.retransmits);
    assert_eq!(rep_a.rejected, plain.rejected);
    assert!(plain_rec.segtrace().is_empty(), "trace_every = 0 records nothing");

    // Shared-recorder world: the send side always opens the trace
    // before receive events arrive, so no wire-origin traces; sampling
    // plus loss-recovery promotion accounts for every trace.
    let (sampled, promoted, wire) = rec_a.segtrace().origin_counts();
    assert!(sampled > 0);
    assert_eq!(wire, 0, "single-process runs never see wire-origin traces");
    assert_eq!(sampled + promoted, rec_a.segtrace().len() as u64);
}

#[test]
fn window_sealed_exactly_at_a_2x_coarsening_boundary_keeps_exact_totals() {
    // ring = 2, so the third sealed base window triggers the first
    // cascade. Distinct per-window counts (window w carries w+1) make
    // any loss or double-count at the boundary visible in the sum.
    let mut s = SeriesRecorder::new(SeriesConfig { window_ticks: 16, ring: 2 });
    let mut expect = 0u64;
    for w in 0..6u64 {
        s.tick(w * 16);
        s.count(Counter::Retransmits, w + 1);
        expect += w + 1;
    }
    s.tick(6 * 16); // seals window 5; window 6 is the fresh open one

    // Both cascade paths ran: window 1 was absorbed into the parent
    // its even sibling opened (start % parent_span != 0), and window 2
    // opened a new parent exactly at the 2× boundary
    // (start % parent_span == 0). The retained shape is two span-2
    // parents, two fresh base windows, and the open window.
    let wt = s.config().window_ticks;
    let spans: Vec<u64> = s.iter().map(|w| w.ticks(wt) / wt).collect();
    assert_eq!(spans, [2, 2, 1, 1, 1], "coarsened history then fresh windows");

    // The seam tiles exactly: each window starts where the previous
    // one (coarsened or not) ended.
    let mut next = 0;
    for w in s.iter() {
        assert_eq!(w.start_tick(wt), next, "seam must not gap or overlap");
        next = w.start_tick(wt) + w.ticks(wt);
    }

    // And no count crossed the boundary twice or fell out: the span-2
    // parents hold exactly their children's sums, the total is exact.
    let vals = s.counter_values(Counter::Retransmits);
    assert_eq!(vals[0], 1 + 2, "parent absorbed windows 0 and 1 exactly");
    assert_eq!(vals[1], 3 + 4, "parent opened at the 2x boundary absorbed 2 and 3");
    assert_eq!(vals.iter().sum::<u64>(), expect);
}

#[test]
fn detector_thresholds_across_the_coarsened_fresh_seam_keep_exact_totals() {
    // 3 retransmits per base window with zero deliveries: below the
    // storm floor (4) while the windows are fresh, above it once two
    // siblings coarsen into one span-2 window. The detector must judge
    // each retained window by its exact aggregated count — firing on
    // the coarsened side of the seam, staying quiet on the fresh side —
    // with nothing lost or double-counted across the boundary.
    let mut rec = Recorder::with_series(16, SeriesConfig { window_ticks: 16, ring: 2 });
    for w in 0..8u64 {
        rec.tick(w * 16);
        rec.count(Counter::Retransmits, 3);
    }
    rec.tick(8 * 16); // seal window 7

    let total: u64 = rec.series().counter_values(Counter::Retransmits).iter().sum();
    assert_eq!(total, 8 * 3, "windowing loses nothing");

    let verdicts = obs::health::analyze(&rec, &[], QueueStat::default());
    assert!(!verdicts.is_empty(), "coarsened windows must cross the floor");
    let wt = rec.series().config().window_ticks;
    for v in &verdicts {
        assert_eq!(v.detector, Detector::RetransmitStorm);
        assert!(
            v.window_ticks.unwrap() >= 2 * wt,
            "only coarsened windows reach the floor: {v:?}"
        );
        assert_eq!(v.measured as u64, 6, "exact child sum, not an estimate");
    }
    // The verdicts' windows plus the quiet fresh windows account for
    // every retransmit: 3 coarsened span-2 windows fired (6 each), the
    // 2 fresh base windows (3 each) stayed below the floor.
    let fired: u64 = verdicts.iter().map(|v| v.measured as u64).sum();
    assert_eq!(verdicts.len(), 3);
    assert_eq!(fired + 2 * 3, total, "seam accounting is exact");
}
