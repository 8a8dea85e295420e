//! Observing the server: eight faulty connections under a recorder.
//!
//! Runs the multi-connection server twice (non-ILP, then ILP) with an
//! [`obs::Recorder`] attached, on a simulated SS10-30 with fault
//! injection dropping every 11th and corrupting every 13th datagram.
//! The recorder costs the simulation nothing — it never touches the
//! instrumented memory — yet yields:
//!
//! * per-stage / per-layer work attribution for both paths,
//! * run counters (chunks, rejects by cause, retransmits, handshakes),
//! * latency histograms (send → accept in virtual ticks),
//! * a per-packet event trace, reconstructed below as a timeline for
//!   connection 0,
//! * windowed time series (64-tick windows), rendered as sparklines of
//!   delivery rate, retransmissions, and kernel queue depth,
//! * a Prometheus-style text dump and the JSON run report
//!   (`BENCH_observe.json`).

use memsim::{AddressSpace, HostModel, SimMem};
use obs::{sparkline, Counter, Json, Layer, Metric, PathLabel, Recorder, Stage};
use server::{Path, RoundRobin, ScaleHarness, ServerConfig};
use utcp::{FaultPlan, KernelCounters, KernelPart};

const N: usize = 8;
const FILE_LEN: usize = 4 * 1024;
const CHUNK: usize = 1024;

fn observed(path: Path) -> Result<(Recorder, KernelCounters), String> {
    let cfg = ServerConfig {
        n_conns: N,
        file_len: FILE_LEN,
        chunk: CHUNK,
        faults: FaultPlan { drop_every: 11, corrupt_every: 13, ..Default::default() },
        // Trace every chunk's causal span chain: context rides beside
        // the datagrams, so the run is bit-identical either way.
        trace_every: 1,
        ..Default::default()
    };
    let mut space = AddressSpace::new();
    let mut h = ScaleHarness::simplified(&mut space, cfg);
    let host = HostModel::ss10_30();
    let mut m = SimMem::new(&space, &host);
    h.init_world(&mut m);
    let _ = m.take_phase_stats(); // drop setup traffic

    let mut rec = Recorder::new(2048);
    let report = h.run(&mut m, &mut RoundRobin::new(), (path, &mut rec));
    if h.verify_outputs(&mut m).is_some() {
        return Err(format!("{path:?}: faults corrupted a delivered file"));
    }
    if report.retransmits == 0 {
        return Err(format!("{path:?}: the fault plan forced no retransmissions"));
    }
    Ok((rec, h.lb.counters()))
}

fn stage_table(rec: &Recorder, pl: PathLabel) {
    println!("  stage breakdown ({}):", pl.name());
    for stage in Stage::ALL {
        let total = rec.stage_total(pl, stage);
        print!(
            "    {:>10}: {:>7} work units ({:>4.1}%)",
            stage.name(),
            total,
            100.0 * rec.stage_share(pl, stage)
        );
        let mut layers = String::new();
        for layer in Layer::ALL {
            let w = rec.work(pl, stage, layer);
            if w > 0 {
                layers.push_str(&format!("  {}={w}", layer.name()));
            }
        }
        println!("{layers}");
    }
}

fn path_section(rec: &Recorder, pl: PathLabel, kc: &KernelCounters) {
    println!("{} path:", pl.name());
    stage_table(rec, pl);
    println!(
        "  chunks: {} sent, {} delivered; rejects: {} checksum, {} out-of-order",
        rec.counter(Counter::ChunksSent),
        rec.counter(Counter::ChunksDelivered),
        rec.counter(Counter::RejectChecksum),
        rec.counter(Counter::RejectOutOfOrder),
    );
    println!(
        "  {} retransmits, {} handshakes ({} SYN retries), kernel dropped {} / corrupted {}",
        rec.counter(Counter::Retransmits),
        rec.counter(Counter::Handshakes),
        rec.counter(Counter::SynRetries),
        rec.counter(Counter::FaultDrops),
        rec.counter(Counter::FaultCorruptions),
    );
    println!(
        "  kernel part: {} sent / {} received, queue peak {} of {} slots",
        kc.sent, kc.received, kc.queue_peak, kc.queue_capacity,
    );
    let lat = rec.hist(Metric::ChunkLatencyTicks);
    println!(
        "  chunk latency (ticks, send → accept): p50={} p90={} p99={} max={} over {} chunks",
        lat.p50(),
        lat.p90(),
        lat.p99(),
        lat.max().unwrap_or(0),
        lat.count(),
    );

    // The segment tracer's critical-path decomposition: the same
    // latency, but split into *why* — and exactly (the four components
    // telescope to the enqueue → accept total).
    let t = rec.segtrace().totals();
    let pct = |c: u64| if t.total == 0 { 0.0 } else { 100.0 * c as f64 / t.total as f64 };
    println!(
        "  critical path over {} traced chunks: queueing {} ({:.1}%), recovery {} ({:.1}%), \
         propagation {} ({:.1}%), processing {} ({:.1}%)",
        t.completed,
        t.queueing,
        pct(t.queueing),
        t.recovery,
        pct(t.recovery),
        t.propagation,
        pct(t.propagation),
        t.processing,
        pct(t.processing),
    );

    // The windowed series as sparklines: each glyph is one retained
    // window (64 virtual ticks; older windows are 2×-coarsened, so rates
    // are normalised per base window).
    let series = rec.series();
    let wt = series.config().window_ticks;
    println!("  per-{wt}-tick series ({} windows, oldest → newest):", series.len());
    println!(
        "    delivered  {}  retransmits {}  queue depth {}\n",
        sparkline(&series.counter_rates(Counter::ChunksDelivered)),
        sparkline(&series.counter_rates(Counter::Retransmits)),
        sparkline(&series.metric_means(Metric::KernelQueueDepth)),
    );
}

/// Run both paths observed, print what the recorder saw, and return the
/// report.
pub fn run(_: &[String]) -> Result<Option<Json>, String> {
    println!(
        "{N} concurrent transfers of a {FILE_LEN}-byte file under faults\n\
         (drop every 11th datagram, corrupt every 13th), simulated SS10-30\n"
    );
    let (rec_non, kc_non) = observed(Path::NonIlp)?;
    let (rec_ilp, kc_ilp) = observed(Path::Ilp)?;
    path_section(&rec_non, PathLabel::NonIlp, &kc_non);
    path_section(&rec_ilp, PathLabel::Ilp, &kc_ilp);

    // Reconstruct connection 0's life from the ILP run's event trace.
    println!("connection 0 timeline (ILP run, from the event trace):");
    let trace = rec_ilp.trace();
    for ev in trace.iter().filter(|ev| ev.conn == 0).take(24) {
        println!("  tick {:>4}  {:<13} value={}", ev.tick, ev.kind.name(), ev.value);
    }
    println!("  ... ({} events total in the ring)", trace.len());

    println!("\nPrometheus-style dump (ILP run, excerpt):");
    for line in obs::prometheus_text(&rec_ilp).lines().take(12) {
        println!("  {line}");
    }

    Ok(Some(
        Json::obj()
            .set("experiment", Json::Str("observe".into()))
            .set("conns", Json::U64(N as u64))
            .set("file_len", Json::U64(FILE_LEN as u64))
            .set("ilp", rec_ilp.to_json().set("backend", kc_ilp.to_json()))
            .set("non_ilp", rec_non.to_json().set("backend", kc_non.to_json())),
    ))
}
