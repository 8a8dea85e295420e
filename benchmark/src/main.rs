//! `ilpbench` — native wall-clock goodput and round-trip time of the ILP
//! and non-ILP stacks on four workloads, with a per-layer ledger.
//!
//! ```text
//! ilpbench --workload W --seed N --seconds S --trace 0|1   one run, result as the last stdout line
//! ilpbench run <W|all> [--seed N] [--seconds S]            untraced then traced run, every metric by name
//! ilpbench trace <W> [--seed N] [--seconds S]              traced run only; writes benchmark/out/trace_<W>.json
//! ilpbench agree [--seed N] [--seconds S]                  the untraced suite twice, compared against the bounds
//! ```
//!
//! See `benchmark/README.md` for the protocol and the metric vocabulary.

#![warn(missing_docs)]

mod alloc;
mod harness;
mod kernel;
mod layers;
mod p2p;
mod procfs;
mod report;
mod span;
mod stats;
mod workload;

use obs::Json;
use report::{Metrics, END_TO_END, PATHS, PER_LAYER};
use server::Path;
use span::{Name, Totals};
use stats::{fast, median, percentile, spread_frac};
use std::io;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::{Bench, RepStats, RoundTrips, Workload};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// `run_seconds` of `BENCHMARK.json`; about 19 interleaved pairs on the
/// recording machine.
const DEFAULT_SECONDS: u64 = 30;
/// Round trips in a fresh world's warm-up.
const WARM_ROUND_TRIPS: usize = 64;
/// Repetition index of warm-up work: a fault stream no timed repetition meets.
const WARM_INDEX: u64 = u64::MAX / 2;
/// Fewest interleaved ILP/non-ILP pairs a run reports on.
const MIN_PAIRS: usize = 3;
/// Most pairs (bounds memory when `--seconds` is large).
const MAX_PAIRS: usize = 101;
/// Stop-and-wait round trips per batch (its p99 leaves 10 beyond it).
const RTT_BATCH: usize = 1000;
/// Batches after every repetition, on that repetition's path; about
/// 190 000 round trips per path over a 30 s run.
const RTT_BATCHES_PER_REP: usize = 10;
/// Pieces the pipeline probe runs in (512 chunks, about 5 ms, each).
const PROBE_PIECES: usize = 32;
/// Longest any one repetition or phase may take before it counts as a stall.
const OP_DEADLINE: Duration = Duration::from_secs(60);
/// Per-layer values the untraced run also knows; printed there for `agree`.
const UNTRACED_EXTRAS: [&str; 5] = [
    "driver.ilp_rep_spread_frac",
    "driver.nonilp_rep_spread_frac",
    "driver.cpu_busy_frac",
    "driver.reps",
    "core.ilp_speedup",
];

const BOTH: [Path; 2] = [Path::Ilp, Path::NonIlp];

/// What a run produced.
#[derive(Debug, Default)]
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    /// Reasons the numbers must not be used (stalls, tripped guards).
    invalid: Vec<String>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0 && self.invalid.is_empty()
    }

    /// Tally a repetition's operations.
    fn tally(&mut self, r: &RepStats) {
        self.attempted += r.ops;
        self.failed += r.bad_ops;
    }

    /// A repetition or phase that stalled: one failed operation, and
    /// nothing after it can be trusted.
    fn stalled(&mut self, what: &str, why: &str) {
        self.attempted += 1;
        self.failed += 1;
        self.invalid.push(format!("{what}: {why}"));
    }

    fn print_verdict(&self) {
        println!("ops_attempted {}", self.attempted.max(1));
        println!("ops_failed {}", self.failed);
        for why in &self.invalid {
            println!("INVALID {why}");
        }
    }
}

fn deadline() -> Instant {
    Instant::now() + OP_DEADLINE
}

/// Verified payload per wall second of one repetition's timed region.
fn goodput_mbps(r: &RepStats) -> f64 {
    r.good_bytes as f64 / 1e6 / r.slices_s.iter().sum::<f64>()
}

/// All slice times of `reps`, seconds.
fn slices(reps: &[RepStats]) -> Vec<f64> {
    reps.iter()
        .flat_map(|r| r.slices_s.iter().copied())
        .collect()
}

/// The goodput a run reports: verified payload of one slice ÷ the fast
/// slice time over every repetition (see [`stats::fast`]).
fn fast_goodput_mbps(reps: &[RepStats]) -> f64 {
    let slices = slices(reps);
    let bytes: u64 = reps.iter().map(|r| r.good_bytes).sum();
    bytes as f64 / slices.len() as f64 / 1e6 / fast(&slices)
}

/// The validity guards: a fault-free workload must not retransmit or
/// reject, and the socket backend's queue must stay inside its pool.
fn check_guards(w: Workload, bench: &dyn Bench, out: &mut Outcome) {
    let c = bench.counts();
    if w.fault_free() && (c.retransmits != 0 || c.rejects != 0) {
        out.invalid.push(format!(
            "fault-free workload saw {} retransmits and {} rejects",
            c.retransmits, c.rejects
        ));
    }
    if w == Workload::UdpSmall {
        for k in [c.kernel_tx, c.kernel_rx] {
            if k.queue_peak > k.queue_capacity {
                out.invalid.push(format!(
                    "netback queue peak {} exceeds its {}-slot pool",
                    k.queue_peak, k.queue_capacity
                ));
            }
        }
    }
}

/// Count a batch of round trips: one chunk is one operation on
/// `udp_small`; elsewhere a batch as a whole counts as one.
fn tally_trips(w: Workload, t: &RoundTrips, out: &mut Outcome) {
    let (ops, bad) = match w {
        Workload::UdpSmall => (t.ns.len() as u64, t.bad),
        _ => (1, u64::from(t.bad > 0)),
    };
    out.attempted += ops;
    out.failed += bad;
}

/// The untraced run: interleaved ILP/non-ILP pairs for `seconds`, each
/// pair in a world of its own whose set-up is timed.
fn run_untraced(w: Workload, seed: u64, seconds: u64) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    measure_untraced(w, seed, seconds, &mut out)?;
    if let Some(rss) = procfs::peak_rss_mb() {
        out.metrics.set("peak_rss_MB", rss);
    }
    Ok(out)
}

/// One pair = set-up (build the world, then one slice and a few round
/// trips on each path, so every page is mapped and every lazily grown
/// buffer has grown), a goodput repetition on each path, and round-trip
/// batches after each repetition on that repetition's path.
fn measure_untraced(w: Workload, seed: u64, seconds: u64, out: &mut Outcome) -> io::Result<()> {
    let budget = Duration::from_secs(seconds);
    let begin = Instant::now();
    let mut setups = Vec::new();
    let mut reps: [Vec<RepStats>; 2] = Default::default();
    let mut rtt_p50: [Vec<f64>; 2] = Default::default();
    let mut rtt_p99: [Vec<f64>; 2] = Default::default();
    let cpu0 = procfs::cpu_seconds();
    let mut pair_time = Duration::ZERO;
    while reps[1].len() < MAX_PAIRS
        && (reps[1].len() < MIN_PAIRS || begin.elapsed() + pair_time <= budget)
    {
        let pair_start = Instant::now();
        let rep_index = reps[1].len() as u64;
        let mut bench = workload::build_plain(w, seed)?;
        for path in BOTH {
            let warm = bench
                .goodput_rep(path, WARM_INDEX, 1, deadline())
                .and_then(|r| Ok((r, bench.round_trips(path, WARM_ROUND_TRIPS, deadline())?)));
            match warm {
                Ok((r, t)) => {
                    out.tally(&r);
                    tally_trips(w, &t, out);
                }
                Err(why) => {
                    out.stalled("warm-up", &why);
                    return Ok(());
                }
            }
        }
        setups.push(pair_start.elapsed().as_secs_f64());
        for (p, path) in BOTH.into_iter().enumerate() {
            match bench.goodput_rep(path, rep_index, w.slices_per_rep(), deadline()) {
                Ok(r) => {
                    out.tally(&r);
                    reps[p].push(r);
                }
                Err(why) => {
                    out.stalled("repetition", &why);
                    return Ok(());
                }
            }
            // Round trips ride along with every repetition, so they sample
            // the whole run rather than one moment of it.
            for _ in 0..RTT_BATCHES_PER_REP {
                match bench.round_trips(path, RTT_BATCH, deadline()) {
                    Ok(t) => {
                        tally_trips(w, &t, out);
                        rtt_p50[p].push(percentile(&t.ns, 50.0) as f64 / 1e3);
                        rtt_p99[p].push(percentile(&t.ns, 99.0) as f64 / 1e3);
                    }
                    Err(why) => {
                        out.stalled("round trips", &why);
                        return Ok(());
                    }
                }
            }
        }
        check_guards(w, bench.as_ref(), out);
        pair_time = pair_start.elapsed();
    }
    let wall = begin.elapsed().as_secs_f64();
    if let (Some(a), Some(b)) = (cpu0, procfs::cpu_seconds()) {
        out.metrics.set("driver.cpu_busy_frac", (b - a) / wall);
    }
    println!("samples setup_s {setups:.4?}");
    out.metrics.set("setup_s", fast(&setups));
    let speed = [0, 1].map(|p: usize| fast_goodput_mbps(&reps[p]));
    for p in 0..2 {
        let per_rep: Vec<f64> = reps[p].iter().map(goodput_mbps).collect();
        println!("samples {}_goodput_MBps_per_rep {per_rep:.1?}", PATHS[p]);
        out.metrics
            .set(format!("{}_goodput_MBps", PATHS[p]), speed[p]);
        out.metrics
            .set(format!("{}_rtt_us_p50", PATHS[p]), fast(&rtt_p50[p]));
        out.metrics
            .set(format!("{}_rtt_us_p99", PATHS[p]), fast(&rtt_p99[p]));
        out.metrics
            .set_path("driver", p, "rep_spread_frac", spread_frac(&per_rep));
    }
    out.metrics.set("driver.reps", reps[0].len() as f64);
    out.metrics.set("core.ilp_speedup", speed[0] / speed[1]);
    Ok(())
}

/// One traced repetition's worth of per-name totals, added up.
fn add_totals(into: &mut [Totals; Name::ALL.len()], from: &[Totals; Name::ALL.len()]) {
    for (a, b) in into.iter_mut().zip(from) {
        a.count += b.count;
        a.total_ns += b.total_ns;
        a.self_ns += b.self_ns;
    }
}

/// Run `f` as repetition `rep` with the span recorder on and a root span
/// around it; returns `f`'s result and the totals it produced.
fn traced<T>(rep: u32, f: impl FnOnce() -> T) -> (T, [Totals; Name::ALL.len()], Vec<u64>) {
    span::set_enabled(true, rep);
    let result = {
        let _root = span::enter(Name::Rep);
        f()
    };
    span::set_enabled(false, rep);
    let (totals, steps) = span::with(|r| r.take_totals());
    (result, totals, steps)
}

/// What a child span costs its parent: the parent's time per empty child.
fn span_cost_ns() -> f64 {
    const CHILDREN: u32 = 2000;
    let ((), totals, _) = traced(u32::MAX, || {
        for _ in 0..CHILDREN {
            drop(span::enter(Name::Tick));
        }
    });
    totals[Name::Rep as usize].total_ns as f64 / f64::from(CHILDREN)
}

fn totals_json(t: &[Totals; Name::ALL.len()]) -> Json {
    Name::ALL.iter().fold(Json::obj(), |obj, n| {
        let t = t[*n as usize];
        obj.set(
            n.as_str(),
            Json::obj()
                .set("count", Json::U64(t.count))
                .set("total_ns", Json::U64(t.total_ns))
                .set("self_ns", Json::U64(t.self_ns)),
        )
    })
}

/// The traced run: a few repetitions with spans off, the same with spans
/// on, one with an `obs::Recorder` attached, the pipeline probe, and the
/// isolated layer timings. Writes `benchmark/out/trace_<workload>.json`.
fn run_traced(w: Workload, seed: u64, seconds: u64) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let mut bench = workload::build_timed(w, seed)?;
    let mut file = Json::obj()
        .set("workload", Json::Str(w.name().into()))
        .set("seed", Json::U64(seed));
    measure_traced(w, bench.as_mut(), seconds, &mut out, &mut file);
    check_guards(w, bench.as_ref(), &mut out);

    let (raw, dropped) = span::with(|r| {
        let (raw, dropped) = r.raw();
        (raw.to_vec(), dropped)
    });
    out.metrics.set("trace.spans", raw.len() as f64);
    out.metrics.set("trace.spans_dropped", dropped as f64);
    let spans: Vec<Json> = raw
        .iter()
        .map(|s| {
            Json::Arr(vec![
                Json::U64(u64::from(s.id)),
                s.parent.map_or(Json::I64(-1), |p| Json::U64(u64::from(p))),
                Json::U64(s.name as u64),
                Json::U64(u64::from(s.rep)),
                Json::U64(s.start_ns),
                Json::U64(s.end_ns),
            ])
        })
        .collect();
    let file = file
        .set(
            "names",
            Json::Arr(
                Name::ALL
                    .iter()
                    .map(|n| Json::Str(n.as_str().into()))
                    .collect(),
            ),
        )
        .set(
            "span_fields",
            Json::Str("id, parent, name, rep, start_ns, end_ns".into()),
        )
        .set("spans", Json::Arr(spans))
        .set("spans_dropped", Json::U64(dropped))
        .set("metrics", out.metrics.to_json(&PER_LAYER));
    let dir = std::path::Path::new("benchmark/out");
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(format!("trace_{}.json", w.name())), file.render())?;
    Ok(out)
}

fn measure_traced(
    w: Workload,
    bench: &mut dyn Bench,
    seconds: u64,
    out: &mut Outcome,
    file: &mut Json,
) {
    let pairs = ((seconds / 6) as usize).clamp(1, 3);
    let per_rep = w.slices_per_rep();
    for path in BOTH {
        match bench.goodput_rep(path, WARM_INDEX, per_rep, deadline()) {
            Ok(r) => out.tally(&r),
            Err(why) => return out.stalled("warm-up", &why),
        }
    }

    let mut off: [Vec<RepStats>; 2] = Default::default();
    let mut on: [Vec<RepStats>; 2] = Default::default();
    let mut observed: Vec<RepStats> = Vec::new();
    let mut totals = [[Totals::default(); Name::ALL.len()]; 2];
    let mut steps: [Vec<u64>; 2] = Default::default();
    let mut reps = Vec::new();
    let (mut allocs, mut alloc_bytes, mut alloc_chunks) = (0u64, 0u64, 0u64);
    let cpu0 = procfs::cpu_seconds();
    let wall0 = Instant::now();
    for i in 0..pairs as u64 {
        for (p, path) in BOTH.into_iter().enumerate() {
            let before = alloc::snapshot();
            match bench.goodput_rep(path, i, per_rep, deadline()) {
                Ok(r) => {
                    let after = alloc::snapshot();
                    allocs += after.0 - before.0;
                    alloc_bytes += after.1 - before.1;
                    alloc_chunks += r.chunks;
                    out.tally(&r);
                    off[p].push(r);
                }
                Err(why) => return out.stalled("repetition", &why),
            }
        }
        for (p, path) in BOTH.into_iter().enumerate() {
            let rep = reps.len() as u32;
            let (r, t, s) = traced(rep, || bench.goodput_rep(path, i, per_rep, deadline()));
            match r {
                Ok(r) => {
                    out.tally(&r);
                    on[p].push(r);
                    add_totals(&mut totals[p], &t);
                    steps[p].extend(s);
                    reps.push(
                        Json::obj()
                            .set("id", Json::U64(u64::from(rep)))
                            .set("path", Json::Str(PATHS[p].into()))
                            .set("kind", Json::Str("goodput".into())),
                    );
                }
                Err(why) => return out.stalled("traced repetition", &why),
            }
        }
        match bench.observed_rep(Path::Ilp, i, per_rep, deadline()) {
            Some(Ok(r)) => {
                out.tally(&r);
                observed.push(r);
            }
            Some(Err(why)) => return out.stalled("observed repetition", &why),
            None => {}
        }
    }
    let wall = wall0.elapsed().as_secs_f64();
    let m = &mut out.metrics;
    if let (Some(a), Some(b)) = (cpu0, procfs::cpu_seconds()) {
        m.set("driver.cpu_busy_frac", (b - a) / wall);
    }
    m.set("driver.reps", pairs as f64);

    // Self time of the pipeline calls per delivered chunk (refused sends
    // and empty polls are part of what a chunk costs): spanned in situ
    // on `udp_small`; elsewhere via the probe, in short pieces reduced
    // with `fast` like every other timing.
    let self_per_chunk = |t: &[Totals; Name::ALL.len()], chunks: u64| {
        [Name::SendChunk, Name::RecvChunk].map(|n| t[n as usize].self_ns as f64 / chunks as f64)
    };
    let mut pipeline = totals;
    let mut chunk_self =
        [0, 1].map(|p: usize| self_per_chunk(&totals[p], on[p].iter().map(|r| r.chunks).sum()));
    for (p, path) in BOTH.into_iter().enumerate() {
        let rep = reps.len() as u32;
        let mut pieces: [Vec<f64>; 2] = Default::default();
        let mut sum = [Totals::default(); Name::ALL.len()];
        for _ in 0..PROBE_PIECES {
            let (r, t, _) = traced(rep, || bench.pipeline_probe(path, deadline()));
            match r {
                Some(Ok(chunks)) => {
                    let [send, recv] = self_per_chunk(&t, chunks);
                    pieces[0].push(send);
                    pieces[1].push(recv);
                    add_totals(&mut sum, &t);
                }
                Some(Err(why)) => return out.stalled("pipeline probe", &why),
                None => break,
            }
        }
        if !pieces[0].is_empty() {
            chunk_self[p] = [fast(&pieces[0]), fast(&pieces[1])];
            pipeline[p] = sum;
            reps.push(
                Json::obj()
                    .set("id", Json::U64(u64::from(rep)))
                    .set("path", Json::Str(PATHS[p].into()))
                    .set("kind", Json::Str("pipeline_probe".into())),
            );
        }
    }
    let span_cost = span_cost_ns();
    let costs = layers::measure(w.chunk());

    let med =
        |v: &[RepStats], f: fn(&RepStats) -> f64| median(&v.iter().map(f).collect::<Vec<_>>());
    let speed = [0, 1].map(|p: usize| fast_goodput_mbps(&off[p]));
    let m = &mut out.metrics;
    for (name, v) in [
        ("xdr.marshal_ns_per_byte", costs.marshal),
        ("xdr.unmarshal_ns_per_byte", costs.unmarshal),
        ("cipher.encrypt_ns_per_byte", costs.encrypt),
        ("cipher.decrypt_ns_per_byte", costs.decrypt),
        ("checksum.ns_per_byte", costs.checksum),
        ("memsim.copy_ns_per_byte", costs.copy),
        ("host.memcpy_ns_per_byte", costs.memcpy),
        ("core.fused_send_ns_per_byte", costs.fused_send),
        ("core.fused_recv_ns_per_byte", costs.fused_recv),
        ("core.fusion_gain_send", costs.fusion_gain_send()),
        ("core.fusion_gain_recv", costs.fusion_gain_recv()),
        ("utcp.send_buf_ns", costs.send_buf_ns),
        (
            "utcp.send_buf_ns_per_byte",
            costs.send_buf_ns / costs.padded as f64,
        ),
        ("utcp.ilp_commit_ns", costs.ilp_commit_ns),
        ("utcp.poll_input_ns", costs.poll_input_ns),
        ("utcp.finish_recv_ns", costs.finish_recv_ns),
        ("utcp.ack_ns", costs.ack_ns),
        ("trace.span_cost_ns", span_cost),
    ] {
        m.set(name, v);
    }
    m.set("core.ilp_speedup", speed[0] / speed[1]);

    let c = bench.counts();
    m.set("utcp.retransmits", c.retransmits as f64);
    m.set("utcp.fast_retransmits", c.fast_retransmits as f64);
    m.set("utcp.rejects", c.rejects as f64);
    m.set("utcp.cwnd_cuts", c.cwnd_cuts as f64);
    m.set("utcp.useful_frac", c.accepted as f64 / c.data_sent as f64);
    let (ktx, krx) = (c.kernel_tx, c.kernel_rx);
    m.set("kernelpart.datagrams", (ktx.sent + krx.sent) as f64);
    m.set("kernelpart.dropped", (ktx.dropped + krx.dropped) as f64);
    m.set(
        "kernelpart.corrupted",
        (ktx.corrupted + krx.corrupted) as f64,
    );
    m.set(
        "kernelpart.queue_peak",
        ktx.queue_peak.max(krx.queue_peak) as f64,
    );
    let crossings = |n: Name| {
        let (ns, count) = totals.iter().fold((0, 0), |(ns, c), t| {
            (ns + t[n as usize].total_ns, c + t[n as usize].count)
        });
        ns as f64 / count as f64
    };
    m.set("kernelpart.send_ns", crossings(Name::KernelSend));
    m.set("kernelpart.recv_ns", crossings(Name::KernelRecv));
    if w == Workload::UdpSmall {
        let calls = [ktx, krx]
            .iter()
            .map(|k| k.sent + k.received + k.would_block)
            .sum::<u64>();
        m.set("netback.codec_encode_ns", costs.codec_encode_ns);
        m.set("netback.codec_decode_ns", costs.codec_decode_ns);
        m.set(
            "netback.would_block",
            (ktx.would_block + krx.would_block) as f64,
        );
        m.set(
            "netback.sock_calls_per_chunk",
            calls as f64 / c.accepted as f64,
        );
        m.set(
            "netback.queue_peak",
            ktx.queue_peak.max(krx.queue_peak) as f64,
        );
    }
    m.set("alloc.per_chunk", allocs as f64 / alloc_chunks as f64);
    m.set(
        "alloc.bytes_per_chunk",
        alloc_bytes as f64 / alloc_chunks as f64,
    );
    if !observed.is_empty() {
        m.set(
            "obs.recorder_overhead_frac",
            1.0 - fast_goodput_mbps(&observed) / speed[0],
        );
    }
    m.set("server.rounds", med(&off[0], |r| r.rounds as f64));
    m.set("server.fairness", med(&off[0], |r| r.fairness));

    for p in 0..2 {
        let ilp = p == 0;
        m.set_path(
            "driver",
            p,
            "rep_spread_frac",
            spread_frac(&off[p].iter().map(goodput_mbps).collect::<Vec<_>>()),
        );
        m.set_path(
            "trace",
            p,
            "overhead_frac",
            1.0 - fast_goodput_mbps(&on[p]) / speed[p],
        );
        let root = totals[p][Name::Rep as usize];
        m.set_path(
            "trace",
            p,
            "root_self_frac",
            root.self_ns as f64 / root.total_ns as f64,
        );
        m.set_path("server", p, "drain_s", med(&off[p], |r| r.drain_s));
        if !steps[p].is_empty() {
            m.set_path(
                "server",
                p,
                "step_us_p50",
                percentile(&steps[p], 50.0) as f64 / 1e3,
            );
            m.set_path(
                "server",
                p,
                "step_us_p99",
                percentile(&steps[p], 99.0) as f64 / 1e3,
            );
        }
        let [send_self, recv_self] = chunk_self[p];
        let per_chunk = send_self + recv_self;
        m.set_path("server", p, "send_chunk_self_ns", send_self);
        m.set_path("server", p, "recv_chunk_self_ns", recv_self);
        m.set_path(
            "server",
            p,
            "unexplained_frac",
            (per_chunk - costs.explained_ns_per_chunk(ilp)) / per_chunk,
        );
        m.set_path(
            "server",
            p,
            "chunk_data_frac",
            costs.data_ns_per_chunk(ilp) / per_chunk,
        );
        let chunks_per_slice =
            off[p].iter().map(|r| r.chunks).sum::<u64>() as f64 / slices(&off[p]).len() as f64;
        let region_ns = fast(&slices(&off[p])) * 1e9 / chunks_per_slice;
        m.set_path(
            "driver",
            p,
            "data_share",
            costs.data_ns_per_chunk(ilp) / region_ns,
        );
    }

    let taken = std::mem::replace(file, Json::obj());
    *file = taken.set("reps", Json::Arr(reps)).set(
        "totals",
        Json::obj()
            .set("ilp", totals_json(&totals[0]))
            .set("nonilp", totals_json(&totals[1]))
            .set("pipeline_ilp", totals_json(&pipeline[0]))
            .set("pipeline_nonilp", totals_json(&pipeline[1])),
    );
}

fn print_run(w: Workload, seed: u64, trace: bool, out: &Outcome) {
    println!(
        "workload {} seed {seed} trace {}",
        w.name(),
        u8::from(trace)
    );
    if trace {
        out.metrics.print(&PER_LAYER);
    } else {
        out.metrics.print(&END_TO_END);
        for name in UNTRACED_EXTRAS {
            if let (Some(v), Some((_, unit, _))) = (
                out.metrics.get(name),
                PER_LAYER.iter().find(|m| m.0 == name),
            ) {
                println!("metric {name} {v} {unit}");
            }
        }
    }
    out.print_verdict();
}

#[derive(Debug)]
struct Args {
    seed: u64,
    seconds: u64,
    trace: bool,
    workload: Option<String>,
    positional: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        workload: None,
        positional: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                a.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
                }
            }
            "--workload" => a.workload = Some(value("--workload")?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => a.positional.push(arg),
        }
    }
    Ok(a)
}

fn workload_arg(name: Option<&String>) -> Result<Workload, String> {
    let name = name.ok_or("which workload? (bulk, fanin, lossy, udp_small)")?;
    Workload::parse(name).ok_or(format!(
        "unknown workload {name:?} (bulk, fanin, lossy, udp_small)"
    ))
}

/// Run ourselves with `args`, stdout captured, and wait for the exit.
fn child(args: &[String]) -> io::Result<(bool, String)> {
    let output = Command::new(std::env::current_exe()?)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()?;
    Ok((
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    ))
}

/// `run all`: each workload in a process of its own, so `peak_rss_MB`
/// is that workload's.
fn run_all(a: &Args) -> io::Result<bool> {
    let mut ok = true;
    for w in Workload::ALL {
        let (success, text) = child(&[
            "run".into(),
            w.name().into(),
            "--seed".into(),
            a.seed.to_string(),
            "--seconds".into(),
            a.seconds.to_string(),
        ])?;
        print!("{text}");
        ok &= success;
    }
    Ok(ok)
}

/// One untraced run in a child process: `(metrics by name, correct)`.
fn child_run(w: Workload, a: &Args) -> io::Result<(Metrics, bool)> {
    let (success, text) = child(&[
        "--workload".into(),
        w.name().into(),
        "--seed".into(),
        a.seed.to_string(),
        "--seconds".into(),
        a.seconds.to_string(),
        "--trace".into(),
        "0".into(),
    ])?;
    let mut m = Metrics::default();
    for line in text.lines() {
        let mut f = line.split_whitespace();
        if let (Some("metric"), Some(name), Some(Ok(v))) =
            (f.next(), f.next(), f.next().map(str::parse::<f64>))
        {
            m.set(name, v);
        }
    }
    let correct = text
        .lines()
        .last()
        .and_then(|l| obs::json::parse(l).ok())
        .and_then(|j| j.get("correct").cloned())
        .is_some_and(|c| c == Json::Bool(true));
    Ok((m, success && correct))
}

/// `agree`: the untraced suite twice on this build; every workload ×
/// end-to-end metric must repeat within the bound `BENCHMARK.json` fixes.
fn agree(a: &Args) -> io::Result<bool> {
    let text = std::fs::read_to_string("BENCHMARK.json")?;
    let doc = obs::json::parse(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let bound = |name: &str| {
        doc.get("end_to_end")
            .and_then(Json::as_arr)
            .and_then(|l| {
                l.iter()
                    .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
            })
            .and_then(|m| m.get("bound"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let mut all_ok = true;
    println!(
        "{:<10} {:<22} {:>12} {:>12} {:>9} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "worse_by", "rep_iqr", "bound"
    );
    for w in Workload::ALL {
        let (first, ok1) = child_run(w, a)?;
        let (second, ok2) = child_run(w, a)?;
        if !(ok1 && ok2) {
            println!(
                "{:<10} a run reported failures or tripped a guard",
                w.name()
            );
            all_ok = false;
        }
        for (name, _, better) in END_TO_END {
            let (x, y) = (
                first.get(name).unwrap_or(0.0),
                second.get(name).unwrap_or(0.0),
            );
            // How much worse the second reading is than the first, as the driver compares them.
            let worse_by = if better == "lower" {
                (y - x) / x
            } else {
                (x - y) / x
            };
            let spread = name
                .strip_suffix("_goodput_MBps")
                .and_then(|p| first.get(&format!("driver.{p}_rep_spread_frac")))
                .map_or("-".to_string(), |s| format!("{s:.4}"));
            let ok = worse_by <= bound(name);
            all_ok &= ok;
            println!(
                "{:<10} {:<22} {:>12.4} {:>12.4} {:>+9.4} {:>9} {:>7.2}  {}",
                w.name(),
                name,
                x,
                y,
                worse_by,
                spread,
                bound(name),
                if ok { "pass" } else { "FAIL" }
            );
        }
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ilpbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result: Result<bool, String> = (|| {
        let io_err = |e: io::Error| e.to_string();
        match a.positional.first().map(String::as_str) {
            None => {
                // The driver's form: one run, result object as the last line.
                let w = workload_arg(a.workload.as_ref())?;
                let out = if a.trace {
                    run_traced(w, a.seed, a.seconds)
                } else {
                    run_untraced(w, a.seed, a.seconds)
                }
                .map_err(io_err)?;
                print_run(w, a.seed, a.trace, &out);
                let table: &[_] = if a.trace { &PER_LAYER } else { &END_TO_END };
                println!(
                    "{}",
                    report::result_line(
                        out.correct(),
                        out.attempted,
                        out.failed,
                        out.metrics.to_json(table)
                    )
                );
                Ok(true)
            }
            Some("run") if a.positional.get(1).map(String::as_str) == Some("all") => {
                run_all(&a).map_err(io_err)
            }
            Some("run") => {
                let w = workload_arg(a.positional.get(1))?;
                let untraced = run_untraced(w, a.seed, a.seconds).map_err(io_err)?;
                print_run(w, a.seed, false, &untraced);
                let traced = run_traced(w, a.seed, a.seconds).map_err(io_err)?;
                print_run(w, a.seed, true, &traced);
                Ok(untraced.correct() && traced.correct())
            }
            Some("trace") => {
                let w = workload_arg(a.positional.get(1))?;
                let out = run_traced(w, a.seed, a.seconds).map_err(io_err)?;
                print_run(w, a.seed, true, &out);
                Ok(out.correct())
            }
            Some("agree") => agree(&a).map_err(io_err),
            Some(other) => Err(format!("unknown command {other:?} (run, trace, agree)")),
        }
    })();
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ilpbench: {e}");
            ExitCode::from(2)
        }
    }
}
