//! E25 — causal segment tracing and critical-path decomposition.
//!
//! Runs a seeded lossy transfer with every chunk traced
//! (`trace_every = 1`) on both processing paths and reports what the
//! segment-trace store saw. Everything here is virtual-clock output and
//! Exact-gated:
//!
//! * **per-path component totals** — queueing / recovery / propagation /
//!   processing ticks summed over every completed chain, plus the
//!   telescoping identity (`decomposition_exact`): the four components
//!   must sum to the end-to-end total for *every* trace;
//! * **cross-check against the untraced metric** — the summed
//!   `measured_latency` of the chains must equal the harness's own
//!   `ChunkLatencyTicks` histogram sum (`latency_matches_histogram`),
//!   tying the new decomposition to the pre-existing latency pipeline;
//! * **determinism** — two runs of the same seed must render
//!   byte-identical trace stores;
//! * **zero perturbation** — the traced run must report the same
//!   rounds / payload / retransmits / rejects as an untraced plain run:
//!   context rides beside the datagrams, never in them.

use crate::report::{banner, Table};
use memsim::{AddressSpace, NativeMem};
use obs::{Json, Metric, Recorder, SegStore};
use server::{Path, RoundRobin, ScaleHarness, ServerConfig};
use utcp::FaultPlan;

const TRACE_CAP: usize = 512;

/// Lossy enough that recovery time shows up in the decomposition (drops
/// force retransmits, corruption forces checksum rejects), small enough
/// to finish in well under a second.
fn traced_cfg() -> ServerConfig {
    ServerConfig {
        n_conns: 8,
        file_len: 8 * 1024,
        chunk: 512,
        faults: FaultPlan { drop_every: 11, corrupt_every: 7, ..Default::default() },
        trace_every: 1,
        ..Default::default()
    }
}

/// Same world at a 1-in-4 sampling stride: most chunks go untraced, but
/// any chunk that enters loss recovery is *promoted* into the store, so
/// the origin split (sampled vs promoted) gates the promotion machinery
/// bit-exact.
fn sampled_cfg() -> ServerConfig {
    ServerConfig { trace_every: 4, ..traced_cfg() }
}

struct PathRun {
    report: server::AggregateReport,
    rec: Recorder,
}

fn run_traced(cfg: ServerConfig, path: Path) -> Result<PathRun, String> {
    let mut space = AddressSpace::new();
    let mut h = ScaleHarness::simplified(&mut space, cfg);
    let mut arena = space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    h.init_world(&mut m);
    let mut sched = RoundRobin::new();
    let mut rec = Recorder::new(TRACE_CAP);
    let report = h.run(&mut m, &mut sched, (path, &mut rec));
    if h.verify_outputs(&mut m).is_some() {
        return Err(format!("{path:?}: traced run corrupted a delivered file"));
    }
    Ok(PathRun { report, rec })
}

/// Per-trace telescoping identity over the whole store.
fn decomposition_exact(store: &SegStore) -> bool {
    store.iter().filter_map(|t| t.breakdown()).all(|b| {
        b.causal_ok()
            && b.queueing() + b.recovery() + b.propagation() + b.processing() == b.total()
    })
}

fn path_section(run: &PathRun, full_coverage: bool) -> Json {
    let store = run.rec.segtrace();
    let totals = store.totals();
    let (sampled, promoted, wire) = store.origin_counts();
    let lat = run.rec.hist(Metric::ChunkLatencyTicks);
    // With every chunk traced the chains must reproduce the histogram
    // exactly; at a sparser stride the store covers a subset of the
    // chunks, so the chain latencies can only sum to at most it.
    let lat_ok = if full_coverage {
        totals.measured_latency == lat.sum() && totals.completed == lat.count()
    } else {
        totals.measured_latency <= lat.sum() && totals.completed <= lat.count()
    };
    Json::obj()
        .set("traces", Json::U64(store.len() as u64))
        .set("origin_sampled", Json::U64(sampled))
        .set("origin_promoted", Json::U64(promoted))
        .set("origin_wire", Json::U64(wire))
        .set("no_orphans", Json::Bool(store.iter().all(|t| t.no_orphans())))
        .set("decomposition_exact", Json::Bool(decomposition_exact(store)))
        .set("latency_matches_histogram", Json::Bool(lat_ok))
        .set("rounds", Json::U64(run.report.rounds))
        .set("retransmits", Json::U64(run.report.retransmits))
        .set("components", totals.to_json())
}

/// Run the traced worlds and their invariants.
pub fn run(_: &[String]) -> Result<Option<Json>, String> {
    banner("Causal segment tracing", "critical-path latency decomposition");
    let start = std::time::Instant::now();

    let ilp = run_traced(traced_cfg(), Path::Ilp)?;
    let non_ilp = run_traced(traced_cfg(), Path::NonIlp)?;
    let sampled_run = run_traced(sampled_cfg(), Path::Ilp)?;

    // Determinism: a second ILP run of the same seed must render a
    // byte-identical trace store.
    let again = run_traced(traced_cfg(), Path::Ilp)?;
    let deterministic =
        again.rec.segtrace().to_json().render() == ilp.rec.segtrace().to_json().render();

    // Zero perturbation: an untraced, unobserved run of the same world
    // must be behaviourally indistinguishable — trace context rides
    // out of band, so the TPDU bytes and every protocol decision are
    // unchanged.
    let mut space = AddressSpace::new();
    let mut h = ScaleHarness::simplified(&mut space, ServerConfig { trace_every: 0, ..traced_cfg() });
    let mut arena = space.native_arena();
    let mut m = NativeMem::new(&mut arena);
    h.init_world(&mut m);
    let mut sched = RoundRobin::new();
    let plain = h.run(&mut m, &mut sched, Path::Ilp);
    let unperturbed = plain.rounds == ilp.report.rounds
        && plain.payload_bytes == ilp.report.payload_bytes
        && plain.retransmits == ilp.report.retransmits
        && plain.rejected == ilp.report.rejected
        && plain.per_conn == ilp.report.per_conn;

    let wall_us = (start.elapsed().as_micros() as u64).max(1);

    // Human-readable critical-path table for the CI log.
    let t = ilp.rec.segtrace().totals();
    let pct = |c: u64| {
        if t.total == 0 { 0.0 } else { 100.0 * c as f64 / t.total as f64 }
    };
    let mut table = Table::new(vec!["component (ILP)", "ticks", "share"]);
    table.row(vec!["queueing".into(), t.queueing.to_string(), format!("{:.1}%", pct(t.queueing))]);
    table.row(vec!["recovery".into(), t.recovery.to_string(), format!("{:.1}%", pct(t.recovery))]);
    table.row(vec![
        "propagation".into(),
        t.propagation.to_string(),
        format!("{:.1}%", pct(t.propagation)),
    ]);
    table.row(vec![
        "processing".into(),
        t.processing.to_string(),
        format!("{:.1}%", pct(t.processing)),
    ]);
    table.row(vec!["total".into(), t.total.to_string(), "100.0%".into()]);
    table.print();
    println!(
        "exp_segtrace: {} chains completed, deterministic={deterministic}, unperturbed={unperturbed}",
        t.completed
    );

    if !deterministic || !unperturbed {
        return Err("invariant FAILED (see flags above)".into());
    }
    let cfg = traced_cfg();
    Ok(Some(Json::obj()
        .set("experiment", Json::Str("segtrace".into()))
        .set("conns", Json::U64(cfg.n_conns as u64))
        .set("file_len", Json::U64(cfg.file_len as u64))
        .set("trace_every", Json::U64(u64::from(cfg.trace_every)))
        .set("ilp", path_section(&ilp, true))
        .set("non_ilp", path_section(&non_ilp, true))
        .set("sampled", path_section(&sampled_run, false))
        .set("deterministic", Json::Bool(deterministic))
        .set("unperturbed", Json::Bool(unperturbed))
        .set("wall_us", Json::U64(wall_us))))
}
