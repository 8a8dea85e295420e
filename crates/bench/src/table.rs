//! The experiment table and the `bench` driver over it.
//!
//! One [`Row`] per experiment: the subcommand that runs it, what of the
//! paper it reproduces, its runner, and — for the rows that emit a
//! machine-readable report — the report's file name and the paths the
//! gate holds in it ([`crate::gate`]). Adding an experiment, or a gated
//! metric, is one entry here; nothing else names a report file.
//!
//! ```text
//! bench <row> [args]     run one row (and write its report, if it has one)
//! bench ci               run every reporting row, then gate every report
//! bench gate [--record]  gate (or re-record baselines/ from) the reports on disk
//! bench gate --explain   what a re-record would change: key, baseline, fresh, Δ %
//! bench list             the table
//! ```

use crate::exp::{
    atom_axp, calibrate, churn, ciphers, des_ablation, dispatch, dst, health, loss, micro,
    observe, placement, segtrace, server_scale, store_grain, sweep, trace,
};
use crate::gate::{gate_file, Check, FileManifest, Mode, Policy};
use obs::Json;

/// What a row runs: prints to stdout, returns the report document if
/// the row has one. `Err` fails the row.
pub type Runner = fn(&[String]) -> Result<Option<Json>, String>;

/// One experiment.
pub struct Row {
    /// Subcommand name.
    pub name: &'static str,
    /// What it reproduces.
    pub paper: &'static str,
    /// The runner.
    pub run: Runner,
    /// The report the row emits, and the paths gated in it.
    pub report: Option<FileManifest>,
}

const fn row(name: &'static str, paper: &'static str, run: Runner) -> Row {
    Row { name, paper, run, report: None }
}

const fn reporting(
    name: &'static str,
    paper: &'static str,
    run: Runner,
    file: &'static str,
    checks: &'static [Check],
) -> Row {
    Row { name, paper, run, report: Some(FileManifest { file, checks }) }
}

/// Virtual-clock output — counts of simulated events — and therefore
/// machine-independent: any drift fails.
const fn e(path: &'static str) -> Check {
    Check::new(path, Policy::Exact)
}

/// Floats derived from the same deterministic inputs through the host
/// cost model; 2 % is far wider than any real drift, so a tolerance
/// failure means a real behaviour change.
const fn t(path: &'static str) -> Check {
    Check::new(path, Policy::RelTol(0.02))
}

/// Wall-clock or machine-dependent: present, a number, otherwise free.
const fn r(path: &'static str) -> Check {
    Check::new(path, Policy::ReportOnly)
}

/// Every experiment of the repository.
pub static TABLE: &[Row] = &[
    row("fig06_recv_processing", "Fig. 6 — receive packet processing, 1 KB, 7 hosts", sweep::fig06),
    row("fig07_send_processing", "Fig. 7 — send packet processing, 1 KB, 7 hosts", sweep::fig07),
    row("fig08_throughput_1k", "Fig. 8 — throughput, 1 KB, 7 hosts", sweep::fig08),
    row("fig09_throughput_sweep", "Fig. 9 — throughput vs packet size, 4 hosts", sweep::fig09),
    row("fig10_processing_sweep", "Fig. 10 — processing vs packet size, 4 hosts", sweep::fig10),
    row("fig11_cipher_processing", "Fig. 11 — simplified SAFER vs simple cipher", ciphers::fig11),
    row("fig12_cipher_throughput", "Fig. 12 — user-level ILP/non-ILP vs kernel TCP", ciphers::fig12),
    row("fig13_mem_access", "Fig. 13 — memory accesses for 10.7 MB", ciphers::fig13),
    row("fig14_cache_misses", "Fig. 14 — cache misses for 10.7 MB", ciphers::fig14),
    row("table1_full_sweep", "Table 1 — the full Annex sweep", sweep::table1),
    row("calibrate", "Table 1 — paper vs measured, cost components (DETAIL=1)", calibrate::run),
    reporting(
        "exp_micro",
        "§1 — fused XDR+checksum microbenchmark (native CPU)",
        micro::run,
        "BENCH_micro.json",
        &[],
    ),
    row("exp_dispatch", "§3.2.1 — macro (generic) vs function-call (dyn) fusion", dispatch::run),
    row("exp_atom_axp", "§4.2 — ATOM-style whole-run accounting on the AXP 3000/500", atom_axp::run),
    row("exp_placement", "§3.2.2 — early vs late data-manipulation placement", placement::placement),
    row("exp_des_ablation", "§2.1/[4] — cipher complexity drowning the ILP gain", des_ablation::run),
    row("exp_store_grain", "§2.2 — byte-wise vs word-wise store cache misses", store_grain::run),
    row("exp_trace", "§4.2 — access-trace analysis of one packet", trace::run),
    row("exp_trailer", "§5 — header format vs trailer format", placement::trailer),
    reporting(
        "observe",
        "observed 8-connection server — stage×layer work, counters, series, trace",
        observe::run,
        "BENCH_observe.json",
        &[
            e("experiment"),
            e("conns"),
            e("file_len"),
            // Counters: delivery, loss handling, rejects by cause.
            e("ilp.counters.chunks_sent"),
            e("ilp.counters.chunks_delivered"),
            e("ilp.counters.retransmits"),
            e("ilp.counters.reject_checksum"),
            e("ilp.counters.reject_out_of_order"),
            e("non_ilp.counters.chunks_delivered"),
            e("non_ilp.counters.reject_checksum"),
            // Work units per stage×layer — the paper's core currency.
            e("ilp.work.ilp.total"),
            e("ilp.work.ilp.integrated.total"),
            e("ilp.work.ilp.integrated.by_layer.fused"),
            e("non_ilp.work.non_ilp.total"),
            // Virtual-tick latency distribution.
            e("ilp.metrics.chunk_latency_ticks.count"),
            e("ilp.metrics.chunk_latency_ticks.p50"),
            e("ilp.metrics.chunk_latency_ticks.p99"),
            e("ilp.trace.events.0.tick"),
            // Windowed series: the run's shape over virtual time.
            e("ilp.series.window_ticks"),
            e("ilp.series.sealed_windows"),
            e("ilp.series.last_tick"),
            e("ilp.series.windows.0.chunks_sent"),
            // Kernel-part backend counters (loop-back: injected
            // faults + queue high-water), deterministic too.
            e("ilp.backend.sent"),
            e("ilp.backend.dropped"),
            e("ilp.backend.corrupted"),
            e("ilp.backend.queue_peak"),
            t("ilp.work.ilp.integrated.share"),
        ],
    ),
    reporting(
        "exp_server_scale",
        "server scale — 1→1024 connections on the simulated SS10-30",
        server_scale::run,
        "BENCH_server_scale.json",
        &[
            e("experiment"),
            // Smallest (1 conn) and largest (1024 conns) sweep points.
            e("points.0.conns"),
            e("points.0.paths.ilp.rounds"),
            e("points.0.paths.ilp.payload_bytes"),
            e("points.0.paths.ilp.cache.mem_accesses"),
            e("points.0.paths.ilp.retransmits"),
            e("points.0.paths.ilp.rejected"),
            e("points.0.paths.non_ilp.rounds"),
            e("points.0.paths.non_ilp.cache.mem_accesses"),
            e("points.5.conns"),
            e("points.5.paths.ilp.rounds"),
            e("points.5.paths.ilp.payload_bytes"),
            e("points.5.paths.ilp.cache.mem_accesses"),
            e("points.5.paths.non_ilp.cache.mem_accesses"),
            // Derived floats: throughput, miss rate, fairness.
            t("points.0.paths.ilp.mbps"),
            t("points.5.paths.ilp.mbps"),
            t("points.5.paths.non_ilp.mbps"),
            t("points.5.paths.ilp.cache.l1d_miss_pct"),
            t("points.0.paths.ilp.fairness"),
            r("points.5.gain_pct"),
        ],
    ),
    reporting(
        "exp_dst",
        "deterministic simulation — 200-seed fault sweep under cross-layer oracles",
        dst::run,
        "BENCH_dst.json",
        &[
            // The whole sweep is seed-deterministic: scenario mix,
            // injected fault mix, oracle evaluation counts, and the
            // simulated work all gate bit-exact. Any behaviour
            // change in the stack under faults (one extra
            // retransmission anywhere in 200 seeds) moves these.
            e("experiment"),
            e("base_seed"),
            e("seeds"),
            e("passed"),
            e("kind_counts.0"),
            e("kind_counts.1"),
            e("faults.dropped"),
            e("faults.duplicated"),
            e("faults.reordered"),
            e("faults.corrupted"),
            e("faults.delayed"),
            e("oracle_checks"),
            e("rounds"),
            e("payload_bytes"),
            e("retransmits"),
            r("wall_us"),
            r("seeds_per_sec"),
        ],
    ),
    reporting(
        "exp_health",
        "health engine — trigger matrix, no-false-positive sweep, hot-path identity",
        health::run,
        "BENCH_health.json",
        &[
            // The verdict counts of the pinned trigger worlds are
            // virtual-clock output: a detector drifting over- or
            // under-sensitive, or a protocol change altering how a
            // fault world unfolds, moves these.
            e("experiment"),
            e("triggers.storm.verdicts"),
            e("triggers.storm.pass"),
            e("triggers.blackout.verdicts"),
            e("triggers.blackout.pass"),
            e("triggers.saturation.verdicts"),
            e("triggers.saturation.pass"),
            e("triggers.fairness.verdicts"),
            e("triggers.fairness.pass"),
            // The no-false-positive sweep: fixed seed set, zero
            // verdicts, full oracle count.
            e("clean.base_seed"),
            e("clean.seeds"),
            e("clean.checks"),
            e("clean.false_positives"),
            // Observation must be free on the hot path: the
            // observed and unobserved twins matched field for
            // field. The analysis cost itself is wall-clock.
            e("overhead.hot_path_identical"),
            e("overhead.rounds"),
            e("overhead.retransmits"),
            e("overhead.verdicts_per_analysis"),
            r("overhead.analyze_wall_us"),
            r("overhead.analyze_us_each"),
        ],
    ),
    reporting(
        "exp_loss",
        "loss recovery — goodput vs loss rate, fast retransmit vs RTO-only",
        loss::run,
        "BENCH_loss.json",
        &[
            // The goodput-vs-loss curve is virtual-clock output on a
            // fixed seed: rounds, retransmission mechanism counts and
            // SACK volume gate bit-exact at every loss rate, the ILP
            // and non-ILP paths must agree behaviourally, and fast
            // retransmit must strictly beat the RTO-only baseline on
            // the same dice.
            e("experiment"),
            e("seed"),
            e("file_len"),
            e("points.0.loss_pct"),
            e("points.0.drop_prob"),
            e("points.0.paths.ilp.rounds"),
            e("points.0.paths.ilp.retransmits"),
            e("points.0.paths.ilp.fast_retransmits"),
            e("points.0.paths.ilp.rto_backoffs"),
            e("points.0.paths.ilp.sacked_bytes"),
            e("points.0.paths_agree"),
            e("points.2.drop_prob"),
            e("points.2.paths.ilp.rounds"),
            e("points.2.paths.ilp.fast_retransmits"),
            e("points.2.paths.ilp.rto_backoffs"),
            e("points.2.paths.ilp.sacked_bytes"),
            e("points.2.paths_agree"),
            e("points.3.drop_prob"),
            e("points.3.paths.ilp.rounds"),
            e("points.3.paths.ilp.fast_retransmits"),
            e("points.3.paths.ilp.rto_backoffs"),
            e("points.3.paths.non_ilp.rounds"),
            e("points.3.paths_agree"),
            e("baseline_1pct.rto_only_rounds"),
            e("baseline_1pct.recovery_rounds"),
            e("baseline_1pct.recovery_beats_rto_only"),
            t("points.0.paths.ilp.goodput_bytes_per_round"),
            t("points.2.paths.ilp.goodput_bytes_per_round"),
            t("points.3.paths.ilp.goodput_bytes_per_round"),
        ],
    ),
    reporting(
        "exp_segtrace",
        "segment tracing — critical-path decomposition, determinism, zero perturbation",
        segtrace::run,
        "BENCH_trace.json",
        &[
            // The segment-trace store is virtual-clock output on a
            // fixed config: chain counts, origin split (sampled vs
            // loss-promoted), and the four critical-path components
            // all gate bit-exact. A protocol change that shifts one
            // retransmission moves the recovery component; a
            // sampling or propagation bug moves the origin split or
            // drops a chain.
            e("experiment"),
            e("conns"),
            e("file_len"),
            e("trace_every"),
            e("ilp.traces"),
            e("ilp.origin_sampled"),
            e("ilp.origin_promoted"),
            e("ilp.origin_wire"),
            e("ilp.no_orphans"),
            e("ilp.decomposition_exact"),
            e("ilp.latency_matches_histogram"),
            e("ilp.components.completed"),
            e("ilp.components.queueing"),
            e("ilp.components.recovery"),
            e("ilp.components.propagation"),
            e("ilp.components.processing"),
            e("ilp.components.total"),
            e("ilp.components.measured_latency"),
            e("non_ilp.traces"),
            e("non_ilp.decomposition_exact"),
            e("non_ilp.latency_matches_histogram"),
            e("non_ilp.components.total"),
            e("sampled.traces"),
            e("sampled.origin_sampled"),
            e("sampled.origin_promoted"),
            e("sampled.origin_wire"),
            e("sampled.decomposition_exact"),
            e("sampled.components.completed"),
            e("sampled.components.recovery"),
            e("deterministic"),
            e("unperturbed"),
            r("wall_us"),
        ],
    ),
    reporting(
        "exp_churn",
        "connection churn — connect→transfer→close→reopen waves + teardown sweep",
        churn::run,
        "BENCH_churn.json",
        &[
            // Connection churn is virtual-clock output on a fixed
            // seed: closes completed, cumulative TIME_WAIT
            // residency, ports recycled and the drain rounds all
            // gate bit-exact, as do the lifecycle sweep's pass and
            // oracle counts. A teardown behaviour change anywhere —
            // one extra FIN retransmission, one tick more of
            // TIME_WAIT — moves these.
            e("experiment"),
            e("seed"),
            e("waves"),
            e("conns"),
            e("file_len"),
            e("drop_prob"),
            e("paths.ilp.closes_completed"),
            e("paths.ilp.time_wait_ticks"),
            e("paths.ilp.ports_recycled"),
            e("paths.ilp.rounds_to_quiescence"),
            e("paths.ilp.rounds_total"),
            e("paths.ilp.payload_bytes"),
            e("paths.ilp.retransmits"),
            e("paths.ilp.oracle_checks"),
            e("paths.non_ilp.closes_completed"),
            e("paths.non_ilp.rounds_total"),
            e("paths.non_ilp.time_wait_ticks"),
            e("paths_agree"),
            e("teardown_sweep.base_seed"),
            e("teardown_sweep.seeds"),
            e("teardown_sweep.passed"),
            e("teardown_sweep.oracle_checks"),
            e("teardown_sweep.all_green"),
            t("paths.ilp.closes_per_kround"),
        ],
    ),
];

/// Run one row; write its report if it returned one.
fn run_row(row: &Row, args: &[String]) -> Result<(), String> {
    let fail = |e: String| format!("{}: {e}", row.name);
    match ((row.run)(args).map_err(fail)?, &row.report) {
        (None, None) => Ok(()),
        (Some(doc), Some(fm)) => {
            obs::write_report(std::path::Path::new(fm.file), &doc)
                .map_err(|e| fail(format!("cannot write {}: {e}", fm.file)))?;
            println!("\nwrote {}", fm.file);
            Ok(())
        }
        _ => Err(fail("the row's report column and its runner disagree".into())),
    }
}

fn list(table: &[Row]) {
    for row in table {
        let file = row.report.as_ref().map_or(String::new(), |fm| format!("  → {}", fm.file));
        println!("{:<24} {}{file}", row.name, row.paper);
    }
}

/// Collect the failures of `steps`, running every one.
fn all(steps: impl Iterator<Item = Result<(), String>>) -> Result<(), String> {
    let failures: Vec<String> = steps.filter_map(Result::err).collect();
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

/// Gate (or record, or explain) every report of `table` that has gated
/// paths.
fn gate_all(table: &[Row], mode: Mode) -> Result<(), String> {
    if mode == Mode::Explain {
        println!("| report | key | policy | baseline | fresh | Δ % |\n|---|---|---|---|---|---|");
    }
    let reports = table.iter().filter_map(|row| row.report.as_ref());
    all(reports.filter(|fm| !fm.checks.is_empty()).map(|fm| gate_file(fm, mode)))
}

/// The `bench` command line over `table` (the binary passes [`TABLE`]).
pub fn dispatch(table: &[Row], args: &[String]) -> Result<(), String> {
    const USAGE: &str = "usage: bench <row> [args] | ci | gate [--record | --explain] | list";
    let Some((cmd, rest)) = args.split_first() else {
        return Err(USAGE.into());
    };
    match (cmd.as_str(), rest) {
        ("list", []) => {
            list(table);
            Ok(())
        }
        ("ci", []) => {
            let reporting = table.iter().filter(|row| row.report.is_some());
            all(reporting.map(|row| {
                println!("== {} ==", row.name);
                run_row(row, &[])
            }))?;
            gate_all(table, Mode::Check)
        }
        ("gate", []) => gate_all(table, Mode::Check),
        ("gate", [flag]) if flag == "--record" => gate_all(table, Mode::Record),
        ("gate", [flag]) if flag == "--explain" => gate_all(table, Mode::Explain),
        ("ci" | "gate" | "list", _) => Err(USAGE.into()),
        (name, _) => match table.iter().find(|row| row.name == name) {
            Some(row) => run_row(row, rest),
            None => Err(format!("{name}: no such row (`bench list` shows the table)\n{USAGE}")),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn an_unknown_subcommand_is_an_error_naming_it() {
        let err = dispatch(TABLE, &argv(&["fig99_nonsense"])).unwrap_err();
        assert!(err.starts_with("fig99_nonsense: no such row"), "{err}");
        assert!(dispatch(TABLE, &[]).is_err(), "no subcommand at all");
        assert!(dispatch(TABLE, &argv(&["gate", "--baseline-dir", "x"])).is_err());
    }

    #[test]
    fn a_failing_row_is_an_error_naming_the_row() {
        fn broken(args: &[String]) -> Result<Option<Json>, String> {
            Err(format!("oracle tripped with {} args", args.len()))
        }
        let table = [row("exp_broken", "a row that fails", broken)];
        let err = dispatch(&table, &argv(&["exp_broken", "--seeds", "3"])).unwrap_err();
        assert_eq!(err, "exp_broken: oracle tripped with 2 args");
    }
}
