//! E23 — the health engine, verified and costed.
//!
//! Three sections, all seed-deterministic and Exact-gated except the
//! wall-clock analysis cost:
//!
//! * **trigger matrix** — every [`sim::health::Trigger`] world runs and
//!   must produce exactly its pinned detector set; the per-world
//!   verdict counts gate bit-exact, so a detector drifting over- or
//!   under-sensitive moves a committed number;
//! * **clean sweep** — the no-false-positive oracle over a fixed seed
//!   set: every seed-derived clean workload must produce zero verdicts
//!   and an observed run identical to its unobserved twin;
//! * **overhead** — the detector-cost story: a faulted workload runs
//!   observed and unobserved and every reported field must match
//!   (the flight recorder and health views are host-side bookkeeping,
//!   so the hot path is unperturbed — `hot_path_identical` gates
//!   Exact `true`), and [`obs::health::analyze`] is timed over the
//!   observed recorder (report-only: analysis happens after the run,
//!   off the hot path, so its cost is informational).

use obs::Json;
use server::{Path, ServerConfig};
use sim::health::{clean_sweep, detectors_of, run_trigger, Trigger};
use sim::recovery::{twins_agree, Twin};
use std::time::Instant;
use utcp::FaultPlan;

const CLEAN_BASE_SEED: u64 = 0xC0FFEE;
const CLEAN_SEEDS: usize = 16;
const ANALYZE_REPS: u32 = 200;

/// The faulted workload the overhead section runs twice: lossy enough
/// to exercise retransmission and the flight recorder, small enough to
/// finish quickly.
fn overhead_cfg() -> ServerConfig {
    ServerConfig {
        n_conns: 8,
        file_len: 8 * 1024,
        chunk: 512,
        faults: FaultPlan { drop_every: 11, corrupt_every: 13, ..Default::default() },
        ..Default::default()
    }
}

fn overhead_section() -> Result<Json, String> {
    // The observed run must match its unobserved twin (a fresh world on
    // the NoopObserver path) field for field — observation is free on
    // the hot path.
    let Twin { world: mut w, rec, report: observed, .. } =
        twins_agree(&overhead_cfg(), Path::Ilp).map_err(|e| format!("overhead: {e}"))?;
    if w.verify_outputs().is_some() {
        return Err("overhead: observed run corrupted a delivered file".into());
    }

    // Analysis cost, off the hot path: analyze() over the finished
    // recorder, repeated for a stable figure. Wall-clock, so
    // report-only in the gate.
    let views = w.h.health_views();
    let queue = w.h.queue_stat();
    let start = Instant::now();
    let mut verdicts = 0u64;
    for _ in 0..ANALYZE_REPS {
        verdicts += obs::health::analyze(&rec, &views, queue).len() as u64;
    }
    let wall = start.elapsed().as_micros() as u64;
    Ok(Json::obj()
        .set("hot_path_identical", Json::Bool(true))
        .set("conns", Json::U64(8))
        .set("rounds", Json::U64(observed.rounds))
        .set("retransmits", Json::U64(observed.retransmits))
        .set("flight_conns", Json::U64(rec.flights().len() as u64))
        .set("verdicts_per_analysis", Json::U64(verdicts / u64::from(ANALYZE_REPS)))
        .set("analyze_reps", Json::U64(u64::from(ANALYZE_REPS)))
        .set("analyze_wall_us", Json::U64(wall))
        .set(
            "analyze_us_each",
            Json::F64(wall as f64 / f64::from(ANALYZE_REPS)),
        ))
}

/// Run the three sections.
pub fn run(_: &[String]) -> Result<Option<Json>, String> {
    // Trigger matrix.
    let mut triggers = Json::obj();
    let mut failures = Vec::new();
    for t in Trigger::ALL {
        match run_trigger(t) {
            Ok(verdicts) => {
                let dets: Vec<Json> = detectors_of(&verdicts)
                    .into_iter()
                    .map(|d| Json::Str(d.name().to_string()))
                    .collect();
                println!(
                    "exp_health: {:<10} {} verdicts, detectors {:?}",
                    t.name(),
                    verdicts.len(),
                    t.expected().iter().map(|d| d.name()).collect::<Vec<_>>(),
                );
                triggers = triggers.set(
                    t.name(),
                    Json::obj()
                        .set("verdicts", Json::U64(verdicts.len() as u64))
                        .set("detectors", Json::Arr(dets))
                        .set("pass", Json::Bool(true)),
                );
            }
            Err(e) => failures.push(format!("trigger {}: {e}", t.name())),
        }
    }

    // Clean sweep: the fixed-seed no-false-positive oracle.
    let clean = match clean_sweep(CLEAN_BASE_SEED, CLEAN_SEEDS) {
        Ok(checks) => {
            println!(
                "exp_health: clean sweep {CLEAN_SEEDS} seeds, {checks} checks, 0 false positives"
            );
            Json::obj()
                .set("base_seed", Json::U64(CLEAN_BASE_SEED))
                .set("seeds", Json::U64(CLEAN_SEEDS as u64))
                .set("checks", Json::U64(checks))
                .set("false_positives", Json::U64(0))
        }
        Err(e) => {
            failures.push(format!("clean sweep: {e}"));
            Json::Null
        }
    };

    // Overhead.
    let overhead = match overhead_section() {
        Ok(j) => {
            println!(
                "exp_health: hot path identical under observation; analyze() ≈ {} µs",
                j.get("analyze_us_each").and_then(|v| v.as_f64()).unwrap_or(0.0)
            );
            j
        }
        Err(e) => {
            failures.push(format!("overhead section: {e}"));
            Json::Null
        }
    };
    if !failures.is_empty() {
        return Err(failures.join("\n"));
    }

    Ok(Some(
        Json::obj()
            .set("experiment", Json::Str("health".into()))
            .set("triggers", triggers)
            .set("clean", clean)
            .set("overhead", overhead),
    ))
}
