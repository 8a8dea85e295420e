//! Deterministic simulation sweep as a tracked experiment.
//!
//! Runs the same seeded scenario sweep the `sim` crate's smoke test
//! runs (seeded fault plans, per-tick TCP reference-model oracles,
//! ILP ≡ non-ILP equivalence, obs conservation) and reports it. Every
//! count in the report — fault mix, oracle
//! evaluations, rounds, payload — is a pure function of the seed block,
//! so the perf gate holds them bit-exact: a behaviour change anywhere
//! in the stack (an extra retransmission, a changed rejection, a
//! different fault draw) moves one of them and fails CI. Sweep
//! throughput (`seeds_per_sec`) is wall-clock and report-only.
//!
//! Usage: `bench -- exp_dst [--seeds N] [--base SEED]` (defaults match
//! the CI smoke block: 200 seeds from 0x11F95000).

use crate::report::{banner, Table};
use obs::Json;
use sim::{sweep, Scenario, ScenarioKind, SweepOpts};

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// Run the sweep.
pub fn run(args: &[String]) -> Result<Option<Json>, String> {
    let mut opts = SweepOpts { base_seed: 0x11F9_5000, seeds: 200, ..Default::default() };
    for flag in args.chunks(2) {
        match (flag[0].as_str(), flag.get(1).and_then(|v| parse_u64(v))) {
            ("--seeds", Some(n)) => opts.seeds = n as usize,
            ("--base", Some(b)) => opts.base_seed = b,
            _ => return Err("usage: exp_dst [--seeds N] [--base SEED]".into()),
        }
    }

    banner("Deterministic simulation sweep", "seeded faults, cross-layer oracles");
    let start = std::time::Instant::now();
    let rep = sweep::<Scenario>(&opts);
    let wall_us = (start.elapsed().as_micros() as u64).max(1);

    if let Some(f) = &rep.failure {
        return Err(format!(
            "seed sweep FAILED after {} seeds: {}\noriginal scenario: {:?}\nshrunk reproducer:\n{}",
            rep.seeds_run, f.message, f.spec, f.test_case
        ));
    }
    let (kinds, t) = (ScenarioKind::mix(opts.base_seed, rep.seeds_run), rep.totals);

    let seeds_per_sec = rep.passed as f64 / (wall_us as f64 / 1e6);
    let mut table = Table::new(vec!["metric", "value"]);
    table.row(vec!["seeds".into(), format!("{} from {:#x}", opts.seeds, opts.base_seed)]);
    table.row(vec![
        "kind mix (ring/transfer/sharded)".into(),
        format!("{}/{}/{}", kinds[0], kinds[1], kinds[2]),
    ]);
    table.row(vec![
        "faults (drop/dup/reorder/corrupt/delay)".into(),
        format!(
            "{}/{}/{}/{}/{}",
            t.faults.dropped,
            t.faults.duplicated,
            t.faults.reordered,
            t.faults.corrupted,
            t.faults.delayed
        ),
    ]);
    table.row(vec!["oracle checks".into(), t.oracle_checks.to_string()]);
    table.row(vec!["scheduling rounds".into(), t.rounds.to_string()]);
    table.row(vec!["payload bytes".into(), t.payload_bytes.to_string()]);
    table.row(vec!["retransmits".into(), t.retransmits.to_string()]);
    table.row(vec!["seeds/sec (wall)".into(), format!("{seeds_per_sec:.0}")]);
    table.print();

    Ok(Some(Json::obj()
        .set("experiment", Json::Str("dst".into()))
        .set("base_seed", Json::U64(opts.base_seed))
        .set("seeds", Json::U64(opts.seeds as u64))
        .set("passed", Json::U64(rep.passed as u64))
        .set(
            "kind_counts",
            Json::Arr(kinds.iter().map(|&k| Json::U64(k as u64)).collect()),
        )
        .set(
            "faults",
            Json::obj()
                .set("dropped", Json::U64(t.faults.dropped))
                .set("duplicated", Json::U64(t.faults.duplicated))
                .set("reordered", Json::U64(t.faults.reordered))
                .set("corrupted", Json::U64(t.faults.corrupted))
                .set("delayed", Json::U64(t.faults.delayed)),
        )
        .set("oracle_checks", Json::U64(t.oracle_checks))
        .set("rounds", Json::U64(t.rounds))
        .set("payload_bytes", Json::U64(t.payload_bytes))
        .set("retransmits", Json::U64(t.retransmits))
        .set("wall_us", Json::U64(wall_us))
        .set("seeds_per_sec", Json::F64(seeds_per_sec))))
}
