//! E26 — connection churn: connect → transfer → close → reopen waves.
//!
//! The scale experiments measure steady-state transfer; this one
//! measures the *lifecycle* around it. A fixed churn workload drives
//! the full server harness through several waves of accept + transfer +
//! FIN/ACK teardown under seeded ~0.6 % loss, drains every connection
//! through TIME_WAIT to `Closed` between waves, and re-binds the
//! released data ports for the next wave — with the per-tick oracle set
//! (including the RFC 793 legal-transition matrix and the post-FIN
//! freeze) live throughout. Both the ILP and the non-ILP path run the
//! identical world and must agree on every number.
//!
//! The report also carries the lifecycle sweep (the six pinned teardown
//! worlds plus 200 seeded teardown-under-fault worlds), so CI gates the
//! sweep's pass count and oracle volume bit-exact alongside the churn
//! quantities: closes completed, cumulative TIME_WAIT residency, ports
//! recycled, and the settle rounds spent reaching full quiescence.

use obs::Json;
use server::Path;
use sim::{run_churn, sweep, ChurnOutcome, ChurnSpec, SweepOpts, TeardownSpec, PINNED_WORLDS};
use utcp::FaultProbs;

/// The pinned churn workload: four connections, four waves, a 4 KiB
/// file per connection per wave, ~0.6 % seeded drop. Big enough that
/// the dice actually drop datagrams (the gated retransmit count is
/// non-zero) and TIME_WAIT residency accumulates across reopens;
/// small enough to stay in the CI budget.
fn churn_spec() -> ChurnSpec {
    ChurnSpec {
        seed: 0xC4A2,
        waves: 4,
        n_conns: 4,
        file_len: 4 * 1024,
        chunk: 512,
        probs: FaultProbs { drop: 400, ..Default::default() },
    }
}

/// The lifecycle sweep block shared with `tests/dst.rs` and CI.
const TEARDOWN_BASE_SEED: u64 = 0x7EAF_0000;
const TEARDOWN_SEEDS: usize = 200;

fn outcome_json(out: &ChurnOutcome) -> Json {
    Json::obj()
        .set("closes_completed", Json::U64(out.closes_completed))
        .set("time_wait_ticks", Json::U64(out.time_wait_ticks))
        .set("ports_recycled", Json::U64(out.ports_recycled))
        .set("rounds_to_quiescence", Json::U64(out.rounds_to_quiescence))
        .set("rounds_total", Json::U64(out.rounds_total))
        .set("payload_bytes", Json::U64(out.payload_bytes))
        .set("retransmits", Json::U64(out.retransmits))
        .set("oracle_checks", Json::U64(out.oracle_checks))
        .set(
            "closes_per_kround",
            Json::F64(
                1000.0 * out.closes_completed as f64
                    / (out.rounds_total + out.rounds_to_quiescence) as f64,
            ),
        )
}

/// Run the churn workload and the teardown sweep.
pub fn run(_: &[String]) -> Result<Option<Json>, String> {
    let mut failures = Vec::new();
    let spec = churn_spec();
    let mut paths = Json::obj();
    let mut outcomes: Vec<ChurnOutcome> = Vec::new();
    for (name, path) in [("ilp", Path::Ilp), ("non_ilp", Path::NonIlp)] {
        match run_churn(&spec, path) {
            Ok(out) => {
                println!(
                    "exp_churn ({name}): {} closes over {} waves, {} TIME_WAIT ticks, \
                     {} ports recycled, {} + {} rounds (transfer + drain), {} retransmits",
                    out.closes_completed,
                    spec.waves,
                    out.time_wait_ticks,
                    out.ports_recycled,
                    out.rounds_total,
                    out.rounds_to_quiescence,
                    out.retransmits
                );
                paths = paths.set(name, outcome_json(&out));
                outcomes.push(out);
            }
            Err(e) => failures.push(format!("{name}: {e}")),
        }
    }
    let agree = outcomes.len() == 2 && outcomes[0] == outcomes[1];
    if !agree {
        failures.push(format!("ILP and non-ILP churn diverge: {outcomes:?}"));
    }

    // The lifecycle sweep: every pinned teardown world and 200 seeded
    // ones must hold every oracle; the counts gate bit-exact.
    let rep = sweep::<TeardownSpec>(&SweepOpts {
        base_seed: TEARDOWN_BASE_SEED,
        seeds: TEARDOWN_SEEDS,
        prelude: &PINNED_WORLDS,
        ..Default::default()
    });
    let checks = rep.totals.oracle_checks;
    let sweep_json = Json::obj()
        .set("base_seed", Json::U64(TEARDOWN_BASE_SEED))
        .set("seeds", Json::U64(TEARDOWN_SEEDS as u64))
        .set("passed", Json::U64(rep.passed as u64))
        .set("oracle_checks", Json::U64(checks))
        .set("all_green", Json::Bool(rep.failure.is_none()));
    match &rep.failure {
        None => println!(
            "exp_churn: teardown sweep all green ({} worlds, {checks} oracle checks)",
            rep.passed
        ),
        Some(f) => failures.push(format!(
            "teardown sweep: {}\nspec: {:?}\n{}",
            f.message, f.shrunk, f.test_case
        )),
    }
    if !failures.is_empty() {
        return Err(failures.join("\n"));
    }

    Ok(Some(Json::obj()
        .set("experiment", Json::Str("churn".into()))
        .set("seed", Json::U64(spec.seed))
        .set("waves", Json::U64(spec.waves as u64))
        .set("conns", Json::U64(spec.n_conns as u64))
        .set("file_len", Json::U64(spec.file_len as u64))
        .set("drop_prob", Json::U64(u64::from(spec.probs.drop)))
        .set("paths", paths)
        .set("paths_agree", Json::Bool(agree))
        .set("teardown_sweep", sweep_json)))
}
