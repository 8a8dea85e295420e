//! E24 — goodput vs. loss rate, with and without fast retransmit/SACK.
//!
//! One connection pushes a 32 KiB file through a seeded lossy loop-back
//! at 0 %, 0.1 %, 1 % and 5 % drop probability. Every point runs both
//! the ILP and the non-ILP path under the full per-tick oracle set
//! (`sim::recovery::run_recovery_world`), so the cwnd invariants are
//! enforced while the curve is measured, and the two paths must agree
//! on every behavioural number (`paths_agree` gates Exact `true`).
//!
//! The 1 % point additionally runs the RTO-only baseline
//! (`loss_recovery: false`) on the *same seed* — identical dice,
//! identical drops — and `recovery_beats_rto_only` gates Exact `true`:
//! the dup-ACK/SACK machinery must finish in strictly fewer rounds
//! than waiting for the timer. Everything here is virtual-clock
//! output, so the whole curve is bit-exact across machines.

use obs::Json;
use server::{Path, ServerConfig};
use sim::recovery::run_recovery_world;
use utcp::{FaultPlan, FaultProbs};

/// The seed every point shares. Chosen (by probing) so the 1 % dice
/// actually land drops on data segments — a seed whose drops all hit
/// handshake duplicates or nothing would make the baseline comparison
/// vacuous, and the binary fails loudly if that happens.
const SEED: u64 = 0x11;
const FILE_LEN: usize = 64 * 512;

/// Drop probabilities as x/65536, alongside their human-readable rate.
const POINTS: [(u16, f64); 4] = [(0, 0.0), (66, 0.1), (655, 1.0), (3277, 5.0)];

fn loss_config(drop: u16, loss_recovery: bool) -> ServerConfig {
    ServerConfig {
        n_conns: 1,
        conn_base: 0,
        file_len: FILE_LEN,
        chunk: 512,
        weights: Vec::new(),
        faults: FaultPlan::seeded(SEED, FaultProbs { drop, ..Default::default() }),
        ring_capacity: 16 * 1024,
        max_rounds: 500_000,
        loss_recovery,
        trace_every: 0,
    }
}

/// Run the curve and the RTO-only baseline.
pub fn run(_: &[String]) -> Result<Option<Json>, String> {
    let mut failures = Vec::new();
    let mut points = Vec::new();
    let mut rounds_1pct_recovery = 0u64;

    for (drop, pct) in POINTS {
        let mut per_path = Json::obj();
        let mut behaviour = Vec::new();
        for (name, path) in [("ilp", Path::Ilp), ("non_ilp", Path::NonIlp)] {
            match run_recovery_world(loss_config(drop, true), path) {
                Ok(out) => {
                    let rounds = out.report.rounds;
                    behaviour.push((
                        rounds,
                        out.report.retransmits,
                        out.fast_retransmits,
                        out.rto_backoffs,
                        out.sacked_bytes,
                    ));
                    if pct == 1.0 && path == Path::Ilp {
                        rounds_1pct_recovery = rounds;
                    }
                    per_path = per_path.set(
                        name,
                        Json::obj()
                            .set("rounds", Json::U64(rounds))
                            .set("payload_bytes", Json::U64(out.report.payload_bytes))
                            .set("retransmits", Json::U64(out.report.retransmits))
                            .set("fast_retransmits", Json::U64(out.fast_retransmits))
                            .set("rto_backoffs", Json::U64(out.rto_backoffs))
                            .set("sacked_bytes", Json::U64(out.sacked_bytes))
                            .set("oracle_checks", Json::U64(out.checks))
                            .set(
                                "goodput_bytes_per_round",
                                Json::F64(out.report.payload_bytes as f64 / rounds as f64),
                            ),
                    );
                }
                Err(e) => failures.push(format!("{pct}% {name}: {e}")),
            }
        }
        let agree = behaviour.len() == 2 && behaviour[0] == behaviour[1];
        if !agree {
            failures.push(format!("{pct}%: ILP and non-ILP diverge: {behaviour:?}"));
        }
        if let Some((rounds, _, fast, rto, _)) = behaviour.first() {
            println!(
                "exp_loss: {pct:>4}% drop: {rounds} rounds, {fast} fast retransmits, \
                 {rto} RTO back-offs"
            );
        }
        points.push(
            Json::obj()
                .set("loss_pct", Json::F64(pct))
                .set("drop_prob", Json::U64(u64::from(drop)))
                .set("paths", per_path)
                .set("paths_agree", Json::Bool(agree)),
        );
    }

    // The RTO-only baseline at 1 %: same seed, same drops, recovery off.
    let baseline = match run_recovery_world(loss_config(655, false), Path::Ilp) {
        Ok(out) => {
            let beats = rounds_1pct_recovery != 0
                && out.fast_retransmits == 0
                && rounds_1pct_recovery < out.report.rounds;
            if !beats {
                failures.push(format!(
                    "recovery ({rounds_1pct_recovery} rounds) failed to beat \
                     RTO-only ({} rounds, {} fast retransmits)",
                    out.report.rounds, out.fast_retransmits
                ));
            }
            println!(
                "exp_loss: 1% drop RTO-only baseline: {} rounds vs {} with recovery",
                out.report.rounds, rounds_1pct_recovery
            );
            Json::obj()
                .set("loss_pct", Json::F64(1.0))
                .set("rto_only_rounds", Json::U64(out.report.rounds))
                .set("rto_only_backoffs", Json::U64(out.rto_backoffs))
                .set("recovery_rounds", Json::U64(rounds_1pct_recovery))
                .set("recovery_beats_rto_only", Json::Bool(beats))
        }
        Err(e) => {
            failures.push(format!("RTO-only baseline: {e}"));
            Json::Null
        }
    };
    if !failures.is_empty() {
        return Err(failures.join("\n"));
    }

    Ok(Some(Json::obj()
        .set("experiment", Json::Str("loss".into()))
        .set("seed", Json::U64(SEED))
        .set("file_len", Json::U64(FILE_LEN as u64))
        .set("points", Json::Arr(points))
        .set("baseline_1pct", baseline)))
}
