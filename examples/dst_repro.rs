//! Replay a deterministic-simulation scenario from its seed.
//!
//! Every DST run is a pure function of one `u64`: the seed generates
//! the workload shape, the fault probabilities and the kernel-part dice
//! stream, so pasting the seed from a CI failure replays the exact run.
//!
//! ```text
//! cargo run --release --offline --example dst_repro -- 0x11f95007
//! cargo run --release --offline --example dst_repro -- 0x11f95007 --inject-ring-bug
//! cargo run --release --offline --example dst_repro -- --fast-retransmit
//! cargo run --release --offline --example dst_repro -- --sack-holes
//! cargo run --release --offline --example dst_repro -- --teardown [SEED] [--inject-fin-bug]
//! ```
//!
//! The second form re-introduces the historical send-ring saturated-
//! tail wrap bug behind the test hook and shows what the sweep prints
//! when an oracle fires: the failure message, the shrunk scenario, and
//! a ready-to-paste `#[test]` reproducer.
//!
//! `--fast-retransmit` and `--sack-holes` replay the pinned
//! loss-recovery worlds: one mid-transfer drop repaired by a single
//! fast retransmission (~1 RTT, no RTO), and a two-segment burst whose
//! holes SACK + NewReno partial ACKs fill without the timer. Both run
//! under the full per-tick oracle set on the ILP and non-ILP paths,
//! check the observed ≡ unobserved twins, and print a pasteable
//! `#[test]`.
//!
//! `--teardown` runs the connection-lifecycle sweep: the six pinned
//! teardown worlds (clean close, simultaneous close, half-closed drain,
//! lost FIN, RST storm, stale data after FIN), then 200 seeded
//! teardown-under-fault worlds, each under the legal-transition /
//! post-FIN-freeze / liveness oracles. On failure it shrinks the
//! spec and prints a pasteable `#[test]`; `--inject-fin-bug` arms the
//! accept-after-FIN mutation and demonstrates the sweep catching it.

use std::process::ExitCode;

use sim::recovery::{
    burst_drop, burst_drop_config, single_drop, single_drop_config, twins_agree, RecoveryOutcome,
};
use sim::{sweep, Mutant, Scenario, Spec, SweepOpts, TeardownSpec, PINNED_WORLDS};

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// Run one pinned recovery world on both paths plus its twin check,
/// print the recovery trace, and emit a pasteable `#[test]`.
fn replay_recovery(
    name: &str,
    world: fn(server::Path) -> Result<RecoveryOutcome, String>,
    config: fn() -> server::ServerConfig,
) -> ExitCode {
    use server::Path;
    for path in [Path::Ilp, Path::NonIlp] {
        match world(path) {
            Ok(out) => println!(
                "{name} ({path:?}): {} rounds, {} fast retransmits, {} RTO back-offs, \
                 {} SACKed bytes, {} oracle checks",
                out.report.rounds,
                out.fast_retransmits,
                out.rto_backoffs,
                out.sacked_bytes,
                out.checks
            ),
            Err(msg) => {
                println!("{name} ({path:?}) FAILED: {msg}");
                return ExitCode::FAILURE;
            }
        }
        if let Err(msg) = twins_agree(&config(), path) {
            println!("{name} ({path:?}) twin check FAILED: {msg}");
            return ExitCode::FAILURE;
        }
    }
    println!("observed ≡ unobserved twins agree on both paths\n");
    println!("paste to pin this behaviour:\n");
    println!("#[test]");
    println!("fn {name}_repro() {{");
    println!("    for path in [server::Path::Ilp, server::Path::NonIlp] {{");
    println!("        sim::recovery::{name}(path).unwrap_or_else(|e| panic!(\"{{e}}\"));");
    println!("        sim::recovery::twins_agree(&sim::recovery::{name}_config(), path)");
    println!("            .unwrap_or_else(|e| panic!(\"{{e}}\"));");
    println!("    }}");
    println!("}}");
    ExitCode::SUCCESS
}

/// Run a sweep — one seed, or the teardown block after its pinned
/// worlds — and print what CI would: the totals, or the failure, the
/// shrunk spec and its pasteable `#[test]`.
fn replay<S: Spec>(opts: SweepOpts) -> ExitCode {
    if opts.mutant != Mutant::None {
        println!("{:?} mutant armed — the sweep must fail\n", opts.mutant);
    }
    let rep = sweep::<S>(&opts);
    let Some(f) = rep.failure else {
        println!(
            "every oracle held: {} worlds ({} seeded):\n{:#?}",
            rep.passed, rep.seeds_run, rep.totals
        );
        return ExitCode::SUCCESS;
    };
    println!("oracle failure: {}\n", f.message);
    match f.shrunk {
        None => println!("(a pinned world failed — it already is a committed test)"),
        Some(spec) => println!("minimal spec: {spec:?}\n\n{}", f.test_case),
    }
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut seed = 0x11F9_5007u64;
    let mut mutant = Mutant::None;
    let mut teardown = false;
    for a in std::env::args().skip(1) {
        match (a.as_str(), parse_u64(&a)) {
            ("--inject-ring-bug", _) => mutant = Mutant::RingWrap,
            ("--inject-fin-bug", _) => mutant = Mutant::AcceptAfterFin,
            ("--teardown", _) => {
                teardown = true;
                seed = 0x7EAF_0000;
            }
            ("--fast-retransmit", _) => {
                return replay_recovery("single_drop", single_drop, single_drop_config);
            }
            ("--sack-holes", _) => {
                return replay_recovery("burst_drop", burst_drop, burst_drop_config);
            }
            (_, Some(s)) => seed = s,
            _ => {
                eprintln!(
                    "usage: dst_repro [SEED] [--inject-ring-bug | --fast-retransmit | \
                     --sack-holes | --teardown [SEED] [--inject-fin-bug]]"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    let opts = SweepOpts { base_seed: seed, seeds: 1, mutant, prelude: &[] };
    if teardown {
        return replay::<TeardownSpec>(SweepOpts { seeds: 200, prelude: &PINNED_WORLDS, ..opts });
    }
    println!("seed {seed:#x} denotes:\n{:#?}\n", Scenario::from_seed(seed));
    replay::<Scenario>(opts)
}
