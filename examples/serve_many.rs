//! Serving many connections at once: eight clients, one server, one
//! shared kernel part, on a simulated SPARCstation 10-30.
//!
//! The paper measures ILP over a single loop-back connection pair. This
//! example runs the multi-connection server from `crates/server`: eight
//! concurrent file transfers demultiplexed through one kernel part,
//! each with its own user-level TCP state and its own fused pipeline
//! instance, under two schedulers — equal-turn round-robin and
//! deficit-weighted round-robin where connection 0 carries weight 4 and
//! connections 1–2 weight 2.
//!
//! ```bash
//! cargo run --release --example serve_many
//! ```

use ilp_repro::memsim::{AddressSpace, HostModel, SimMem};
use ilp_repro::server::{
    DeficitRoundRobin, Path, RoundRobin, ScaleHarness, Scheduler, ServerConfig,
};

const N: usize = 8;
const FILE_LEN: usize = 4 * 1024;
const CHUNK: usize = 1024;

fn config(weights: Vec<u32>) -> ServerConfig {
    ServerConfig { n_conns: N, file_len: FILE_LEN, chunk: CHUNK, weights, ..Default::default() }
}

fn run(path: Path, cfg: ServerConfig, sched: &mut dyn Scheduler) {
    let mut space = AddressSpace::new();
    let mut h = ScaleHarness::simplified(&mut space, cfg);
    let host = HostModel::ss10_30();
    let mut m = SimMem::new(&space, &host);
    h.init_world(&mut m);
    let _ = m.take_phase_stats(); // drop setup traffic

    let report = h.run(&mut m, sched, path);
    let (user, system) = m.take_phase_stats();
    assert_eq!(h.verify_outputs(&mut m), None, "every client must get its own file");

    let chunks: u64 = report.per_conn.iter().map(|p| p.chunks).sum();
    let per_chunk_overhead_us =
        2.0 * host.per_packet_user_us + 2.0 * host.syscall_us + host.driver_us;
    let total_us = host.cost(&user).total_us
        + host.cost(&system).total_us
        + chunks as f64 * per_chunk_overhead_us;
    let mbps = report.payload_bytes as f64 * 8.0 / total_us;

    println!("{path:?} / {}:", report.scheduler);
    println!(
        "  {} connections, {} payload bytes in {} rounds — {mbps:.1} Mbps aggregate",
        N, report.payload_bytes, report.rounds
    );
    println!(
        "  fairness (weight-normalised, at first completion): {:.3}",
        report.fairness
    );
    println!(
        "  L1d miss ratio {:.1}%, {} accesses served by memory",
        100.0 * user.l1d_miss_ratio(),
        user.memory_accesses
    );
    let shares: Vec<u64> = report.per_conn.iter().map(|p| p.payload_bytes).collect();
    println!("  per-connection bytes: {shares:?}\n");
}

fn main() {
    println!(
        "{N} concurrent transfers of a {FILE_LEN}-byte file, {CHUNK}-byte chunks,\n\
         one shared kernel part, simulated SS10-30\n"
    );
    for path in [Path::NonIlp, Path::Ilp] {
        run(path, config(Vec::new()), &mut RoundRobin::new());
    }
    let cfg = config(vec![4, 2, 2, 1, 1, 1, 1, 1]);
    let mut drr = DeficitRoundRobin::for_config(&cfg, CHUNK as u32);
    run(Path::Ilp, cfg, &mut drr);
    println!(
        "(round-robin splits bytes evenly; the weighted run skews early\n\
         service toward connection 0 while every transfer still completes)"
    );
}
