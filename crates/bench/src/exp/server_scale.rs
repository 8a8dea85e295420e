//! Server scale — aggregate throughput and cache behaviour of the
//! multi-connection server, 1 → 1024 concurrent connections, ILP vs
//! non-ILP, on a simulated SS10-30.
//!
//! The paper's single-pair experiments keep one connection's working
//! set (ring, TCB, staging buffers) warm in the cache. A server
//! interleaves N working sets, so each connection's state is partially
//! evicted between its packets. This experiment asks whether ILP's
//! fewer-passes advantage survives that cross-connection cache
//! pollution — and how aggregate throughput and fairness behave as the
//! connection count grows three orders of magnitude.
//!
//! Total offered load is held near [`TOTAL_PAYLOAD`] by shrinking the
//! per-connection file as N grows, so rows are comparable and the sweep
//! stays tractable under cache simulation.
//!
//! Besides the tables, the run attaches an [`obs::Recorder`] to every
//! point and reports per-path throughput, per-stage work shares, and
//! user-phase cache statistics. The recorder issues no [`memsim::Mem`]
//! accesses, so the simulated numbers are bit-identical to an
//! unobserved run. (Chunk latency is not reported here: one harness
//! round is one tick, so in a fault-free world send → accept is 0 ticks
//! at every scale point; the `observe` row, where faults make it real,
//! gates it.)

use crate::report::{banner, Table};
use memsim::layout::AddressSpace;
use memsim::{HostModel, SimMem};
use obs::{Json, Recorder, Stage};
use server::{Path, RoundRobin, ScaleHarness, ServerConfig};

/// Approximate payload carried per run, split across connections.
const TOTAL_PAYLOAD: usize = 256 * 1024;
const CHUNK: usize = 1024;

struct Point {
    payload: u64,
    rounds: u64,
    mbps: f64,
    fairness: f64,
    l1d_miss: f64,
    mem_accesses: u64,
    stage_shares: [f64; 3],
    retransmits: u64,
    rejected: u64,
}

fn run_point(n: usize, path: Path, host: &HostModel) -> Point {
    let file_len = (TOTAL_PAYLOAD / n).clamp(CHUNK, 64 * 1024);
    let cfg = ServerConfig {
        n_conns: n,
        file_len,
        chunk: CHUNK,
        ..Default::default()
    };
    let mut space = AddressSpace::new();
    let mut h = ScaleHarness::simplified(&mut space, cfg);
    let mut m = SimMem::new(&space, host);
    h.init_world(&mut m);
    let _ = m.take_phase_stats(); // drop setup traffic

    let mut sched = RoundRobin::new();
    let mut rec = Recorder::new(4096);
    let report = h.run(&mut m, &mut sched, (path, &mut rec));
    let (user, system) = m.take_phase_stats();
    assert_eq!(
        h.verify_outputs(&mut m),
        None,
        "cross-connection corruption at n={n} ({path:?})"
    );

    // Price the run like `bench::measure` prices the single pair: the
    // simulated memory cost of both phases plus the fixed per-packet
    // charges (user overhead on each side, two syscalls, the loop-back
    // driver) once per delivered chunk.
    let chunks: u64 = report.per_conn.iter().map(|p| p.chunks).sum();
    let per_chunk_us = 2.0 * host.per_packet_user_us + 2.0 * host.syscall_us + host.driver_us;
    let total_us = host.cost(&user).total_us
        + host.cost(&system).total_us
        + chunks as f64 * per_chunk_us;

    Point {
        payload: report.payload_bytes,
        rounds: report.rounds,
        mbps: report.payload_bytes as f64 * 8.0 / total_us,
        fairness: report.fairness,
        l1d_miss: 100.0 * user.l1d_miss_ratio(),
        mem_accesses: user.memory_accesses,
        stage_shares: [
            rec.stage_share(path, Stage::Initial),
            rec.stage_share(path, Stage::Integrated),
            rec.stage_share(path, Stage::Final),
        ],
        retransmits: report.retransmits,
        rejected: report.rejected,
    }
}

/// One path's slice of a sweep point, as a JSON object.
fn path_json(p: &Point) -> Json {
    Json::obj()
        .set("mbps", Json::F64(p.mbps))
        .set("payload_bytes", Json::U64(p.payload))
        .set("rounds", Json::U64(p.rounds))
        .set("fairness", Json::F64(p.fairness))
        .set(
            "stage_shares",
            Json::obj()
                .set("initial", Json::F64(p.stage_shares[0]))
                .set("integrated", Json::F64(p.stage_shares[1]))
                .set("final", Json::F64(p.stage_shares[2])),
        )
        .set(
            "cache",
            Json::obj()
                .set("l1d_miss_pct", Json::F64(p.l1d_miss))
                .set("mem_accesses", Json::U64(p.mem_accesses)),
        )
        .set("retransmits", Json::U64(p.retransmits))
        .set("rejected", Json::U64(p.rejected))
}

/// Run the connection sweep.
pub fn run(_: &[String]) -> Result<Option<Json>, String> {
    banner("Server scale", "aggregate throughput, 1-1024 connections");
    let host = HostModel::ss10_30();
    let counts = [1usize, 4, 16, 64, 256, 1024];

    let mut tput = Table::new(vec![
        "conns", "kB total", "nonILP Mbps", "ILP Mbps", "gain %", "nonILP fair", "ILP fair",
        "rounds",
    ]);
    let mut cache = Table::new(vec![
        "conns", "nonILP L1d miss%", "ILP L1d miss%", "nonILP mem acc", "ILP mem acc",
    ]);
    let mut stages = Table::new(vec!["conns", "ILP init%", "ILP integ%", "ILP final%"]);
    let mut points = Vec::new();
    for &n in &counts {
        let non = run_point(n, Path::NonIlp, &host);
        let ilp = run_point(n, Path::Ilp, &host);
        let gain = 100.0 * (ilp.mbps - non.mbps) / non.mbps;
        tput.row(vec![
            n.to_string(),
            format!("{}", ilp.payload / 1024),
            format!("{:.1}", non.mbps),
            format!("{:.1}", ilp.mbps),
            format!("{gain:+.0}"),
            format!("{:.3}", non.fairness),
            format!("{:.3}", ilp.fairness),
            ilp.rounds.to_string(),
        ]);
        cache.row(vec![
            n.to_string(),
            format!("{:.1}", non.l1d_miss),
            format!("{:.1}", ilp.l1d_miss),
            non.mem_accesses.to_string(),
            ilp.mem_accesses.to_string(),
        ]);
        stages.row(vec![
            n.to_string(),
            format!("{:.0}", 100.0 * ilp.stage_shares[0]),
            format!("{:.0}", 100.0 * ilp.stage_shares[1]),
            format!("{:.0}", 100.0 * ilp.stage_shares[2]),
        ]);
        points.push(
            Json::obj()
                .set("conns", Json::U64(n as u64))
                .set("gain_pct", Json::F64(gain))
                .set(
                    "paths",
                    Json::obj()
                        .set("non_ilp", path_json(&non))
                        .set("ilp", path_json(&ilp)),
                ),
        );
    }
    tput.print();
    println!("\nUser-phase cache behaviour (SS10-30, 16 kB direct-mapped L1):");
    cache.print();
    println!("\nILP stage shares:");
    stages.print();
    println!(
        "\n(total offered load held near {} kB by shrinking per-connection\n\
         files as N grows; fairness is Jain's index over per-connection\n\
         bytes at the first completion, round-robin scheduling)",
        TOTAL_PAYLOAD / 1024
    );

    Ok(Some(Json::obj()
        .set("experiment", Json::Str("server_scale".into()))
        .set("host", Json::Str("ss10_30".into()))
        .set("total_payload_kb", Json::U64((TOTAL_PAYLOAD / 1024) as u64))
        .set("chunk_bytes", Json::U64(CHUNK as u64))
        .set("scheduler", Json::Str("round-robin".into()))
        .set("points", Json::Arr(points))
        .set(
            "tables",
            Json::obj()
                .set("throughput", tput.to_json())
                .set("cache", cache.to_json())
                .set("stages", stages.to_json()),
        )))
}
