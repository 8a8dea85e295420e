//! Shard scale — wall-clock aggregate throughput of the sharded
//! multi-threaded server, shards × connections, on the native memory
//! world.
//!
//! The other server experiment (`exp_server_scale`) prices runs on a
//! *simulated* 1995 host; this one measures what the ROADMAP's "as fast
//! as the hardware allows" goal actually needs: real wall-clock time of
//! the parallel section (world construction → join → verification) as
//! the same connection population is split over 1 → 8 OS threads.
//! What can show is genuine core parallelism, on hosts that have it
//! (recorded as `host_threads` in the report so a single-core CI box is
//! not read as a multi-core result). On one core there is nothing for
//! sharding to win: a scheduling round scans its connections once
//! whatever their number, so `S` shards of `n/S` do the work of one
//! shard of `n`.
//!
//! Every point takes the best of [`REPS`] repetitions (minimum wall
//! time — the usual benchmarking estimator for a noisy shared host) and
//! cross-checks that payload, per-connection stats, and merged counters
//! are independent of the shard count.

use crate::report::{banner, Table};
use obs::{Counter, Json};
use server::harness::{Path, ServerConfig};
use server::shard::{run_sharded, SchedPolicy, ShardedReport};

/// Per-connection file length (bytes).
const FILE_LEN: usize = 8 * 1024;
/// Reply chunk payload (bytes).
const CHUNK: usize = 1024;
/// Repetitions per point; the minimum wall time is reported.
const REPS: usize = 5;
/// Trace ring capacity per shard recorder (kept small: the JSON report
/// embeds the merged trace).
const TRACE_CAP: usize = 64;

struct Point {
    conns: usize,
    shards: usize,
    payload: u64,
    wall_us: u64,
    mbps: f64,
    max_rounds: u64,
    retransmits: u64,
    per_shard_rounds: Vec<u64>,
}

fn run_point(conns: usize, shards: usize) -> Point {
    let cfg = ServerConfig {
        n_conns: conns,
        file_len: FILE_LEN,
        chunk: CHUNK,
        ..Default::default()
    };
    let mut best: Option<ShardedReport> = None;
    for _ in 0..REPS {
        let r = run_sharded(&cfg, shards, Path::Ilp, SchedPolicy::RoundRobin, TRACE_CAP);
        assert_eq!(
            r.payload_bytes(),
            (conns * FILE_LEN) as u64,
            "every byte delivered at conns={conns} shards={shards}"
        );
        assert_eq!(r.corrupted_conn(), None, "sharding must not corrupt outputs");
        if best.as_ref().is_none_or(|b| r.wall < b.wall) {
            best = Some(r);
        }
    }
    let r = best.expect("REPS >= 1");
    let wall_us = (r.wall.as_micros() as u64).max(1);
    Point {
        conns,
        shards,
        payload: r.payload_bytes(),
        wall_us,
        mbps: r.payload_bytes() as f64 * 8.0 / wall_us as f64,
        max_rounds: r.max_rounds(),
        retransmits: r.merged.counter(Counter::Retransmits),
        per_shard_rounds: r.shards.iter().map(|s| s.report.rounds).collect(),
    }
}

/// Run the shards × connections sweep.
pub fn run(_: &[String]) -> Result<Option<Json>, String> {
    banner("Shard scale", "wall-clock throughput, shards x connections");
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("host threads available: {host_threads}\n");

    let conn_counts = [128usize, 256];
    let shard_counts = [1usize, 2, 4, 8];

    let mut table = Table::new(vec![
        "conns", "shards", "wall ms", "aggregate Mbps", "speedup vs 1", "max shard rounds",
    ]);
    let mut points = Vec::new();
    for &conns in &conn_counts {
        let mut base_mbps = 0.0f64;
        for &shards in &shard_counts {
            let p = run_point(conns, shards);
            if shards == 1 {
                base_mbps = p.mbps;
            }
            let speedup = p.mbps / base_mbps;
            table.row(vec![
                p.conns.to_string(),
                p.shards.to_string(),
                format!("{:.2}", p.wall_us as f64 / 1000.0),
                format!("{:.1}", p.mbps),
                format!("{speedup:.2}"),
                p.max_rounds.to_string(),
            ]);
            points.push(
                Json::obj()
                    .set("conns", Json::U64(p.conns as u64))
                    .set("shards", Json::U64(p.shards as u64))
                    .set("payload_bytes", Json::U64(p.payload))
                    .set("wall_us", Json::U64(p.wall_us))
                    .set("mbps", Json::F64(p.mbps))
                    .set("speedup_vs_1shard", Json::F64(speedup))
                    .set("max_shard_rounds", Json::U64(p.max_rounds))
                    .set("retransmits", Json::U64(p.retransmits))
                    .set(
                        "per_shard_rounds",
                        Json::Arr(p.per_shard_rounds.iter().map(|&r| Json::U64(r)).collect()),
                    ),
            );
        }
    }
    table.print();
    println!(
        "\n(native memory world, ILP path, round-robin per shard, best of\n\
         {REPS} reps; speedup is against the 1-shard run of the same\n\
         population — expect ~1.0x columns on a single-core host: a\n\
         round scans its connections once, so shards save no work)"
    );

    Ok(Some(Json::obj()
        .set("experiment", Json::Str("shard_scale".into()))
        .set("mem_world", Json::Str("native".into()))
        .set("host_threads", Json::U64(host_threads as u64))
        .set("file_len", Json::U64(FILE_LEN as u64))
        .set("chunk_bytes", Json::U64(CHUNK as u64))
        .set("reps", Json::U64(REPS as u64))
        .set("scheduler", Json::Str("round-robin".into()))
        .set("points", Json::Arr(points))
        .set("table", table.to_json())))
}
