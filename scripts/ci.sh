#!/usr/bin/env bash
# Tier-1 gate: everything must pass offline — the workspace carries no
# registry dependencies (criterion/proptest live behind off-by-default
# features precisely so this script works on an air-gapped machine).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release, offline) =="
cargo build --release --offline

echo "== frozen consumer: the benchmark must compile against the public API, unchanged =="
cargo build --release --offline --manifest-path benchmark/Cargo.toml

echo "== native path: every delivered byte verified through both stacks, fault-free and under faults =="
for workload in bulk lossy; do
    out=$(./benchmark/target/release/ilpbench --workload "$workload" --seconds 3 --trace 0)
    if grep -q INVALID <<<"$out" || ! grep -qx 'ops_failed 0' <<<"$out"; then
        tail -n 20 <<<"$out"
        echo "ilpbench $workload: failed operations or an INVALID run"
        exit 1
    fi
done
# cargo re-resolves the benchmark's lock when a workspace crate's
# dependency list moved; nothing under benchmark/ is this script's to change.
git checkout -q -- benchmark/Cargo.lock 2>/dev/null || true

echo "== fused stays fused: no out-of-line word source, stage or sink in the native binary =="
if command -v objdump >/dev/null; then
    # (`! pipeline` would not trip `set -e`.)
    if objdump -d -C benchmark/target/release/ilpbench \
        | grep -E '^[0-9a-f]+ <.* as (xdr::stream::WordSource<M>>::next_word|ilp_core::stage::UnitStage<M>>::process|ilp_core::pipeline::UnitSink<M>>::store)>:'; then
        echo "the fused loops call the symbols above once per word or unit"
        exit 1
    fi
else
    echo "objdump not on PATH; skipping the symbol check"
fi

echo "== one call shape: no foo/foo_obs twins =="
! grep -rnE 'fn [a-z_]+_(obs|observed)\b' crates/

echo "== tests =="
cargo test -q --offline

echo "== tests (release: debug_assert-free ring arithmetic, real thread timing) =="
cargo test --release -q --offline

echo "== clippy (warnings are errors) =="
cargo clippy --offline --all-targets -- -D warnings

echo "== clippy: netback with the TUN backend compiled in =="
cargo clippy --offline -p netback --features tun --all-targets -- -D warnings

echo "== observability: run the observed server and schema-check its report =="
cargo run -q --release --offline --example observe
cargo run -q --release --offline -p bench --bin check_report -- BENCH_observe.json \
    experiment:str conns:num file_len:num \
    ilp:obj ilp.counters:obj ilp.counters.chunks_delivered:num \
    ilp.metrics.chunk_latency_ticks.p50:num ilp.metrics.chunk_latency_ticks.p99:num \
    ilp.work:obj ilp.trace.events:arr ilp.trace.events.0.tick:num \
    ilp.series.window_ticks:num ilp.series.windows:arr \
    ilp.series.windows.0.chunks_sent:num \
    ilp.backend.sent:num ilp.backend.queue_peak:num \
    non_ilp.counters.reject_checksum:num

echo "== sharding: run the shard sweep and schema-check its report =="
cargo run -q --release --offline -p bench --bin exp_shard_scale
cargo run -q --release --offline -p bench --bin check_report -- BENCH_shard_scale.json \
    experiment:str host_threads:num reps:num points:arr \
    points.0.conns:num points.0.shards:num points.0.payload_bytes:num \
    points.0.wall_us:num points.0.mbps:num points.0.speedup_vs_1shard:num \
    points.0.max_shard_rounds:num points.0.per_shard_rounds:arr \
    table:obj

echo "== server scale: run the connection sweep and schema-check its report =="
cargo run -q --release --offline -p bench --bin exp_server_scale
cargo run -q --release --offline -p bench --bin check_report -- BENCH_server_scale.json \
    experiment:str points:arr points.0.conns:num \
    points.0.paths.ilp.mbps:num points.0.paths.ilp.rounds:num \
    points.0.paths.ilp.cache.mem_accesses:num

echo "== deterministic simulation: fixed-seed sweep with cross-layer oracles, schema-check its report =="
cargo run -q --release --offline -p bench --bin exp_dst
cargo run -q --release --offline -p bench --bin check_report -- BENCH_dst.json \
    experiment:str base_seed:num seeds:num passed:num kind_counts:arr \
    kind_counts.0:num faults:obj faults.dropped:num faults.duplicated:num \
    faults.reordered:num faults.corrupted:num faults.delayed:num \
    oracle_checks:num rounds:num payload_bytes:num retransmits:num \
    wall_us:num seeds_per_sec:num

echo "== wire: two-process transfer over real UDP sockets + wall-clock benchmark =="
cargo build -q --release --offline --example serve_udp
if ./target/release/examples/serve_udp probe; then
    # Hard timeout: a wedged socket path must fail CI, not hang it.
    timeout 120 ./target/release/examples/serve_udp selftest
    # Churn: three connect→transfer→close waves per path over the same
    # two processes — every wave runs the full FIN/ACK handshake and
    # drains TIME_WAIT before the port is re-registered.
    timeout 120 ./target/release/examples/serve_udp selftest --waves 3 --bytes 8192
else
    echo "UDP sockets unavailable in this environment; skipping the socket smoke test"
fi
# exp_wire degrades on its own: without sockets it writes skipped=true.
cargo run -q --release --offline -p bench --bin exp_wire
cargo run -q --release --offline -p bench --bin check_report -- BENCH_wire.json \
    experiment:str payload_bytes:num reps:num \
    ilp.wall_us:num ilp.mbps:num non_ilp.wall_us:num non_ilp.mbps:num \
    ilp.backend.sent:num ilp.backend.would_block:num ilp.backend.codec_rejects:num \
    non_ilp.backend.sent:num \
    identical:bool skipped:bool

echo "== health engine: pinned trigger matrix, no-false-positive sweep, hot-path identity =="
cargo run -q --release --offline -p bench --bin exp_health
cargo run -q --release --offline -p bench --bin check_report -- BENCH_health.json \
    experiment:str triggers:obj \
    triggers.storm.verdicts:num triggers.storm.pass:bool \
    triggers.blackout.verdicts:num triggers.blackout.pass:bool \
    triggers.saturation.verdicts:num triggers.saturation.pass:bool \
    triggers.fairness.verdicts:num triggers.fairness.pass:bool \
    clean.base_seed:num clean.seeds:num clean.checks:num clean.false_positives:num \
    overhead.hot_path_identical:bool overhead.analyze_wall_us:num

echo "== loss recovery: goodput-vs-loss curve, fast retransmit vs RTO-only baseline =="
cargo run -q --release --offline -p bench --bin exp_loss
cargo run -q --release --offline -p bench --bin check_report -- BENCH_loss.json \
    experiment:str seed:num file_len:num points:arr \
    points.0.loss_pct:num points.0.drop_prob:num points.0.paths_agree:bool \
    points.0.paths.ilp.rounds:num points.0.paths.ilp.fast_retransmits:num \
    points.0.paths.ilp.rto_backoffs:num points.0.paths.ilp.sacked_bytes:num \
    points.0.paths.ilp.goodput_bytes_per_round:num \
    points.3.paths.non_ilp.rounds:num \
    baseline_1pct.rto_only_rounds:num baseline_1pct.recovery_rounds:num \
    baseline_1pct.recovery_beats_rto_only:bool

echo "== churn: lifecycle waves (connect→transfer→close) + teardown sweep, schema-check its report =="
cargo run -q --release --offline -p bench --bin exp_churn
cargo run -q --release --offline -p bench --bin check_report -- BENCH_churn.json \
    experiment:str seed:num waves:num conns:num file_len:num drop_prob:num \
    paths.ilp.closes_completed:num paths.ilp.time_wait_ticks:num \
    paths.ilp.ports_recycled:num paths.ilp.rounds_to_quiescence:num \
    paths.ilp.rounds_total:num paths.ilp.payload_bytes:num \
    paths.ilp.retransmits:num paths.ilp.oracle_checks:num \
    paths.ilp.closes_per_kround:num paths.non_ilp.closes_completed:num \
    paths_agree:bool \
    teardown_sweep.base_seed:num teardown_sweep.seeds:num \
    teardown_sweep.passed:num teardown_sweep.oracle_checks:num \
    teardown_sweep.all_green:bool

echo "== segment tracing: critical-path decomposition, determinism, zero perturbation =="
cargo run -q --release --offline -p bench --bin exp_segtrace
cargo run -q --release --offline -p bench --bin check_report -- BENCH_trace.json \
    experiment:str conns:num file_len:num trace_every:num \
    ilp.traces:num ilp.origin_sampled:num ilp.origin_promoted:num ilp.origin_wire:num \
    ilp.no_orphans:bool ilp.decomposition_exact:bool ilp.latency_matches_histogram:bool \
    ilp.components.completed:num ilp.components.queueing:num ilp.components.recovery:num \
    ilp.components.propagation:num ilp.components.processing:num ilp.components.total:num \
    non_ilp.decomposition_exact:bool non_ilp.components.total:num \
    sampled.origin_sampled:num sampled.origin_promoted:num sampled.decomposition_exact:bool \
    deterministic:bool unperturbed:bool

echo "== doctor: render the diagnostic bundle end-to-end (artifacts under target/) =="
cargo run -q --release --offline --example doctor > /dev/null

echo "== perf gate: fresh reports vs committed baselines (all metrics virtual-clock-deterministic) =="
cargo run -q --release --offline -p bench --bin perf_gate

echo "CI green."
