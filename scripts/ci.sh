#!/usr/bin/env bash
# Tier-1 gate, fully offline (no registry dependencies). A report's shape is stated in the bench crate's table;
# a structure check is a row of tests/structure.rs; this script holds only what needs a built binary, a socket or the benchmark.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release, offline) =="
cargo build --release --offline

echo "== frozen consumer: the benchmark must compile against the public API, unchanged =="
cargo build --release --offline --manifest-path benchmark/Cargo.toml

# One 3 s run of a benchmark workload: every delivered byte compared,
# no failed operation, no validity guard tripped.
verified_run() {
    local out
    out=$(./benchmark/target/release/ilpbench --workload "$1" --seconds 3 --trace 0)
    if grep -q INVALID <<<"$out" || ! grep -qx 'ops_failed 0' <<<"$out"; then
        tail -n 20 <<<"$out"
        echo "ilpbench $1: failed operations or an INVALID run"
        exit 1
    fi
}

echo "== native path: every delivered byte verified through both stacks — fault-free, under faults, and 1024 connections in handshake/teardown waves =="
for workload in bulk lossy fanin; do
    verified_run "$workload"
done
# cargo re-resolves the benchmark's lock when a workspace crate's
# dependency list moved; nothing under benchmark/ is this script's to change.
git checkout -q -- benchmark/Cargo.lock 2>/dev/null || true

echo "== fused stays fused: no out-of-line word source, unit source, stage, sink, unit store, Mem word burst, native copy, working-set walk or SimplifiedSafer unit kernel in the native binary =="
if command -v objdump >/dev/null; then
    # (`! pipeline` would not trip `set -e`; hence `if …; then exit 1`.)
    # A `memmove` call inside a native copy is fine; a copy symbol is not.
    if objdump -d -C benchmark/target/release/ilpbench \
        | grep -E '^[0-9a-f]+ <.* as (xdr::stream::WordSource<M>>::next_word|ilp_core::stage::UnitStage<M>>::process|ilp_core::pipeline::UnitSink<M>>::store)>:|^[0-9a-f]+ <.*SimplifiedSafer.*::(en|de)crypt_unit>:|^[0-9a-f]+ <.*::(next_unit|unit_by_words|store_unit|store_words|read_words_be|write_words_be|write_words_as_bytes|foreign_working_set)>:|^[0-9a-f]+ <.*NativeMem.*::copy>:'; then
        echo "the fused loops and the kernel parts call the symbols above once per word, unit or datagram"
        exit 1
    fi
else
    echo "objdump not on PATH; skipping the symbol check"
fi

echo "== tests =="
cargo test -q --offline

echo "== tests (release: debug_assert-free ring arithmetic, real thread timing) =="
cargo test --release -q --offline

echo "== clippy (warnings are errors) =="
cargo clippy --offline --all-targets -- -D warnings

echo "== clippy: netback with the TUN backend compiled in =="
cargo clippy --offline -p netback --features tun --all-targets -- -D warnings

echo "== tests: netback with the TUN backend (device tests skip without /dev/net/tun) =="
cargo test -q --offline -p netback --features tun

echo "== docs: no broken intra-doc links =="
RUSTDOCFLAGS="-D rustdoc::broken-intra-doc-links" cargo doc --offline --no-deps --workspace -q

echo "== observability: the observed server writes the report the observe row gates =="
cargo run -q --release --offline --example observe

echo "== wire: two-process transfer over real UDP sockets =="
cargo build -q --release --offline --example serve_udp
if ./target/release/examples/serve_udp probe; then
    # Hard timeout: a wedged socket path must fail CI, not hang it.
    timeout 120 ./target/release/examples/serve_udp selftest
    # Churn: three connect→transfer→close waves per path, each running the
    # full FIN/ACK handshake and draining TIME_WAIT before the port is reused.
    timeout 120 ./target/release/examples/serve_udp selftest --waves 3 --bytes 8192
    # The benchmark's socket workload, held to the same standard as the
    # three loop-back ones above.
    verified_run udp_small
else
    echo "UDP sockets unavailable in this environment; skipping the socket smoke test and ilpbench udp_small"
fi

echo "== doctor: render the diagnostic bundle end-to-end (artifacts under target/) =="
cargo run -q --release --offline --example doctor > /dev/null

echo "== experiments: run every reporting row, gate each report against baselines/ =="
cargo run -q --release --offline -p bench -- ci

echo "CI green."
