#!/usr/bin/env bash
# Tier-1 gate, fully offline (no registry dependencies). What a report
# must contain is stated in crates/bench/src/table.rs, not here.
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

echo "== stated once: no foo/foo_obs twins, one bench binary, no report schema in this script =="
if grep -rnE 'fn [a-z_]+_(obs|observed)\b' crates/ \
    || [ -e crates/bench/src/bin ] || grep -n '^\[\[bin\]\]' crates/bench/Cargo.toml \
    || grep -nE '[a-z0-9_.]+:(str|num|arr|obj|bool)\b' "$0"; then
    echo "one entry point per operation, one bench binary (src/main.rs), report shapes in its table"
    exit 1
fi

# A scheduling round scans once: the harness maintains its ready set,
# the schedulers rotate it. The scan, clone and sort they replaced live
# on as references in sched.rs's test module only.
if sed '/#\[cfg(test)\]/,$d' crates/server/src/sched.rs | grep -nE 'min_by_key|to_vec\(\)|sort_by_key' \
    || sed -n '/fn drive_sends/,/fn drive_receives/p' crates/server/src/harness/round.rs | grep -n '\.collect()'; then
    echo "no per-pick scan, clone or sort in server::sched; drive_sends builds no collection"
    exit 1
fi

# One path enum (obs::PathLabel; `Path` is its re-export), one place a
# path turns into one of the four data-path calls, one init hook (on
# CipherKernel). (No server source file outgrowing its part, `sim`
# saying each oracle once, Loopback's datagram API and its context-switch
# walk are rows of tests/structure.rs.)
if [ "$(grep -rnE -B4 '^\s*NonIlp(,| =>)' crates/ examples/ --include='*.rs' | grep -c 'enum ')" -ne 1 ] \
    || grep -rnE 'Path::Ilp => .*(send|recv)_(chunk|reply)_ilp' crates/ examples/ --include='*.rs' \
        | grep -v '^crates/rpcapp/src/paths.rs:' \
    || grep -rnE 'trait (SuiteInit|WorldInit)\b' crates/ examples/; then
    echo "one Ilp/NonIlp enum; Path dispatch only in rpcapp::paths; no SuiteInit/WorldInit"
    exit 1
fi
# A receiver ACKs a drained burst once and a socket backend serves its
# queue before its socket: one ACK site on the accept path, one place
# that reads the socket.
if [ "$(sed -n '/SegEv::Accept/,/^    }/p' crates/utcp/src/conn/recv.rs | grep -c 'send_ack(')" -ne 1 ] \
    || [ "$(grep -c 'socket\.recv_from' crates/netback/src/udp.rs)" -ne 1 ]; then
    echo "finish_recv ACKs an accept at one site; UdpBackend reads its socket at one site"
    exit 1
fi
# The simplified-SAFER unit kernels address key and scratch as base +
# constant and touch memory in bursts: no per-byte region check, no
# per-byte access. And a kernel names no `Mem` implementation — the
# burst operations' overrides in memsim::mem are the only code that
# knows which memory it runs on.
if sed '/#\[cfg(test)\]/,$d' crates/cipher/src/simplified.rs \
        | sed -n '/fn encrypt_unit/,/fn init_world/p' | grep -nE '\.at\(|read_u8\(|write_u8\('; then
    echo "SimplifiedSafer::{encrypt_unit, decrypt_unit}: no Region::at, read_u8 or write_u8 per byte"
    exit 1
fi
for f in crates/cipher/src/*.rs crates/core/src/*.rs crates/xdr/src/stream.rs crates/utcp/src/ring.rs crates/rpcapp/src/{msg,trailer,paths}.rs; do
    if sed '/#\[cfg(test)\]/,$d' "$f" | grep -nE '\b(NativeMem|SimMem)\b'; then
        echo "$f: a kernel, source, stage or sink is written against Mem, not against one memory"
        exit 1
    fi
done
# A unit is stored one way and pulled whole: the store grain turns into
# `Mem` accesses in `ilp_core::store_words` alone (every sink stores through
# `store_unit`), and the fused loop asks its source for units, not words.
data_path=$(for f in $(find crates/core/src crates/utcp/src crates/rpcapp/src -name '*.rs'); do sed '/#\[cfg(test)\]/,$d' "$f"; done)
if [ "$(grep -c 'StoreGrain::Byte =>' <<<"$data_path")" -ne 1 ] \
    || sed -n '/^fn run_units/,/^}/p' crates/core/src/pipeline.rs | grep -n 'next_word('; then
    echo "one StoreGrain::Byte => (ilp_core::store_words); run_units pulls units with next_unit"
    exit 1
fi
# `rpcapp` says what a reply is once: one word view and one unmarshal
# sink, generic over where the length field sits; one fused send and one
# fused receive (the staging rule is chosen there and nowhere else); one
# spelling of each clause of the admission rule; and no trait method
# whose body says it must not be called.
rpc=$(for f in crates/rpcapp/src/*.rs; do sed '/#\[cfg(test)\]/,$d' "$f"; done)
if [ "$(grep -cE '^impl.* UnitSink<M> for ' <<<"$rpc")" -ne 1 ] \
    || [ "$(grep -cE '^impl.* WordSource<M> for ' <<<"$rpc")" -ne 1 ] \
    || [ "$(grep -c 'ilp_run(' <<<"$rpc")" -ne 2 ] \
    || [ "$(grep -cE '(>|<=) *(d\.)?payload_len' <<<"$rpc")" -ne 1 ] \
    || [ "$(grep -cE 'payload_len % C::UNIT' <<<"$rpc")" -ne 1 ] \
    || [ "$(grep -c 'fn resolve(' <<<"$rpc")" -ne 1 ] \
    || grep -n 'unreachable!' <<<"$rpc"; then
    echo "rpcapp: one UnitSink impl, one WordSource impl, ilp_run( in fused_send and fused_recv only, each admission clause spelled once, no unreachable! trait method"
    exit 1
fi
# `obs` says each thing once: one bounded ring (the event trace and the
# flight recorders are aliases of it), one counters-plus-histograms
# tally, one Jain index; thresholds nobody sets are constants, and the
# lifecycle signal no observer received is gone with the observer
# parameters that fed it.
if [ "$(cat crates/obs/src/*.rs | grep -c 'fn overwritten')" -ne 1 ] \
    || [ "$(cat crates/obs/src/*.rs | grep -cE 'fn merge_from\(&mut self, other: &(Ring|TraceRing|FlightRing)\b')" -ne 1 ] \
    || grep -rnE 'AtomicU64|ConnState|HealthConfig|fn lifecycle' crates/ examples/ \
    || grep -n 'fn tag(' crates/utcp/src/conn/lifecycle.rs \
    || [ "$(grep -rn 'fn jain' crates/ | wc -l)" -gt 1 ]; then
    echo "obs: one ring, one tally, one fn jain; no AtomicU64, ConnState, HealthConfig, lifecycle hook or State::tag"
    exit 1
fi
# Each label set is declared once (`labels!` derives ALL, index() and
# name() from the one list): inside an enum's declaration and its own
# impl, every variant is named on exactly one line. `SegEv` is exempt —
# its names depend on the payload (12 names for 8 variants), so its
# name() is a function, not a second list.
for f in span health segtrace; do
    src=$(sed '/#\[cfg(test)\]/,$d' "crates/obs/src/$f.rs")
    for e in $(grep -oE '\benum [A-Z][A-Za-z]*' <<<"$src" | cut -d' ' -f2); do
        own=$(awk "/enum $e \{/,/^(    )?\}/" <<<"$src"; awk "/^impl $e \{/,/^\}/" <<<"$src")
        if [ "$e" = SegEv ] || ! grep -qE 'fn name\(|=> "' <<<"$own"; then
            continue
        fi
        for v in $(awk "/enum $e \{/,/^(    )?\}/" <<<"$src" | grep -oE '^\s+[A-Z][A-Za-z0-9]*\s*(=>|,|\(|\{)' | grep -oE '[A-Za-z0-9]+'); do
            if [ "$(grep -cE "^\s*(($e|Self)::)?$v\b" <<<"$own")" -ne 1 ]; then
                echo "crates/obs/src/$f.rs: $e::$v is listed more than once — declare the set through labels!"
                exit 1
            fi
        done
    done
done

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
