//! Structure guards: what the tree says once, as counts over its source text that `cargo test`
//! enforces. Each row is (scope, pattern, expected count, reason). A scope reads non-test code
//! only: each file up to its first `#[cfg(test)]` line, and no test module (`tests.rs`,
//! `*_tests.rs`) of a directory. A row fails when a path of its scope holds no code or its `Body`
//! is absent or never closes — a moved or renamed item must not pass vacuously — or when the
//! count differs. A row expecting 0 names something deleted on purpose.

use std::fs;
use std::path::{Path, PathBuf};

/// Which lines a row reads.
enum Scope {
    /// These space-separated paths: files, or every `.rs` file under a directory.
    In(&'static str),
    /// One item of a file: from the first line containing the text to the
    /// first later line that is a `}` at that line's indentation.
    Body(&'static str, &'static str),
}
use Scope::{Body, In};

/// What a row counts in its scope.
#[derive(Debug)]
enum Pattern {
    /// Lines containing any `|`-separated part of this text, where a `*`
    /// in a part stands for any run of characters.
    Text(&'static str),
    /// Files longer than this many lines.
    FilesOver(usize),
}
use Pattern::{FilesOver, Text};

const LABELS: &str = "a label enum is declared through labels!, which writes its name() from the one list";
const SAFER: &str = "a SAFER unit kernel addresses key and scratch as base + constant, in bursts, never per byte";
const MEM: &str = "a kernel, source, stage or sink is written against Mem, not against one memory";
const ADMIT: &str = "each clause of the reply admission rule is spelled once";
const KERNEL: &str = "crates/utcp/src/kernelpart.rs crates/netback/src";

const ROWS: &[(Scope, Pattern, usize, &str)] = &[
    (In("crates/sim/src"), Text("fn advanced("), 1, "one wrapping-monotone helper, ConnOracle's"),
    (In("crates/sim/src"), Text("struct Snapshot"), 1, "one previous-value snapshot, ConnOracle's"),
    (In("crates/sim/src"), Text("Prev {"), 0, "Tracker's ConnPrev and PairTracker's Prev folded into Snapshot"),
    (In("crates/sim/src"), Text("fn check_one"), 0, "PairTracker::check_one folded into ConnOracle::check"),
    (In("crates/sim/src"), Text("ScaleHarness::simplified"), 1, "one world builder, World::with_slots"),
    (In("crates/sim/src"), Text("Recorder::with_series"), 1, "one recorder shape, world::recorder"),
    (In("crates/sim/src"), Text("diverge on {what}: {x} vs {y}"), 1, "one observed-vs-unobserved comparison"),
    (In("crates/sim/src"), Text("pub fn sweep"), 1, "one seeded pipeline, generic over the Spec"),
    (In("crates/sim/src"), Text("sweep_teardown"), 0, "the teardown sweep is sweep::<TeardownSpec>"),
    (In("crates/sim/src"), Text("pub enum Mutant"), 1, "one mutant selector"),
    (In("crates/sim/src"), Text("inject_fin_bug|inject_ring_bug|inject_bug"), 0, "a mutant is a Mutant, not a bool"),
    (In("crates/server/src"), FilesOver(500), 0, "no server file outgrows its part — cut it along a seam"),
    (In("crates/server/src/sched.rs"), Text("min_by_key|to_vec()|sort_by_key"), 0, "a round scans once"),
    (Body("crates/server/src/harness/round.rs", "fn drive_sends"), Text(".collect()"), 0, "no per-pick collection"),
    (In("crates/utcp/src/kernelpart.rs"), Text("pub fn send|pub fn register"), 0, "Loopback is a KernelPart"),
    (In("crates"), Text("struct Endpoint {"), 1, "one port demultiplexer, utcp::demux, serves every kernel part"),
    (In("crates/utcp/src"), Text("step_by(64)"), 0, "the context-switch walk is Mem::foreign_working_set"),
    (In("crates/memsim/src/mem.rs"), Text("step_by(64)"), 1, "the walk is said once, in memsim"),
    (Body("crates/utcp/src/conn/recv.rs", "pub fn finish_recv"), Text("send_ack("), 2, "a duplicate, a drained burst"),
    (In("crates/netback/src"), Text("KernelPart for"), 1, "one kernel part over a real descriptor, link::Backend"),
    (In("crates/netback/src"), Text("socket.recv_from"), 1, "UdpBackend reads its socket at one site"),
    (Body("crates/netback/src/udp.rs", "fn recv<"), Text("socket.recv_from"), 1, "the one site is Udp's Link::recv"),
    (In("crates/netback/src/ipv4.rs"), Text("fn build("), 0, "outgoing headers are built by system_copy"),
    (In(KERNEL), Text("Ipv4Header::at(*.build("), 1, "one send-side system copy, kernelpart::system_copy"),
    (In(KERNEL), Text("compute(30)"), 2, "a crossing's trap path: system_copy's, and the drain's deposit"),
    (In("crates/utcp/src crates/netback/src"), Text("2048"), 1, "one kernel slot size, utcp::SLOT_LEN"),
    (In("crates examples"), Text("encode_traced|set_learn_peer|codec_rejects|drain_device"), 0, "deleted on purpose"),
    (In("crates"), Text("_obs(|_obs<|_observed(|_observed<"), 0, "no foo/foo_obs twins: one entry point"),
    (In("crates/bench/Cargo.toml"), Text("[[bin]]"), 0, "one bench binary, src/main.rs"),
    (In("crates/bench/src"), Text("fn main("), 1, "one bench binary: a src/bin/*.rs is a second main"),
    (In("scripts/ci.sh"), Text(":str |:num|:arr|:obj|:bool"), 0, "report shapes are stated in the bench table"),
    (In("scripts/ci.sh"), Text("sed '|sed -|awk |crates/|src/"), 0, "ci.sh reads no source: a structure check is a row"),
    (In("crates examples"), Text(" NonIlp"), 1, "one Ilp/NonIlp enum, obs::PathLabel (a use reads ::NonIlp)"),
    (In("crates examples"), Text("Path::Ilp =>"), 2, "which path runs is decided in rpcapp::paths only"),
    (In("crates/rpcapp/src/paths.rs"), Text("Path::Ilp =>"), 2, "paths::{send_chunk, recv_chunk} dispatch"),
    (In("crates examples"), Text("trait SuiteInit|trait WorldInit"), 0, "one init hook, CipherKernel::init_world"),
    (Body("crates/cipher/src/simplified.rs", "fn encrypt_unit"), Text(".at(|read_u8(|write_u8("), 0, SAFER),
    (Body("crates/cipher/src/simplified.rs", "fn decrypt_unit"), Text(".at(|read_u8(|write_u8("), 0, SAFER),
    (In("crates/cipher/src crates/core/src crates/xdr/src/stream.rs crates/utcp/src/ring.rs"), Text("NativeMem|SimMem"), 0, MEM),
    (In("crates/rpcapp/src/msg.rs crates/rpcapp/src/trailer.rs crates/rpcapp/src/paths.rs"), Text("NativeMem|SimMem"), 0, MEM),
    (In("crates/core/src"), Text("StoreGrain::Byte =>"), 1, "a store grain becomes Mem accesses in store_words"),
    (In("crates/utcp/src crates/rpcapp/src"), Text("StoreGrain::Byte =>"), 0, "every sink stores with store_unit"),
    (Body("crates/core/src/pipeline.rs", "fn run_units"), Text("next_word("), 0, "the fused loop pulls whole units"),
    (In("crates/rpcapp/src"), Text("UnitSink<M> for "), 1, "one unmarshal sink for both reply formats"),
    (In("crates/rpcapp/src"), Text("WordSource<M> for "), 1, "one word view for both reply formats"),
    (In("crates/rpcapp/src"), Text("ilp_run("), 2, "two fused loops: paths::{fused_send, fused_recv}"),
    (In("crates/rpcapp/src"), Text("> payload_len"), 1, ADMIT),
    (In("crates/rpcapp/src"), Text("payload_len % C::UNIT"), 1, ADMIT),
    (In("crates/rpcapp/src"), Text("fn resolve("), 1, ADMIT),
    (In("crates/rpcapp/src"), Text("unreachable!"), 0, "no trait method whose body says it must not be called"),
    (In("crates/obs/src"), Text("fn overwritten"), 1, "one bounded ring; the trace and flight rings alias it"),
    (In("crates/obs/src"), Text("other: &Ring"), 1, "one ring merge, Ring::merge_from"),
    (In("crates/obs/src"), Text("other: &TraceRing|other: &FlightRing"), 0, "one ring merge, Ring::merge_from"),
    (In("crates examples"), Text("AtomicU64|ConnState|HealthConfig|fn lifecycle"), 0, "deleted on purpose"),
    (In("crates/utcp/src/conn/lifecycle.rs"), Text("fn tag("), 0, "no State::tag: a state's label is its name()"),
    (In("crates"), Text("fn jain"), 1, "one Jain fairness index"),
    (In("crates/obs/src/span.rs"), Text("fn name("), 1, "labels! writes name() once, for every label enum"),
    (In("crates/obs/src/segtrace.rs"), Text("fn name("), 1, "SegEv's: its names depend on its payload"),
    (In("crates/obs/src/health.rs crates/utcp/src/conn/lifecycle.rs"), Text("fn name("), 0, LABELS),
    (In("crates/sim/src/scenario.rs crates/sim/src/health.rs"), Text("fn name("), 0, LABELS),
];

/// Every `.rs` file under `path` (or `path` itself), sorted.
fn rust_files(path: &Path) -> Vec<PathBuf> {
    if path.is_file() {
        return vec![path.to_path_buf()];
    }
    let mut out = Vec::new();
    for entry in fs::read_dir(path).into_iter().flatten().flatten() {
        let p = entry.path();
        if p.is_dir() {
            out.extend(rust_files(&p));
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    out.sort();
    out
}

/// `tests.rs` and `*_tests.rs`: test modules kept in files of their own.
fn is_test_module(file: &Path) -> bool {
    file.file_stem().and_then(|s| s.to_str()).is_some_and(|s| s == "tests" || s.ends_with("_tests"))
}

fn read(file: &Path) -> String {
    fs::read_to_string(file).unwrap_or_else(|e| panic!("{}: {e}", file.display()))
}

/// A file's lines above its first `#[cfg(test)]`.
fn non_test(text: &str) -> Vec<&str> {
    text.lines().take_while(|l| !l.contains("#[cfg(test)]")).collect()
}

/// What `pattern` counts in the non-test code of `files` (each a file's
/// text), narrowed to one item when `scope` is a `Body`.
fn count(files: &[String], scope: &Scope, pattern: &Pattern) -> Result<usize, String> {
    let mut code: Vec<Vec<&str>> = files.iter().map(|f| non_test(f)).collect();
    if code.iter().all(Vec::is_empty) {
        return Err("holds no code".into());
    }
    if let Body(_, start) = scope {
        for lines in &mut code {
            let first = lines.iter().position(|l| l.contains(start)).ok_or(format!("no {start:?}"))?;
            let close = format!("{}}}", &lines[first][..lines[first].len() - lines[first].trim_start().len()]);
            let len = lines[first..].iter().position(|l| *l == close).ok_or(format!("{start:?} never closes"))?;
            *lines = lines[first..=first + len].to_vec();
        }
    }
    Ok(match pattern {
        Text(s) => code.iter().flatten().filter(|l| s.split('|').any(|part| holds(l, part))).count(),
        FilesOver(n) => code.iter().filter(|f| f.len() > *n).count(),
    })
}

/// Whether `line` holds the `*`-separated pieces of `part` in order.
fn holds(line: &str, part: &str) -> bool {
    let mut rest = line;
    part.split('*').all(|piece| rest.find(piece).map(|at| rest = &rest[at + piece.len()..]).is_some())
}

#[test]
fn each_thing_is_stated_the_expected_number_of_times() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut wrong = Vec::new();
    for (scope, pattern, expected, reason) in ROWS {
        let (In(paths) | Body(paths, _)) = scope;
        let counted: Result<usize, String> = paths
            .split(' ')
            .map(|p| {
                let path = root.join(p);
                let files = rust_files(&path).into_iter().filter(|f| path.is_file() || !is_test_module(f));
                count(&files.map(|f| read(&f)).collect::<Vec<_>>(), scope, pattern).map_err(|e| format!("{p}: {e}"))
            })
            .sum();
        match counted {
            Ok(n) if n == *expected => {}
            Ok(n) => wrong.push(format!("{paths}: {n} × {pattern:?}, want {expected} — {reason}")),
            Err(e) => wrong.push(format!("{e} — {reason}")),
        }
    }
    assert!(wrong.is_empty(), "\n{}", wrong.join("\n"));
}

#[test]
fn a_body_whose_start_is_absent_fails() {
    assert!(count(&["fn other() {\n}\n".into()], &Body("", "fn run_units"), &Text("x")).is_err());
}

#[test]
fn a_body_that_never_closes_fails() {
    let nested_close_only = "    fn run_units() {\n        if x {\n        }\n".to_owned();
    assert!(count(&[nested_close_only], &Body("", "fn run_units"), &Text("x")).is_err());
}

#[test]
fn a_star_matches_pieces_in_order() {
    let lines = ["    X::at(a).build(m);", "    X::at(a)", "        .build(m);", "    m.build(X::at(a));"];
    assert_eq!(count(&[lines.join("\n")], &In(""), &Text("X::at(*.build(")), Ok(1));
}

#[test]
fn a_scope_of_test_code_only_fails() {
    assert!(count(&["#[cfg(test)]\nmod tests {\n    fn x() {}\n}\n".into()], &In(""), &Text("x")).is_err());
}

/// The skip rule hides test code only: each skipped file is declared
/// under `#[cfg(test)]` or `include!`d by another skipped file.
#[test]
fn skipped_files_are_reached_from_test_code_only() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let trees = ["crates", "examples"].map(|d| rust_files(&root.join(d)));
    for file in trees.iter().flatten().filter(|f| is_test_module(f)) {
        let name = file.file_name().and_then(|n| n.to_str()).expect("a UTF-8 file name");
        let refs = [format!("mod {};", name.trim_end_matches(".rs")), format!("include!(\"{name}\")")];
        let names_it = |l: &str| refs.iter().any(|r| l.contains(r.as_str()));
        let siblings = rust_files(file.parent().expect("a file has a directory"));
        let texts: Vec<(bool, String)> = siblings.iter().map(|f| (is_test_module(f), read(f))).collect();
        let reached = texts.iter().any(|(_, t)| t.lines().any(names_it));
        let from_code = texts.iter().any(|(skipped, t)| !skipped && non_test(t).into_iter().any(names_it));
        assert!(reached && !from_code, "{}: declared outside #[cfg(test)]", file.display());
    }
}
