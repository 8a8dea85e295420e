//! Structure guards: what the tree says once, as counts over its source
//! text that `cargo test` enforces.
//!
//! Each row is (scope, pattern, expected count, reason). A scope is a
//! directory (every `.rs` file under it) or one file, read up to its
//! first `#[cfg(test)]` line — non-test code only. `Text(s)` counts the
//! lines containing `s`; `FilesOver(n)` counts the files with more than
//! `n` lines. A row fails when its scope holds no code — a moved or
//! renamed path must not pass vacuously — or when the count differs.
//! A row expecting 0 names something deleted on purpose.

use std::fs;
use std::path::{Path, PathBuf};

/// What a row counts in its scope.
enum Pattern {
    /// Lines containing this text.
    Text(&'static str),
    /// Files longer than this many lines.
    FilesOver(usize),
}
use Pattern::{FilesOver, Text};

const ROWS: &[(&str, Pattern, usize, &str)] = &[
    ("crates/sim/src", Text("fn advanced("), 1, "one wrapping-monotone helper, ConnOracle's"),
    ("crates/sim/src", Text("struct Snapshot"), 1, "one previous-value snapshot, ConnOracle's"),
    ("crates/sim/src", Text("Prev {"), 0, "Tracker's ConnPrev and PairTracker's Prev folded into Snapshot"),
    ("crates/sim/src", Text("fn check_one"), 0, "PairTracker::check_one folded into ConnOracle::check"),
    ("crates/sim/src", Text("ScaleHarness::simplified"), 1, "one world builder, World::with_slots"),
    ("crates/sim/src", Text("Recorder::with_series"), 1, "one recorder shape, world::recorder"),
    ("crates/sim/src", Text("diverge on {what}: {x} vs {y}"), 1, "one observed-vs-unobserved comparison"),
    ("crates/sim/src", Text("pub fn sweep"), 1, "one seeded pipeline, generic over the Spec"),
    ("crates/sim/src", Text("sweep_teardown"), 0, "the teardown sweep is sweep::<TeardownSpec>"),
    ("crates/sim/src", Text("pub enum Mutant"), 1, "one mutant selector"),
    ("crates/sim/src", Text("inject_fin_bug"), 0, "a mutant is a Mutant, not a bool"),
    ("crates/sim/src", Text("inject_ring_bug"), 0, "a mutant is a Mutant, not a bool"),
    ("crates/sim/src", Text("inject_bug"), 0, "a mutant is a Mutant, not a bool"),
    ("crates/server/src", FilesOver(500), 0, "no server file outgrows its part — cut it along a seam"),
    ("crates/utcp/src/kernelpart.rs", Text("pub fn send"), 0, "Loopback sends through its KernelPart impl only"),
    ("crates/utcp/src/kernelpart.rs", Text("pub fn register"), 0, "Loopback registers through its KernelPart impl only"),
    ("crates", Text("struct Endpoint {"), 1, "one port demultiplexer, utcp::demux, serves every kernel part"),
    ("crates/utcp/src", Text("step_by(64)"), 0, "the context-switch walk is Mem::foreign_working_set"),
    ("crates/memsim/src/mem.rs", Text("step_by(64)"), 1, "the walk is said once, in memsim"),
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

/// A file's lines above its first `#[cfg(test)]`.
fn non_test_lines(file: &Path) -> Vec<String> {
    let text = fs::read_to_string(file).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
    text.lines().take_while(|l| !l.contains("#[cfg(test)]")).map(str::to_owned).collect()
}

#[test]
fn each_thing_is_stated_the_expected_number_of_times() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut wrong = Vec::new();
    for (scope, pattern, expected, reason) in ROWS {
        let files: Vec<Vec<String>> =
            rust_files(&root.join(scope)).iter().map(|f| non_test_lines(f)).collect();
        assert!(files.iter().any(|f| !f.is_empty()), "{scope}: scope holds no code");
        let (what, count) = match pattern {
            Text(s) => {
                (format!("lines containing {s:?}"), files.iter().flatten().filter(|l| l.contains(s)).count())
            }
            FilesOver(n) => (format!("files over {n} lines"), files.iter().filter(|f| f.len() > *n).count()),
        };
        if count != *expected {
            wrong.push(format!("{scope}: {count} {what}, want {expected} — {reason}"));
        }
    }
    assert!(wrong.is_empty(), "\n{}", wrong.join("\n"));
}
