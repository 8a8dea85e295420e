//! The deterministic perf-regression gate behind `bench gate` and
//! `bench ci`.
//!
//! Every number the simulation produces — rounds, work units per
//! stage×layer, simulated cache misses, reject counts, virtual-tick
//! latency percentiles — is a pure function of the configuration and
//! the virtual clock, so it is *bit-identical* across machines and
//! runs. That turns perf regression testing from a statistics problem
//! into an equality check: CI re-emits the reports and compares a
//! distilled set of metrics against committed baselines. A refactor
//! that silently adds a pass over the data, evicts more cache lines, or
//! changes retransmit behaviour moves one of these numbers and fails
//! the gate; an intentional change re-records with `bench gate --record`
//! and the diff of `baselines/` documents the shift in review —
//! `bench gate --explain`, run before the re-record, prints that diff
//! as a table (key, baseline, fresh, Δ %) to commit beside it.
//!
//! The gate is also the shape check: every gated path must resolve in
//! the fresh report whatever its policy, so a refactor that drops or
//! renames a field fails here.
//!
//! Three policies ([`Policy`]):
//!
//! * [`Policy::Exact`] — deterministic metrics; any drift fails.
//! * [`Policy::RelTol`] — derived floating-point metrics (`mbps`,
//!   `l1d_miss_pct`, …). Deterministic too in this workspace, but a
//!   wide tolerance keeps the gate honest if float formatting or
//!   evaluation order ever differs across toolchains.
//! * [`Policy::ReportOnly`] — the value is printed for the log and
//!   never fails, but the path must be there and still hold the kind of
//!   value the baseline holds; the place for genuinely
//!   wall-clock-dependent numbers.

use crate::schema::walk;
use crate::table::TABLE;
use obs::Json;
use std::path::Path;

/// How strictly a metric is held to its baseline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Policy {
    /// Bit-exact equality of the JSON values.
    Exact,
    /// Numeric, within this relative tolerance (0.02 = ±2 %).
    RelTol(f64),
    /// Present and of the baseline's kind; the value is only logged.
    ReportOnly,
}

/// One gated metric: a dotted path into a report, and its policy.
pub struct Check {
    /// Dotted path into the report document (see [`crate::schema::walk`]).
    pub path: &'static str,
    /// How drift from the baseline is judged.
    pub policy: Policy,
}

impl Check {
    /// Shorthand constructor.
    pub const fn new(path: &'static str, policy: Policy) -> Self {
        Check { path, policy }
    }
}

/// One report file and the metrics gated in it.
pub struct FileManifest {
    /// Report file name, written into the working directory by its
    /// row's runner and mirrored (distilled) under `baselines/`.
    pub file: &'static str,
    /// The metrics gated in that file.
    pub checks: &'static [Check],
}

/// The full gate manifest: which files, which metrics, which policies
/// — the report column of [`crate::table::TABLE`], nothing else.
pub fn manifest() -> impl Iterator<Item = &'static FileManifest> {
    TABLE.iter().filter_map(|row| row.report.as_ref())
}

/// Distill a full report into the flat `{dotted path: value}` object
/// that gets committed under `baselines/`. Errors if a gated path is
/// missing — a baseline must never be recorded with holes.
pub fn distill(doc: &Json, checks: &[Check]) -> Result<Json, String> {
    let mut out = Json::obj();
    for c in checks {
        let v = walk(doc, c.path)
            .ok_or_else(|| format!("report lacks gated path {}", c.path))?;
        out = out.set(c.path, v.clone());
    }
    Ok(out)
}

/// What one file's gate run concluded.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checks that passed (or were report-only).
    pub checked: usize,
    /// Report-only observations, for the log.
    pub notes: Vec<String>,
    /// Human-readable failures; empty means the gate passed.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Did every non-report-only check hold?
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Compare a freshly-emitted report against a distilled baseline.
/// `baseline` is the flat object [`distill`] wrote; `current` is the
/// full report document.
pub fn compare(baseline: &Json, current: &Json, checks: &[Check]) -> Outcome {
    let mut out = Outcome::default();
    for c in checks {
        let Some(base) = baseline.get(c.path) else {
            out.failures.push(format!(
                "{}: not in baseline (stale baseline? re-record with --record)",
                c.path
            ));
            continue;
        };
        let Some(cur) = walk(current, c.path) else {
            out.failures
                .push(format!("{}: missing from the current report", c.path));
            continue;
        };
        match c.policy {
            Policy::Exact => {
                if base == cur {
                    out.checked += 1;
                } else {
                    out.failures.push(format!(
                        "{}: baseline {} != current {} (exact)",
                        c.path,
                        base.render(),
                        cur.render()
                    ));
                }
            }
            Policy::RelTol(tol) => match (base.as_f64(), cur.as_f64()) {
                (Some(b), Some(v)) => {
                    let rel = (b - v).abs() / b.abs().max(v.abs()).max(1e-12);
                    if rel <= tol {
                        out.checked += 1;
                    } else {
                        out.failures.push(format!(
                            "{}: baseline {b} vs current {v} drifts {:.2}% (tol {:.2}%)",
                            c.path,
                            100.0 * rel,
                            100.0 * tol
                        ));
                    }
                }
                _ => out.failures.push(format!(
                    "{}: RelTol needs numbers, got baseline {} / current {}",
                    c.path,
                    base.render(),
                    cur.render()
                )),
            },
            Policy::ReportOnly => {
                let same_kind = match (base.as_f64(), cur.as_f64()) {
                    (Some(_), Some(v)) => v.is_finite(),
                    (None, None) => std::mem::discriminant(base) == std::mem::discriminant(cur),
                    _ => false,
                };
                if same_kind {
                    out.checked += 1;
                    out.notes.push(format!(
                        "{}: baseline {} / current {} (report-only)",
                        c.path,
                        base.render(),
                        cur.render()
                    ));
                } else {
                    out.failures.push(format!(
                        "{}: baseline {} and current {} are different kinds of value",
                        c.path,
                        base.render(),
                        cur.render()
                    ));
                }
            }
        }
    }
    out
}

/// What `bench gate` does with a report and its baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Hold the report to the baseline.
    Check,
    /// Distil the report into the baseline.
    Record,
    /// Print what a re-record would change; never fails on a value.
    Explain,
}

impl Policy {
    fn label(self) -> String {
        match self {
            Policy::Exact => "exact".into(),
            Policy::RelTol(tol) => format!("±{} %", 100.0 * tol),
            Policy::ReportOnly => "report-only".into(),
        }
    }
}

/// The rows `--explain` prints for one report: every gated path whose
/// fresh value differs from the baseline's (whatever its policy — a
/// re-record rewrites report-only values too), as Markdown table cells
/// `path | policy | baseline | fresh | Δ %`. A path new to the baseline
/// or gone from the report is a row as well.
pub fn explain(baseline: &Json, current: &Json, checks: &[Check]) -> Vec<String> {
    let show = |v: Option<&Json>| v.map_or("—".into(), Json::render);
    let mut rows = Vec::new();
    for c in checks {
        let (base, cur) = (baseline.get(c.path), walk(current, c.path));
        if base == cur {
            continue;
        }
        let delta = match (base.and_then(Json::as_f64), cur.and_then(Json::as_f64)) {
            (Some(b), Some(v)) if b != 0.0 => format!("{:+.1}", 100.0 * (v - b) / b.abs()),
            _ => "—".into(),
        };
        rows.push(format!(
            "`{}` | {} | {} | {} | {delta}",
            c.path,
            c.policy.label(),
            show(base),
            show(cur)
        ));
    }
    rows
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    obs::json::parse(&text).map_err(|e| format!("{} is not valid JSON: {e}", path.display()))
}

/// Gate one report file in the working directory against its baseline
/// under `baselines/` — or distil it into that baseline, or print how
/// the two differ ([`Mode`]). Prints the notes and the verdict; `Err`
/// carries the failures.
pub fn gate_file(fm: &FileManifest, mode: Mode) -> Result<(), String> {
    let file = fm.file;
    let report = load(Path::new(file)).map_err(|e| format!("{e} (run its row first)"))?;
    let base_path = Path::new("baselines").join(file);
    if mode == Mode::Record {
        let distilled = distill(&report, fm.checks).map_err(|e| format!("{file}: {e}"))?;
        std::fs::create_dir_all("baselines")
            .and_then(|()| obs::write_report(&base_path, &distilled))
            .map_err(|e| format!("cannot write {}: {e}", base_path.display()))?;
        println!("gate: recorded {} ({} metrics)", base_path.display(), fm.checks.len());
        return Ok(());
    }
    let baseline = load(&base_path).map_err(|e| {
        format!("{e}\nno baseline for {file} — run `bench gate --record` and commit baselines/")
    })?;
    if mode == Mode::Explain {
        for row in explain(&baseline, &report, fm.checks) {
            println!("| {file} | {row} |");
        }
        return Ok(());
    }
    let out = compare(&baseline, &report, fm.checks);
    for note in &out.notes {
        println!("gate: {file}: {note}");
    }
    if out.passed() {
        println!("gate: {file}: {} metrics match {}", out.checked, base_path.display());
        return Ok(());
    }
    Err(format!(
        "{file}: {} regression(s) vs {} — if intentional, re-run with `bench gate --record` \
         and commit the diff\n  FAIL {}",
        out.failures.len(),
        base_path.display(),
        out.failures.join("\n  FAIL ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> Json {
        Json::obj()
            .set(
                "work",
                Json::obj().set("fused", Json::U64(901_195)).set("rounds", Json::U64(84)),
            )
            .set("mbps", Json::F64(17.25))
            .set("wall_us", Json::U64(123_456))
    }

    fn checks() -> Vec<Check> {
        vec![
            Check::new("work.fused", Policy::Exact),
            Check::new("work.rounds", Policy::Exact),
            Check::new("mbps", Policy::RelTol(0.02)),
            Check::new("wall_us", Policy::ReportOnly),
        ]
    }

    #[test]
    fn unchanged_report_passes_against_its_own_distillate() {
        let doc = report();
        let base = distill(&doc, &checks()).unwrap();
        let out = compare(&base, &doc, &checks());
        assert!(out.passed(), "failures: {:?}", out.failures);
        assert_eq!(out.checked, 4);
        assert_eq!(out.notes.len(), 1, "wall_us is reported");
    }

    #[test]
    fn perturbing_a_deterministic_metric_fails_the_gate() {
        // The acceptance criterion: a one-unit drift in a simulated
        // work count — the kind a stray extra pass over the data
        // produces — must fail, loudly, naming the metric.
        let base = distill(&report(), &checks()).unwrap();
        let perturbed = report().set(
            "work",
            Json::obj().set("fused", Json::U64(901_196)).set("rounds", Json::U64(84)),
        );
        let out = compare(&base, &perturbed, &checks());
        assert!(!out.passed());
        assert_eq!(out.failures.len(), 1);
        assert!(out.failures[0].contains("work.fused"), "{}", out.failures[0]);
        assert!(out.failures[0].contains("901195"), "{}", out.failures[0]);
        assert!(out.failures[0].contains("901196"), "{}", out.failures[0]);
    }

    #[test]
    fn rel_tol_allows_small_drift_but_not_large() {
        let base = distill(&report(), &checks()).unwrap();
        let near = report().set("mbps", Json::F64(17.25 * 1.01)); // +1 % < 2 %
        assert!(compare(&base, &near, &checks()).passed());
        let far = report().set("mbps", Json::F64(17.25 * 1.05)); // +5 % > 2 %
        let out = compare(&base, &far, &checks());
        assert_eq!(out.failures.len(), 1);
        assert!(out.failures[0].contains("mbps"), "{}", out.failures[0]);
        assert!(out.failures[0].contains("tol"), "{}", out.failures[0]);
    }

    #[test]
    fn report_only_metrics_never_fail() {
        let base = distill(&report(), &checks()).unwrap();
        // Wall time doubling is noise, not a regression.
        let doc = report().set("wall_us", Json::U64(246_912));
        let out = compare(&base, &doc, &checks());
        assert!(out.passed());
        assert!(out.notes.iter().any(|n| n.contains("wall_us")));
    }

    #[test]
    fn explain_lists_exactly_the_paths_a_re_record_would_rewrite() {
        let base = distill(&report(), &checks()).unwrap();
        assert!(explain(&base, &report(), &checks()).is_empty(), "nothing moved, nothing listed");
        let moved = report()
            .set("work", Json::obj().set("fused", Json::U64(450_597)).set("rounds", Json::U64(84)))
            .set("wall_us", Json::U64(246_912));
        assert_eq!(
            explain(&base, &moved, &checks()),
            [
                "`work.fused` | exact | 901195 | 450597 | -50.0",
                "`wall_us` | report-only | 123456 | 246912 | +100.0",
            ]
        );
        // A path the baseline has not seen yet, and one with no number
        // to take a ratio of.
        let stale = Json::obj().set("mbps", Json::Str("fast".into()));
        let rows = explain(&stale, &report(), &checks()[1..3]);
        assert_eq!(rows, ["`work.rounds` | exact | — | 84 | —", "`mbps` | ±2 % | \"fast\" | 17.25 | —"]);
    }

    #[test]
    fn stale_or_holey_baselines_fail_instead_of_passing_vacuously() {
        let doc = report();
        // A baseline missing a newly-gated metric must not silently pass.
        let stale = Json::obj().set("work.fused", Json::U64(901_195));
        let out = compare(&stale, &doc, &checks());
        assert!(!out.passed());
        assert!(out.failures.iter().any(|f| f.contains("work.rounds") && f.contains("--record")));
        // And distilling a report that lacks a gated path is an error.
        let err = distill(&Json::obj(), &checks()).unwrap_err();
        assert!(err.contains("work.fused"), "{err}");
    }

    #[test]
    fn a_report_lacking_a_report_only_path_fails_the_gate() {
        // What lets the separate shape checker go: wall-clock fields
        // are never compared, but they must exist and stay numbers.
        let base = distill(&report(), &checks()).unwrap();
        let mut doc = report();
        if let Json::Obj(fields) = &mut doc {
            fields.remove("wall_us");
        }
        let err = distill(&doc, &checks()).unwrap_err();
        assert!(err.contains("wall_us"), "{err}");
        let out = compare(&base, &doc, &checks());
        assert_eq!(out.failures.len(), 1, "{:?}", out.failures);
        assert!(out.failures[0].contains("wall_us: missing"), "{}", out.failures[0]);
        // Present but no longer a number: also a failure.
        let out = compare(&base, &report().set("wall_us", Json::Str("fast".into())), &checks());
        assert!(out.failures[0].contains("wall_us"), "{:?}", out.failures);
    }

    #[test]
    fn manifest_paths_are_well_formed_and_unique() {
        let mut files = std::collections::BTreeSet::new();
        for fm in manifest() {
            assert!(files.insert(fm.file), "report file {} named by two rows", fm.file);
            let mut seen = std::collections::BTreeSet::new();
            for c in fm.checks {
                assert!(!c.path.is_empty() && !c.path.contains(':'), "{}", c.path);
                assert!(seen.insert(c.path), "duplicate gated path {} in {}", c.path, fm.file);
            }
        }
        let mut names = std::collections::BTreeSet::new();
        for row in TABLE {
            assert!(names.insert(row.name), "subcommand {} appears twice", row.name);
            assert!(!["ci", "gate", "list"].contains(&row.name), "{} shadows a command", row.name);
        }
    }

    #[test]
    fn baselines_and_gated_rows_are_in_bijection() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../baselines");
        let mut committed: Vec<String> = std::fs::read_dir(dir)
            .expect("baselines/ at the workspace root")
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        committed.sort();
        let mut gated: Vec<&str> =
            manifest().filter(|fm| !fm.checks.is_empty()).map(|fm| fm.file).collect();
        gated.sort_unstable();
        assert_eq!(committed, gated, "left: baselines/, right: rows with gated paths");
        // And each baseline holds exactly its row's paths — no stale
        // key, no unrecorded one.
        for fm in manifest().filter(|fm| !fm.checks.is_empty()) {
            let Json::Obj(fields) = load(&Path::new(dir).join(fm.file)).unwrap() else {
                panic!("{} is not an object", fm.file)
            };
            let recorded: Vec<&str> = fields.keys().map(String::as_str).collect();
            let mut paths: Vec<&str> = fm.checks.iter().map(|c| c.path).collect();
            paths.sort_unstable();
            assert_eq!(recorded, paths, "{}", fm.file);
        }
    }
}
