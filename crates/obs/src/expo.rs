//! Exposition: Prometheus-style text dump and JSON run-report files.
//!
//! Two consumers, two formats. A human tailing a run wants the flat
//! `name{label="…"} value` lines Prometheus popularised — greppable,
//! diffable, no tooling needed. CI and notebooks want one JSON document
//! per run (`BENCH_*.json`) whose shape a schema check can hold stable.

use std::io::Write as _;
use std::path::Path;

use crate::health::{Detector, Verdict};
use crate::json::Json;
use crate::recorder::Recorder;
use crate::span::{Counter, Layer, Metric, PathLabel, Stage};
use crate::trace::TraceRing;

/// Render a recorder in Prometheus text exposition format. Counter and
/// work-matrix series carry `# TYPE … counter`; histogram series emit
/// cumulative `_bucket{le="…"}` lines plus `_sum` and `_count`, exactly
/// as the format specifies.
pub fn prometheus_text(r: &Recorder) -> String {
    prometheus_text_with_health(r, &[])
}

/// [`prometheus_text`] plus the health layer: one
/// `ilp_health_verdicts{detector="…"}` gauge per detector (all five
/// are always exported — a healthy run scrapes as explicit zeros, not
/// absent series) and the latest *sealed* time-series window as
/// `ilp_window_delta{counter="…"}` gauges. The open window is excluded
/// on purpose: it is still accumulating, so scraping it would show
/// partial deltas that shrink-on-refresh in a dashboard.
pub fn prometheus_text_with_health(r: &Recorder, verdicts: &[Verdict]) -> String {
    let mut out = String::new();

    for &c in &Counter::ALL {
        let name = c.name();
        out.push_str(&format!("# TYPE ilp_{name} counter\n"));
        out.push_str(&format!("ilp_{name} {}\n", r.counter(c)));
    }

    out.push_str("# TYPE ilp_work_units counter\n");
    for &p in &PathLabel::ALL {
        for &s in &Stage::ALL {
            for &l in &Layer::ALL {
                let w = r.work(p, s, l);
                if w > 0 {
                    out.push_str(&format!(
                        "ilp_work_units{{path=\"{}\",stage=\"{}\",layer=\"{}\"}} {w}\n",
                        p.name(),
                        s.name(),
                        l.name()
                    ));
                }
            }
        }
    }

    for &m in &Metric::ALL {
        let h = r.hist(m);
        let name = m.name();
        out.push_str(&format!("# TYPE ilp_{name} histogram\n"));
        let mut cum = 0u64;
        for (bound, count) in h.buckets() {
            cum += count;
            out.push_str(&format!("ilp_{name}_bucket{{le=\"{bound}\"}} {cum}\n"));
        }
        out.push_str(&format!("ilp_{name}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
        out.push_str(&format!("ilp_{name}_sum {}\n", h.sum()));
        out.push_str(&format!("ilp_{name}_count {}\n", h.count()));
    }

    out.push_str("# TYPE ilp_health_verdicts gauge\n");
    for &d in &Detector::ALL {
        let n = verdicts.iter().filter(|v| v.detector == d).count();
        out.push_str(&format!("ilp_health_verdicts{{detector=\"{}\"}} {n}\n", d.name()));
    }

    let series = r.series();
    let retained = series.len();
    if series.sealed() > 0 && retained >= 2 {
        // `iter()` runs oldest → newest and always ends with the open
        // window, so the latest sealed one is second from the end.
        if let Some(w) = series.iter().nth(retained - 2) {
            let wt = series.config().window_ticks;
            out.push_str("# TYPE ilp_window_start_tick gauge\n");
            out.push_str(&format!("ilp_window_start_tick {}\n", w.start_tick(wt)));
            out.push_str("# TYPE ilp_window_ticks gauge\n");
            out.push_str(&format!("ilp_window_ticks {}\n", w.ticks(wt)));
            out.push_str("# TYPE ilp_window_delta gauge\n");
            for &c in &Counter::ALL {
                out.push_str(&format!(
                    "ilp_window_delta{{counter=\"{}\"}} {}\n",
                    c.name(),
                    w.counter(c)
                ));
            }
        }
    }

    out
}

/// A trace ring as Chrome `trace_event` events under process `pid` (the
/// JSON Array Format consumed by `chrome://tracing` and Perfetto's
/// legacy importer; wrap them with [`chrome_trace_doc`]). Each trace
/// event becomes an instant event (`"ph": "i"`, thread scope): virtual
/// ticks map 1:1 to microseconds, connections map to `tid` so every
/// connection gets its own timeline row, and the event kind becomes the
/// slice name. A leading `process_name` metadata event carries the
/// caller's `label` — arbitrary text, escaped by the JSON renderer like
/// everything else — and one `thread_name` metadata event per
/// connection row in the ring makes `chrome://tracing` show `conn 7`
/// instead of a bare thread id. Each process exports its ring under its
/// own pid (the two ends of a `serve_udp` transfer, say), so the
/// concatenation loads as one timeline with every process row labelled.
pub fn chrome_trace_events(trace: &TraceRing, label: &str, pid: u64) -> Vec<Json> {
    let meta = |name: &str, tid: u64, value: &str| {
        Json::obj()
            .set("name", Json::Str(name.to_string()))
            .set("ph", Json::Str("M".to_string()))
            .set("pid", Json::U64(pid))
            .set("tid", Json::U64(tid))
            .set("args", Json::obj().set("name", Json::Str(value.to_string())))
    };
    let mut events = vec![meta("process_name", 0, label)];
    let conns: std::collections::BTreeSet<u32> = trace.iter().map(|e| e.conn).collect();
    for c in conns {
        events.push(meta("thread_name", u64::from(c), &format!("conn {c}")));
    }
    events.extend(trace.iter().map(|e| {
        Json::obj()
            .set("name", Json::Str(e.kind.name().to_string()))
            .set("cat", Json::Str("ilp".to_string()))
            .set("ph", Json::Str("i".to_string()))
            .set("s", Json::Str("t".to_string()))
            .set("ts", Json::U64(e.tick))
            .set("pid", Json::U64(pid))
            .set("tid", Json::U64(e.conn as u64))
            .set("args", Json::obj().set("value", Json::U64(e.value)))
    }));
    events
}

/// Wrap a flat event list (from [`chrome_trace_events`],
/// [`crate::segtrace::SegStore::chrome_spans`], or several of each
/// concatenated) into the Chrome trace document shape.
pub fn chrome_trace_doc(events: Vec<Json>) -> Json {
    Json::obj()
        .set("traceEvents", Json::Arr(events))
        .set("displayTimeUnit", Json::Str("ms".to_string()))
}

/// Write a JSON run report to `path`, pretty-printed with a trailing
/// newline. The write goes through a `.tmp` sibling, a rename, and an
/// fsync of the parent directory: the file's own `sync_all` makes the
/// *contents* durable, but the rename lives in the directory, so a
/// crash between rename and directory flush could still lose the
/// just-renamed report (or leave only the tmp). A crashed run therefore
/// never leaves a half-written or missing report for CI to choke on,
/// and the tmp sibling never outlives a successful call.
pub fn write_report(path: &Path, report: &Json) -> std::io::Result<()> {
    let tmp = path.with_extension("json.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(report.render_pretty().as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    // `parent()` is `Some("")` for bare relative names like
    // `BENCH_x.json`; that means the current directory.
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    std::fs::File::open(dir)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{EventKind, SpanObserver, Work};

    #[test]
    fn prometheus_text_is_well_formed() {
        let mut r = Recorder::new(8);
        r.count(Counter::ChunksSent, 3);
        r.sample(Metric::ChunkLatencyTicks, 5);
        r.sample(Metric::ChunkLatencyTicks, 300);
        r.span(PathLabel::Ilp, Stage::Integrated, Layer::Fused, Work { user: 10, system: 2 });
        r.event(EventKind::ChunkSent, 0, 0);
        let text = prometheus_text(&r);
        assert!(text.contains("# TYPE ilp_chunks_sent counter\nilp_chunks_sent 3\n"));
        assert!(text.contains(
            "ilp_work_units{path=\"ilp\",stage=\"integrated\",layer=\"fused\"} 10\n"
        ));
        assert!(text.contains(
            "ilp_work_units{path=\"ilp\",stage=\"integrated\",layer=\"kernel\"} 2\n"
        ));
        assert!(text.contains("ilp_chunk_latency_ticks_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("ilp_chunk_latency_ticks_sum 305\n"));
        assert!(text.contains("ilp_chunk_latency_ticks_count 2\n"));
        // Cumulative buckets are non-decreasing.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket{le=\"") && !l.contains("+Inf")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last);
            last = v;
        }
    }

    #[test]
    fn chrome_trace_shape_and_escaping_roundtrip() {
        let mut r = Recorder::new(8);
        r.tick(5);
        r.event(EventKind::ChunkSent, 3, 42);
        r.tick(9);
        r.event(EventKind::Retransmit, 3, 1);
        // A hostile label: quotes, backslashes, control chars, unicode.
        let label = "run \"7\" \\ tab\tnewline\n nul\u{0} ⏱";
        let j = chrome_trace_doc(chrome_trace_events(r.trace(), label, 0));
        // The rendered bytes parse back to the identical tree — the
        // escaping is exercised end to end through the json roundtrip.
        let text = j.render();
        let back = crate::json::parse(&text).expect("chrome trace JSON parses");
        assert_eq!(back, j);
        let events = back.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 4, "process + thread metadata + two instants");
        assert_eq!(events[0].get("ph").and_then(|p| p.as_str()), Some("M"));
        assert_eq!(
            events[0].get("args").and_then(|a| a.get("name")).and_then(|n| n.as_str()),
            Some(label),
            "label survives escaping byte-for-byte"
        );
        assert_eq!(events[1].get("name").and_then(|n| n.as_str()), Some("thread_name"));
        assert_eq!(events[1].get("tid"), Some(&Json::U64(3)));
        assert_eq!(
            events[1].get("args").and_then(|a| a.get("name")).and_then(|n| n.as_str()),
            Some("conn 3")
        );
        assert_eq!(events[2].get("name").and_then(|n| n.as_str()), Some("chunk_sent"));
        assert_eq!(events[2].get("ts"), Some(&Json::U64(5)));
        assert_eq!(events[2].get("tid"), Some(&Json::U64(3)));
        assert_eq!(events[3].get("name").and_then(|n| n.as_str()), Some("retransmit"));
        assert_eq!(events[3].get("ts"), Some(&Json::U64(9)));
        assert_eq!(back.get("displayTimeUnit").and_then(|u| u.as_str()), Some("ms"));
    }

    #[test]
    fn two_process_traces_carry_per_process_labels() {
        // Two processes export under distinct pids; the concatenated
        // document must label every process row and keep each instant
        // under its own process's pid.
        let mut a = Recorder::new(8);
        a.tick(2);
        a.event(EventKind::ChunkSent, 0, 1);
        let mut b = Recorder::new(8);
        b.tick(4);
        b.event(EventKind::ChunkSent, 5, 1);
        let mut evs = chrome_trace_events(a.trace(), "process 0", 0);
        evs.extend(chrome_trace_events(b.trace(), "process 1", 1));
        let doc = chrome_trace_doc(evs);
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        let labels: Vec<(u64, &str)> = events
            .iter()
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("process_name"))
            .map(|e| {
                (
                    e.get("pid").and_then(|p| p.as_f64()).unwrap() as u64,
                    e.get("args").and_then(|a| a.get("name")).and_then(|n| n.as_str()).unwrap(),
                )
            })
            .collect();
        assert_eq!(labels, vec![(0, "process 0"), (1, "process 1")]);
        let instants: Vec<u64> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("i"))
            .map(|e| e.get("pid").and_then(|p| p.as_f64()).unwrap() as u64)
            .collect();
        assert_eq!(instants, vec![0, 1], "each instant stays under its process's pid");
        assert!(
            events
                .iter()
                .any(|e| e.get("name").and_then(|n| n.as_str()) == Some("thread_name")
                    && e.get("pid") == Some(&Json::U64(1))
                    && e.get("tid") == Some(&Json::U64(5))),
            "process 1's connection row is labelled under pid 1"
        );
    }

    #[test]
    fn prometheus_health_and_window_sections_are_well_formed() {
        use crate::health::{Detector, Verdict};
        use crate::timeseries::SeriesConfig;
        let mut r = Recorder::with_series(8, SeriesConfig { window_ticks: 4, ring: 4 });
        // Two sealed windows plus an open one: ticks 0..4, 4..8, 8..
        r.tick(1);
        r.count(Counter::ChunksSent, 1);
        r.tick(5);
        r.count(Counter::ChunksSent, 2);
        r.tick(9);
        r.count(Counter::ChunksSent, 4);
        let verdicts = vec![
            Verdict {
                detector: Detector::RetransmitStorm,
                conn: Some(1),
                window_start: Some(0),
                window_ticks: Some(4),
                measured: 9.0,
                threshold: 3.0,
                detail: "storm".into(),
            },
            Verdict {
                detector: Detector::RetransmitStorm,
                conn: Some(2),
                window_start: Some(0),
                window_ticks: Some(4),
                measured: 8.0,
                threshold: 3.0,
                detail: "storm".into(),
            },
            Verdict {
                detector: Detector::Stall,
                conn: Some(1),
                window_start: None,
                window_ticks: None,
                measured: 1.0,
                threshold: 0.5,
                detail: "stall".into(),
            },
        ];
        let text = prometheus_text_with_health(&r, &verdicts);
        // Every detector appears exactly once, with its count (zeros
        // included: absent series and zero are different statements).
        for d in Detector::ALL {
            let needle = format!("ilp_health_verdicts{{detector=\"{}\"}}", d.name());
            assert_eq!(text.matches(&needle).count(), 1, "{needle}");
        }
        assert!(text.contains("ilp_health_verdicts{detector=\"retransmit_storm\"} 2\n"));
        assert!(text.contains("ilp_health_verdicts{detector=\"stall\"} 1\n"));
        assert!(text.contains("ilp_health_verdicts{detector=\"rto_spiral\"} 0\n"));
        // The latest *sealed* window is ticks 4..8 (delta 2) — not the
        // open 8.. window (delta 4) and not the first one (delta 1).
        assert!(text.contains("ilp_window_start_tick 4\n"));
        assert!(text.contains("ilp_window_ticks 4\n"));
        assert!(text.contains("ilp_window_delta{counter=\"chunks_sent\"} 2\n"));
        // Well-formed exposition: every non-comment line is
        // `name{labels} value` with a parseable numeric value.
        for line in text.lines() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (_, value) = line.rsplit_once(' ').expect("metric line has a value");
            assert!(value.parse::<f64>().is_ok(), "unparseable value in {line:?}");
        }
        // Without sealed windows the window section is absent.
        let mut fresh = Recorder::with_series(8, SeriesConfig { window_ticks: 4, ring: 4 });
        fresh.tick(1);
        assert!(!prometheus_text(&fresh).contains("ilp_window_start_tick"));
    }

    #[test]
    fn write_report_roundtrips() {
        let dir = std::env::temp_dir().join("obs_expo_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        let j = Json::obj().set("ok", Json::Bool(true)).set("n", Json::U64(7));
        write_report(&path, &j).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.ends_with('\n'));
        assert_eq!(crate::json::parse(&text).unwrap(), j);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tmp_sibling_never_survives_a_successful_write() {
        let dir = std::env::temp_dir().join("obs_expo_tmp_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        let tmp = path.with_extension("json.tmp");
        let j = Json::obj().set("n", Json::U64(1));
        // Repeated writes (including overwrites of an existing report)
        // must always consume their tmp sibling.
        for round in 0..3u64 {
            write_report(&path, &j.clone().set("round", Json::U64(round))).unwrap();
            assert!(path.exists(), "round {round}: report missing");
            assert!(!tmp.exists(), "round {round}: tmp sibling survived the rename");
        }
        // Even a stale tmp left by a crashed earlier run is consumed.
        std::fs::write(&tmp, b"{ half-written garbage").unwrap();
        write_report(&path, &j).unwrap();
        assert!(!tmp.exists(), "stale tmp survived");
        assert_eq!(crate::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap(), j);
        std::fs::remove_dir_all(&dir).ok();
    }
}
