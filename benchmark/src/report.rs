//! Metric names, units and directions — the vocabulary later issues use —
//! and the two output forms: `metric <name> <value> <unit>` lines for
//! people and `agree`, one JSON object as the last line for the driver.

use obs::Json;

/// Paths in reporting order; index 0 is ILP everywhere in this crate.
pub const PATHS: [&str; 2] = ["ilp", "nonilp"];

/// End-to-end metrics: `(name, unit, better)`. Bounds live in
/// `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str, &str); 8] = [
    ("setup_s", "s", "lower"),
    ("ilp_goodput_MBps", "MB/s", "higher"),
    ("nonilp_goodput_MBps", "MB/s", "higher"),
    ("ilp_rtt_us_p50", "us", "lower"),
    ("ilp_rtt_us_p99", "us", "lower"),
    ("nonilp_rtt_us_p50", "us", "lower"),
    ("nonilp_rtt_us_p99", "us", "lower"),
    ("peak_rss_MB", "MB", "lower"),
];

/// Per-layer metrics: `(name, unit, better)`. A value of 0 on a
/// workload means the layer is not on that workload's path.
pub const PER_LAYER: [(&str, &str, &str); 66] = [
    ("xdr.marshal_ns_per_byte", "ns/B", "lower"),
    ("xdr.unmarshal_ns_per_byte", "ns/B", "lower"),
    ("cipher.encrypt_ns_per_byte", "ns/B", "lower"),
    ("cipher.decrypt_ns_per_byte", "ns/B", "lower"),
    ("checksum.ns_per_byte", "ns/B", "lower"),
    ("memsim.copy_ns_per_byte", "ns/B", "lower"),
    ("host.memcpy_ns_per_byte", "ns/B", "lower"),
    ("core.fused_send_ns_per_byte", "ns/B", "lower"),
    ("core.fused_recv_ns_per_byte", "ns/B", "lower"),
    ("core.fusion_gain_send", "ratio", "higher"),
    ("core.fusion_gain_recv", "ratio", "higher"),
    ("core.ilp_speedup", "ratio", "higher"),
    ("utcp.send_buf_ns", "ns", "lower"),
    ("utcp.send_buf_ns_per_byte", "ns/B", "lower"),
    ("utcp.ilp_commit_ns", "ns", "lower"),
    ("utcp.poll_input_ns", "ns", "lower"),
    ("utcp.finish_recv_ns", "ns", "lower"),
    ("utcp.ack_ns", "ns", "lower"),
    ("utcp.retransmits", "count", "lower"),
    ("utcp.fast_retransmits", "count", "lower"),
    ("utcp.rejects", "count", "lower"),
    ("utcp.cwnd_cuts", "count", "lower"),
    ("utcp.useful_frac", "ratio", "higher"),
    ("kernelpart.send_ns", "ns", "lower"),
    ("kernelpart.recv_ns", "ns", "lower"),
    ("kernelpart.datagrams", "count", "lower"),
    ("kernelpart.dropped", "count", "lower"),
    ("kernelpart.corrupted", "count", "lower"),
    ("kernelpart.queue_peak", "count", "lower"),
    ("netback.codec_encode_ns", "ns", "lower"),
    ("netback.codec_decode_ns", "ns", "lower"),
    ("netback.would_block", "count", "lower"),
    ("netback.sock_calls_per_chunk", "ratio", "lower"),
    ("netback.queue_peak", "count", "lower"),
    ("server.ilp_send_chunk_self_ns", "ns", "lower"),
    ("server.nonilp_send_chunk_self_ns", "ns", "lower"),
    ("server.ilp_recv_chunk_self_ns", "ns", "lower"),
    ("server.nonilp_recv_chunk_self_ns", "ns", "lower"),
    ("server.ilp_unexplained_frac", "ratio", "lower"),
    ("server.nonilp_unexplained_frac", "ratio", "lower"),
    ("server.ilp_chunk_data_frac", "ratio", "higher"),
    ("server.nonilp_chunk_data_frac", "ratio", "higher"),
    ("server.ilp_step_us_p50", "us", "lower"),
    ("server.nonilp_step_us_p50", "us", "lower"),
    ("server.ilp_step_us_p99", "us", "lower"),
    ("server.nonilp_step_us_p99", "us", "lower"),
    ("server.rounds", "count", "lower"),
    ("server.ilp_drain_s", "s", "lower"),
    ("server.nonilp_drain_s", "s", "lower"),
    ("server.fairness", "ratio", "higher"),
    ("obs.recorder_overhead_frac", "ratio", "lower"),
    ("alloc.per_chunk", "count", "lower"),
    ("alloc.bytes_per_chunk", "count", "lower"),
    ("driver.cpu_busy_frac", "ratio", "higher"),
    ("driver.ilp_rep_spread_frac", "ratio", "lower"),
    ("driver.nonilp_rep_spread_frac", "ratio", "lower"),
    ("driver.ilp_data_share", "ratio", "higher"),
    ("driver.nonilp_data_share", "ratio", "higher"),
    ("trace.ilp_overhead_frac", "ratio", "lower"),
    ("trace.nonilp_overhead_frac", "ratio", "lower"),
    ("trace.ilp_root_self_frac", "ratio", "lower"),
    ("trace.nonilp_root_self_frac", "ratio", "lower"),
    ("trace.span_cost_ns", "ns", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.spans_dropped", "count", "lower"),
    ("driver.reps", "count", "higher"),
];

/// Named values collected during a run.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    /// Record `name = value` (non-finite values are stored as 0).
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        let value = if value.is_finite() { value } else { 0.0 };
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// Record a per-path metric `<layer>.<path>_<what>`.
    pub fn set_path(&mut self, layer: &str, path: usize, what: &str, value: f64) {
        self.set(format!("{layer}.{}_{what}", PATHS[path]), value);
    }

    /// The recorded value, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Print every metric of `table` as a `metric` line; a metric the
    /// run did not produce prints as absent.
    pub fn print(&self, table: &[(&str, &str, &str)]) {
        for (name, unit, _) in table {
            match self.get(name) {
                Some(v) => println!("metric {name} {v} {unit}"),
                None => println!("metric {name} absent {unit}"),
            }
        }
    }

    /// The `metrics` object of the driver's result line: every metric of
    /// `table`, absent ones as 0.
    pub fn to_json(&self, table: &[(&str, &str, &str)]) -> Json {
        table.iter().fold(Json::obj(), |obj, (name, unit, _)| {
            let value = self.get(name).unwrap_or(0.0);
            obj.set(
                name,
                Json::obj()
                    .set("value", Json::F64(value))
                    .set("unit", Json::Str((*unit).into())),
            )
        })
    }
}

/// The driver's result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Json) -> String {
    Json::obj()
        .set("correct", Json::Bool(correct))
        .set("attempted", Json::U64(attempted.max(1)))
        .set("failed", Json::U64(failed))
        .set("metrics", metrics)
        .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_the_contract_alphabet() {
        let mut seen = BTreeSet::new();
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
            assert!(matches!(*better, "lower" | "higher"));
        }
    }

    /// `BENCHMARK.json` is written by hand; hold it to these tables.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = obs::json::parse(&text).expect("valid JSON");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String, String)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .expect("string field")
                            .to_string()
                    };
                    (field("name"), field("unit"), field("better"))
                })
                .collect();
            let expected: Vec<(String, String, String)> = table
                .iter()
                .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
                .collect();
            assert_eq!(listed, expected, "{key}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.25);
        m.set_path("server", 1, "drain_s", f64::NAN);
        assert_eq!(m.get("server.nonilp_drain_s"), Some(0.0));
        let line = result_line(true, 0, 0, m.to_json(&END_TO_END));
        let doc = obs::json::parse(&line).unwrap();
        assert_eq!(
            doc.get("attempted").and_then(Json::as_f64),
            Some(1.0),
            "attempted is at least 1"
        );
        let metrics = doc.get("metrics").unwrap();
        assert_eq!(
            metrics
                .get("setup_s")
                .unwrap()
                .get("value")
                .and_then(Json::as_f64),
            Some(0.25)
        );
        assert_eq!(
            metrics
                .get("peak_rss_MB")
                .unwrap()
                .get("unit")
                .and_then(Json::as_str),
            Some("MB")
        );
    }
}
