//! Metric names, the per-run report, and its two renderings: a readable
//! summary (every metric by name and unit, every check) and the one-line
//! JSON result that ends standard output.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics every workload reports on every untraced run: the
/// gated set in `BENCHMARK.json`. Each is measured on the workload itself;
/// a job is what the workload's client waits on (see `METRICS.md`).
pub const GATED: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("job_latency_p50_ms", "ms"),
    ("node_slots_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// End-to-end metrics printed in the summary but not in the result: ones
/// that some workload cannot measure (a p90 needs 100 jobs; an E12 run
/// holds a handful of campaign calls; only the service is polled or
/// replays), and `failed_ratio`, which is zero by design and travels as
/// the result's `failed`/`attempted`.
pub const SUMMARY_ONLY: &[(&str, &str)] = &[
    ("failed_ratio", "ratio"),
    ("job_latency_p90_ms", "ms"),
    ("replay_latency_p50_ms", "ms"),
    ("poll_latency_p50_ms", "ms"),
    ("poll_latency_p99_ms", "ms"),
    ("slot_ms_p50", "ms"),
    ("slot_ms_p90", "ms"),
];

/// Per-layer metrics of the traced run. A layer a workload does not
/// exercise reports 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.queue_wait_ms_p50", "ms"),
    ("server.job_run_ms_p50", "ms"),
    ("server.results_fetch_ms_p50", "ms"),
    ("server.router_handle_us_p50", "us"),
    ("server.transport_us_p50", "us"),
    ("server.parse_us_p50", "us"),
    ("server.requests_total", "count"),
    ("server.error_responses", "count"),
    ("server.unaccounted_ms_p50", "ms"),
    ("loadgen.lag_ms_p99", "ms"),
    ("loadgen.backlog_jobs", "count"),
    ("campaign.fsync_ms_p50", "ms"),
    ("campaign.replay_ms_p50", "ms"),
    ("campaign.restore_ms", "ms"),
    ("campaign.wave_s", "s"),
    ("campaign.unaccounted_ms", "ms"),
    ("campaign.waves", "count"),
    ("campaign.fsyncs", "count"),
    ("network.generate_s", "s"),
    ("engine.build_s", "s"),
    ("network.footprint_mib", "MiB"),
    ("engine.state_mib", "MiB"),
    ("engine.spectrum_ns_per_slot", "ns"),
    ("engine.collect_ns_per_slot", "ns"),
    ("engine.resolve_ns_per_slot", "ns"),
    ("engine.deliver_ns_per_slot", "ns"),
    ("engine.unaccounted_ns_per_slot", "ns"),
    ("engine.node_slots", "count"),
    ("engine.deliveries_per_slot", "count"),
    ("engine.delivery_ratio", "ratio"),
    ("engine.pu_blocked_listens", "count"),
];

/// `true` when `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let first_ok = name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn declared(name: &str) -> bool {
    GATED.iter().chain(SUMMARY_ONLY).chain(PER_LAYER).any(|(n, _)| *n == name)
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Human-readable context per metric (sample counts, percentiles).
    detail: BTreeMap<&'static str, String>,
    /// Named output checks in first-run order: how often each ran, and
    /// the failures it met.
    checks: Vec<(String, u64, Vec<String>)>,
    pub attempted: u64,
    pub failed: u64,
    /// Free-form lines for the summary (tracing overhead inputs, digests).
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric value. Panics on an undeclared name: every metric
    /// the benchmark emits is listed above.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(declared(name), "metric {name} is not declared");
        self.values.insert(name, value);
    }

    pub fn set_detail(&mut self, name: &'static str, value: f64, detail: String) {
        self.set(name, value);
        self.detail.insert(name, detail);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Records one run of the named output check; repeated runs of one
    /// check (one per job, say) fold into one line. A failed check counts
    /// as a failed operation.
    pub fn check(&mut self, name: impl Into<String>, result: Result<(), String>) {
        let name = name.into();
        self.attempted += 1;
        let i = match self.checks.iter().position(|(n, _, _)| *n == name) {
            Some(i) => i,
            None => {
                self.checks.push((name, 0, Vec::new()));
                self.checks.len() - 1
            }
        };
        self.checks[i].1 += 1;
        if let Err(why) = result {
            self.failed += 1;
            self.checks[i].2.push(why);
        }
    }

    /// Shorthand for a boolean check with a failure message.
    pub fn ensure(&mut self, name: impl Into<String>, ok: bool, why: impl FnOnce() -> String) {
        self.check(name, if ok { Ok(()) } else { Err(why()) });
    }

    pub fn all_checks_pass(&self) -> bool {
        self.checks.iter().all(|(_, _, failures)| failures.is_empty())
    }

    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The readable summary: every declared metric by name and unit
    /// (`n/a` where this workload has no such quantity), then the checks.
    pub fn summary(&self, header: &str) -> String {
        let mut out = format!("# {header}\n");
        for (section, list) in [("e2e", GATED), ("e2e", SUMMARY_ONLY), ("layer", PER_LAYER)] {
            for (name, unit) in list {
                let value = if *name == "failed_ratio" {
                    Some(self.failed_ratio())
                } else {
                    self.get(name)
                };
                match value {
                    Some(v) => write!(out, "{section} {name} = {v} {unit}").unwrap(),
                    None => write!(out, "{section} {name} = n/a {unit}").unwrap(),
                }
                if let Some(d) = self.detail.get(name) {
                    write!(out, "  ({d})").unwrap();
                }
                out.push('\n');
            }
        }
        for note in &self.notes {
            writeln!(out, "note {note}").unwrap();
        }
        for (name, runs, failures) in &self.checks {
            match failures.first() {
                None => writeln!(out, "check {name}: ok ({runs} run)").unwrap(),
                Some(why) => {
                    writeln!(out, "check {name}: FAILED {}/{runs}: {why}", failures.len()).unwrap()
                }
            }
        }
        writeln!(out, "ops attempted={} failed={}", self.attempted, self.failed).unwrap();
        out
    }

    /// The result line. `traced` selects the per-layer set (missing layers
    /// read 0); otherwise the gated end-to-end set, each of which must be
    /// present and non-zero.
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        let mut metrics = Vec::new();
        let list = if traced { PER_LAYER } else { GATED };
        for (name, unit) in list {
            if !valid_name(name) {
                return Err(format!("illegal metric name {name:?}"));
            }
            let value = match (self.get(name), traced) {
                (Some(v), _) if v.is_finite() => v,
                (None, true) => 0.0,
                (v, _) => return Err(format!("metric {name} has no usable value ({v:?})")),
            };
            if !traced && value <= 0.0 {
                return Err(format!("end-to-end metric {name} must be positive, got {value}"));
            }
            metrics.push(format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
        }
        let correct = self.all_checks_pass();
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names the benchmark's definition lists, by section.
    const NAMED_E2E: &[&str] = &[
        "setup_s",
        "failed_ratio",
        "job_latency_p50_ms",
        "job_latency_p90_ms",
        "replay_latency_p50_ms",
        "poll_latency_p50_ms",
        "poll_latency_p99_ms",
        "node_slots_per_s",
        "slot_ms_p50",
        "slot_ms_p90",
        "peak_rss_mib",
    ];

    #[test]
    fn metric_names_are_legal_and_unique() {
        let all: Vec<&str> =
            GATED.iter().chain(SUMMARY_ONLY).chain(PER_LAYER).map(|(n, _)| *n).collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "a metric name is declared twice");
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".leading"));
        assert!(!valid_name(""));
    }

    #[test]
    fn summary_names_every_metric_even_when_absent() {
        let mut r = Report::default();
        r.set("setup_s", 0.5);
        let text = r.summary("test");
        for name in NAMED_E2E.iter().chain(PER_LAYER.iter().map(|(n, _)| n)) {
            assert!(text.contains(&format!(" {name} = ")), "summary lacks {name}");
        }
        assert!(text.contains("e2e setup_s = 0.5 s"), "{text}");
        assert!(text.contains("e2e failed_ratio = 0 ratio"), "{text}");
    }

    #[test]
    fn result_line_requires_every_gated_metric() {
        let mut r = Report::default();
        for (i, (name, _)) in GATED.iter().enumerate() {
            assert!(r.result_line(false).is_err(), "passes before {name} is set");
            r.set(name, 1.0 + i as f64);
        }
        let line = r.result_line(false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"), "{line}");
        assert!(line.contains("\"peak_rss_mib\": {\"value\": 4.0, \"unit\": \"MiB\"}"), "{line}");
        r.set("peak_rss_mib", 0.0);
        assert!(r.result_line(false).is_err(), "a zero end-to-end value must be refused");
    }

    #[test]
    fn traced_result_fills_unexercised_layers_with_zero() {
        let mut r = Report::default();
        r.set("engine.resolve_ns_per_slot", 87.5);
        r.ensure("x", false, || "boom".into());
        r.ensure("x", true, || unreachable!());
        assert!(r.summary("t").contains("check x: FAILED 1/2: boom"));
        let line = r.result_line(true).unwrap();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"), "{line}");
        assert!(line.contains("\"engine.resolve_ns_per_slot\": {\"value\": 87.5"), "{line}");
        assert!(line.contains("\"server.parse_us_p50\": {\"value\": 0.0"), "{line}");
    }

    #[test]
    fn benchmark_definition_lists_the_declared_metrics() {
        let def = include_str!("../../BENCHMARK.json");
        let section = |key: &str| -> Vec<String> {
            let start = def.find(&format!("\"{key}\"")).expect("section present");
            let body = &def[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.match_indices("\"name\": \"")
                .map(|(i, m)| {
                    let rest = &body[i + m.len()..];
                    rest[..rest.find('"').unwrap()].to_string()
                })
                .collect()
        };
        let gated: Vec<String> = GATED.iter().map(|(n, _)| n.to_string()).collect();
        let layers: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(section("end_to_end"), gated);
        assert_eq!(section("per_layer"), layers);
        for (name, unit) in GATED.iter().chain(PER_LAYER) {
            assert!(
                def.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} must carry unit {unit} in BENCHMARK.json"
            );
        }
    }
}
