//! The run report and its JSON line.

use crate::stats::{valid_metric_name, valid_unit};

/// End-to-end metrics, printed by every `--trace 0` run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ops_per_s", "1/s"),
    ("primary_us", "us"),
    ("secondary_us", "us"),
    ("job_ms", "ms"),
];

/// Per-layer metrics, printed by every `--trace 1` run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("decide.parse_us", "us"),
    ("decide.core_us", "us"),
    ("decide.chase_us", "us"),
    ("decide.chase_atoms", "count"),
    ("decide.contain_us", "us"),
    ("decide.acyclic_us", "us"),
    ("decide.witness_atoms", "count"),
    ("decide.decide_us", "us"),
    ("serve.parse_us", "us"),
    ("serve.plan_us", "us"),
    ("serve.snapshot_us", "us"),
    ("serve.match_sets_us", "us"),
    ("serve.semijoin_up_us", "us"),
    ("serve.semijoin_down_us", "us"),
    ("serve.join_back_us", "us"),
    ("serve.search_us", "us"),
    ("serve.decode_us", "us"),
    ("serve.rows_out", "count"),
    ("serve.plans_built", "count"),
    ("serve.plan_cache_hits", "count"),
    ("serve.morsels_dispatched", "count"),
    ("serve.morsel_steals", "count"),
    ("serve.pool_wait_us", "us"),
    ("serve.request_us", "us"),
    ("serve.traced_request_us", "us"),
    ("serve.fixpoint_nocert_ms", "ms"),
    ("serve.certificate_ms", "ms"),
    ("serve.check_ms", "ms"),
    ("serve.naive_fixpoint_ms", "ms"),
    ("serve.derived_facts", "count"),
    ("serve.datalog_iterations", "count"),
    ("ingest.parse_us", "us"),
    ("ingest.apply_us", "us"),
    ("ingest.wal_us", "us"),
    ("ingest.fsync_us", "us"),
    ("ingest.view_refresh_us", "us"),
    ("ingest.view_delta_rows", "count"),
    ("ingest.checkpoint_ms", "ms"),
    ("ingest.snapshot_bytes", "B"),
    ("ingest.replayed_rows", "count"),
    ("ingest.wal_bytes_per_row", "B"),
    ("ingest.heap_mb", "MiB"),
];

/// One run's outcome.
#[derive(Debug, Clone)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

impl Default for Report {
    fn default() -> Report {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_owned(), value));
    }

    /// Records a failed correctness check (and says what it was).
    pub fn wrong(&mut self, message: impl AsRef<str>) {
        eprintln!("sacbench: WRONG: {}", message.as_ref());
        self.correct = false;
    }

    pub fn absorb(&mut self, other: Report) {
        self.correct &= other.correct;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.metrics.extend(other.metrics);
    }

    /// The report as one JSON line.  Panics if the metrics are not exactly
    /// the declared set for the run kind, or a value is not finite.
    pub fn to_json(&self, traced: bool) -> String {
        let declared = if traced { PER_LAYER } else { END_TO_END };
        assert_eq!(
            self.metrics.len(),
            declared.len(),
            "a run reports each declared metric once"
        );
        let mut fields = Vec::new();
        for &(name, unit) in declared {
            let values: Vec<f64> = self
                .metrics
                .iter()
                .filter(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .collect();
            assert_eq!(
                values.len(),
                1,
                "metric {name} reported {} times",
                values.len()
            );
            assert!(values[0].is_finite(), "metric {name} is not finite");
            assert!(valid_metric_name(name) && valid_unit(unit));
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(values[0])
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        )
    }
}

/// A finite `f64` in JSON form, with every digit Rust's shortest
/// round-trip formatting gives.
fn json_number(value: f64) -> String {
    let text = format!("{value}");
    if text.contains('.') || text.contains('e') {
        text
    } else {
        format!("{text}.0")
    }
}

/// The process's high-water resident set size in MiB (`VmHWM`), less the
/// file-backed and shared pages resident now (`RssFile`, `RssShmem`): the
/// mapped binary and libraries, whose resident share moves with the page
/// cache from run to run, while the program's own memory does not.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = |field: &str| {
        status
            .lines()
            .find_map(|line| line.strip_prefix(field))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .unwrap_or(0.0)
    };
    (kb("VmHWM:") - kb("RssFile:") - kb("RssShmem:")) / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_metric_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
            assert!(seen.insert(name), "{name} declared twice");
        }
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let count = |section: &str| {
            let start = text.find(&format!("\"{section}\"")).unwrap();
            let rest = &text[start..];
            let end = rest.find(']').unwrap();
            rest[..end].matches("\"name\"").count()
        };
        assert_eq!(count("end_to_end"), END_TO_END.len());
        assert_eq!(count("per_layer"), PER_LAYER.len());
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn json_line_has_the_fixed_keys() {
        let mut report = Report {
            attempted: 3,
            failed: 1,
            ..Report::default()
        };
        for &(name, _) in END_TO_END {
            report.metric(name, 1.5);
        }
        let line = report.to_json(false);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert_eq!(json_number(2.0), "2.0");
        assert_eq!(json_number(0.125), "0.125");
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mb() > 0.0);
    }
}
