//! The metric catalogue and the one-line JSON result.
//!
//! [`END_TO_END`] and [`per_layer`] are the names `BENCHMARK.json`
//! declares (a test keeps the two in step). An untraced run prints every
//! end-to-end metric, a traced run every per-layer one; a per-layer
//! metric of a layer the workload does not load reads 0.

use std::collections::BTreeMap;

#[cfg(test)]
use tbstc::json::Json;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_ops_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// The eight registry architectures, in registry order (the per-arch
/// simulator metrics are keyed by these names).
pub const ARCH_NAMES: [&str; 8] = [
    "tc",
    "stc",
    "vegeta",
    "highlight",
    "rm-stc",
    "tb-stc",
    "dvpe-fan",
    "sgcn",
];

/// The simulator stages of one layer point, in pipeline order. Each
/// reports a median per call (`_us`), a total (`_total_s`) and a share of
/// the workload's untraced op time (`_share`).
pub const SIM_STAGES: [&str; 7] = [
    "layer_build",
    "plan",
    "price",
    "schedule",
    "memory",
    "layer",
    "unattributed",
];

/// Per-layer metrics that are not per stage or per arch: `(name, unit)`.
const PER_LAYER_FIXED: [(&str, &str); 41] = [
    // The workload's own tail: per layer because on a shared host it
    // does not repeat within a tenth from run to run (see README.md).
    ("latency_p99_us", "us"),
    ("sim.layers", "count"),
    ("sim.blocks", "count"),
    ("sim.sched_tasks", "count"),
    ("sim.schedule_ns_per_task", "ns"),
    ("sim.point_untraced_us", "us"),
    ("sim.point_traced_us", "us"),
    ("sim.trace_overhead", "ratio"),
    ("sim.reconcile_ratio", "ratio"),
    ("sim.attributed_ratio", "ratio"),
    ("runner.worker_utilization", "ratio"),
    ("runner.memo_hit_ratio", "ratio"),
    ("runner.point_max_ms", "ms"),
    ("runner.execute_us", "us"),
    ("runner.chunk_us", "us"),
    ("core.jobspec_parse_us", "us"),
    ("serve.server_latency_mean_us", "us"),
    ("serve.frontend_mean_us", "us"),
    ("serve.lru_get_us", "us"),
    ("serve.store_get_us", "us"),
    ("serve.store_put_us", "us"),
    ("serve.hit_ratio.mem", "ratio"),
    ("serve.hit_ratio.disk", "ratio"),
    ("serve.coalesced_ratio", "ratio"),
    ("serve.batched_ratio", "ratio"),
    ("serve.rejected", "count"),
    ("serve.worker_utilization", "ratio"),
    ("serve.job_status_put_us", "us"),
    ("serve.memo_append_us", "us"),
    ("serve.sweep_chunks", "count"),
    ("client.polls_per_job", "count"),
    ("client.poll_interval_ms", "ms"),
    ("client.done_refetches", "count"),
    ("client.mean_us", "us"),
    ("cold.throughput_ops_per_s", "1/s"),
    ("cold.latency_p50_us", "us"),
    ("cold.latency_p99_us", "us"),
    ("durable.throughput_ops_per_s", "1/s"),
    ("durable.latency_p50_us", "us"),
    ("durable.latency_p99_us", "us"),
    ("failed_ratio", "ratio"),
];

/// Every per-layer metric, `(name, unit)`, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::with_capacity(SIM_STAGES.len() * 3 + ARCH_NAMES.len() * 2 + 40);
    for stage in SIM_STAGES {
        out.push((format!("sim.{stage}_us"), "us"));
        out.push((format!("sim.{stage}_total_s"), "s"));
        out.push((format!("sim.{stage}_share"), "ratio"));
    }
    for arch in ARCH_NAMES {
        out.push((format!("sim.layer_us.{arch}"), "us"));
        out.push((format!("sim.schedule_us.{arch}"), "us"));
    }
    out.extend(PER_LAYER_FIXED.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// The result of one run: the benchmark's last line of output.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Whether every output check passed and no op failed.
    pub correct: bool,
    /// Ops attempted (model points, HTTP requests or durable jobs).
    pub attempted: u64,
    /// Ops that failed (error, refusal, unfinished, or a wrong output).
    pub failed: u64,
    /// `(name, unit, value)` in catalogue order.
    pub metrics: Vec<(String, String, f64)>,
}

impl Report {
    /// Builds the report for one catalogue (`declared`), taking each
    /// value from `values`; a declared name without a value reads 0.
    pub fn new(
        attempted: u64,
        failed: u64,
        checks_passed: bool,
        declared: &[(String, &str)],
        values: &BTreeMap<String, f64>,
    ) -> Report {
        let metrics = declared
            .iter()
            .map(|(name, unit)| {
                let v = values.get(name).copied().unwrap_or(0.0);
                (
                    name.clone(),
                    unit.to_string(),
                    if v.is_finite() { v } else { 0.0 },
                )
            })
            .collect();
        Report {
            correct: checks_passed && failed == 0 && attempted > 0,
            attempted,
            failed,
            metrics,
        }
    }

    /// The single JSON line the benchmark ends its output with. Values
    /// print in Rust's shortest round-trip form, with all their digits.
    pub fn to_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Parses a line written by [`Report::to_line`]. Metrics come back
    /// sorted by name.
    #[cfg(test)]
    pub fn parse(line: &str) -> Result<Report, String> {
        let v = Json::parse(line).map_err(|e| e.to_string())?;
        let field = |k: &str| v.get(k).ok_or_else(|| format!("missing `{k}`"));
        let correct = field("correct")?.as_bool().ok_or("`correct` not a bool")?;
        let attempted = field("attempted")?
            .as_u64()
            .ok_or("`attempted` not an int")?;
        let failed = field("failed")?.as_u64().ok_or("`failed` not an int")?;
        let obj = field("metrics")?
            .as_obj()
            .ok_or("`metrics` not an object")?;
        let mut metrics = Vec::with_capacity(obj.len());
        for (name, m) in obj {
            let value = m.get("value").and_then(Json::as_f64);
            let unit = m.get("unit").and_then(Json::as_str);
            match (value, unit) {
                (Some(value), Some(unit)) => metrics.push((name.clone(), unit.to_string(), value)),
                _ => return Err(format!("metric `{name}` needs a value and a unit")),
            }
        }
        Ok(Report {
            correct,
            attempted,
            failed,
            metrics,
        })
    }
}

/// A JSON number: integral values keep a `.0` so they parse back as
/// floats, everything else prints in shortest round-trip form.
fn num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn end_to_end() -> Vec<(String, &'static str)> {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    }

    #[test]
    fn report_parses_back_into_names_and_units() {
        for declared in [end_to_end(), per_layer()] {
            let values: BTreeMap<String, f64> = declared
                .iter()
                .enumerate()
                .map(|(i, (n, _))| (n.clone(), 0.1 + i as f64 * 1.25e-3))
                .collect();
            let report = Report::new(12, 0, true, &declared, &values);
            let back = Report::parse(&report.to_line()).expect("own line parses");
            assert!(back.correct);
            assert_eq!((back.attempted, back.failed), (12, 0));
            let mut want: Vec<(String, String, f64)> = report.metrics.clone();
            want.sort_by(|a, b| a.0.cmp(&b.0));
            assert_eq!(back.metrics, want, "names, units and values round-trip");
        }
    }

    #[test]
    fn failures_and_failed_checks_make_the_report_incorrect() {
        let declared = end_to_end();
        let values = BTreeMap::new();
        assert!(Report::new(3, 0, true, &declared, &values).correct);
        assert!(!Report::new(3, 1, true, &declared, &values).correct);
        assert!(!Report::new(3, 0, false, &declared, &values).correct);
        assert!(!Report::new(0, 0, true, &declared, &values).correct);
        // Missing and non-finite values read 0, never NaN in the JSON.
        let nan: BTreeMap<String, f64> = [("setup_s".to_string(), f64::NAN)].into();
        let line = Report::new(1, 0, true, &declared, &nan).to_line();
        assert!(
            line.contains("\"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}"),
            "{line}"
        );
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = Json::parse(text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(Json::as_str).expect("name and unit");
                    (field("name").to_string(), field("unit").to_string())
                })
                .collect()
        };
        let own = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
            v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), own(end_to_end()));
        assert_eq!(listed("per_layer"), own(per_layer()));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }
}
