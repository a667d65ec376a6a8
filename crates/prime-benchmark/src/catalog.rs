//! The benchmark's fixed vocabulary: workloads and metrics with their
//! units, directions and regression bounds. `BENCHMARK.json` at the repo
//! root carries the same table; a unit test keeps the two in step.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory, failures).
    Lower,
    /// Larger values are better (throughput, batching).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSpec {
    /// Stable metric name.
    pub name: &'static str,
    /// Unit the value is expressed in.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end metrics only: the share of the baseline median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every untraced run of every workload.
/// Timing bounds are wide because the reference host (2 shared vCPUs)
/// has multi-second episodes in which the code runs ~1.6x slower; the
/// crate README records the measured spreads.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("p50_ms", "ms", Lower, 0.25),
    e2e("p90_ms", "ms", Lower, 0.25),
    e2e("throughput_ips", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.05),
];

/// Per-layer metrics, reported by every traced run of every workload.
/// Each is defined for all four workloads (see the crate README for how
/// the serving layers read on the in-process ones).
pub const PER_LAYER: &[MetricSpec] = &[
    layer("runner.infer_ms", "ms", Lower),
    layer("runner.fc_ms", "ms", Lower),
    layer("runner.stage_max_ms", "ms", Lower),
    layer("runner.conv_frac", "frac", Lower),
    layer("runner.conv_evaluate_frac", "frac", Lower),
    layer("system.infer1_ms_p50", "ms", Lower),
    layer("system.batch_ms_p50", "ms", Lower),
    layer("system.noisy1_ms_p50", "ms", Lower),
    layer("system.serial_ips", "1/s", Higher),
    layer("system.parallel_ips", "1/s", Higher),
    layer("system.fill_drain_ms", "ms", Lower),
    layer("batcher.window_wait_ms_p50", "replay_ms", Lower),
    layer("batcher.window_wait_ms_p90", "replay_ms", Lower),
    layer("batcher.replay_mean_batch", "count", Higher),
    layer("server.batches", "count", Lower),
    layer("server.mean_batch", "count", Higher),
    layer("server.shed", "count", Lower),
    layer("server.failed", "count", Lower),
    layer("serve.digital_p50_ms", "ms", Lower),
    layer("serve.p99_ms", "ms", Lower),
    layer("serve.unattributed_ms_p50", "ms", Lower),
    layer("wire.encode_us_p50", "us", Lower),
    layer("wire.decode_us_p50", "us", Lower),
    layer("wire.request_bytes", "bytes", Lower),
    layer("wire.response_bytes", "bytes", Lower),
    layer("deploy.map_ms", "ms", Lower),
    layer("deploy.verify1_ms", "ms", Lower),
    layer("deploy.verify3_ms", "ms", Lower),
    layer("deploy.search_ms", "ms", Lower),
    layer("deploy.wall_ms", "ms", Lower),
    layer("deploy.bank_state_mb", "MB", Lower),
    layer("deploy.unique_tiles", "count", Lower),
    layer("deploy.mats_used", "count", Lower),
    layer("sim.image_ns", "sim_ns", Lower),
    layer("sim.interval_ns", "sim_ns", Lower),
    layer("load.sent", "count", Higher),
    layer("load.noisy_sent", "count", Higher),
    layer("load.lag_ms_p50", "ms", Lower),
    layer("load.lag_ms_p99", "ms", Lower),
    layer("trace.overhead_frac", "frac", Lower),
];

/// Looks a metric up by name in either table.
pub fn spec(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use serde::Value;

    fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
        match v {
            Value::Map(entries) => entries
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`")),
            _ => panic!("expected an object around `{key}`"),
        }
    }

    fn items(v: &Value) -> &[Value] {
        match v {
            Value::Seq(items) => items,
            _ => panic!("expected an array"),
        }
    }

    fn text(v: &Value) -> &str {
        match v {
            Value::Str(s) => s,
            _ => panic!("expected a string"),
        }
    }

    fn number(v: &Value) -> f64 {
        match v {
            Value::F64(f) => *f,
            Value::U64(u) => *u as f64,
            _ => panic!("expected a number"),
        }
    }

    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let raw = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let json: Value = serde_json::from_str(&raw).expect("BENCHMARK.json parses");

        let workloads: Vec<&str> = items(get(&json, "workloads"))
            .iter()
            .map(|w| text(get(w, "name")))
            .collect();
        let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, expected);

        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = items(get(&json, key));
            assert_eq!(listed.len(), table.len(), "{key} length");
            for (entry, spec) in listed.iter().zip(table) {
                assert_eq!(text(get(entry, "name")), spec.name, "{key}");
                assert_eq!(text(get(entry, "unit")), spec.unit, "{}", spec.name);
                assert_eq!(
                    text(get(entry, "better")),
                    spec.better.as_str(),
                    "{}",
                    spec.name
                );
                if let Some(bound) = spec.bound {
                    assert_eq!(number(get(entry, "bound")), bound, "{}", spec.name);
                }
            }
        }
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        for name in &names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
        assert!(spec("setup_s").is_some_and(|m| m.unit == "s" && m.better == Better::Lower));
    }
}
