//! One run's result line: the single JSON object the benchmark prints last
//! (`correct`, `attempted`, `failed`, `metrics`), plus the parser
//! `--repeat` uses to read it back from a child process.

use std::fmt;

use serde::Value;

use crate::catalog::{self, MetricSpec};

/// Every benchmark failure: a message for stderr. Any `std::error::Error`
/// converts into it, so `?` works across the workspace's error types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchError(pub String);

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl<E: std::error::Error> From<E> for BenchError {
    fn from(e: E) -> Self {
        BenchError(e.to_string())
    }
}

/// Shorthand for a [`BenchError`] from a message.
pub fn fail(message: impl Into<String>) -> BenchError {
    BenchError(message.into())
}

/// Metric values collected during one run, in insertion order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    values: Vec<(&'static MetricSpec, f64)>,
}

impl Metrics {
    /// Records `name = value`, replacing any earlier value.
    ///
    /// # Errors
    ///
    /// A name missing from the catalog, or a non-finite value (JSON
    /// cannot carry it, and it means a measurement went wrong).
    pub fn set(&mut self, name: &str, value: f64) -> Result<(), BenchError> {
        let spec = catalog::spec(name).ok_or_else(|| fail(format!("unknown metric `{name}`")))?;
        if !value.is_finite() {
            return Err(fail(format!("metric `{name}` is not finite ({value})")));
        }
        self.values.retain(|(s, _)| s.name != name);
        self.values.push((spec, value));
        Ok(())
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(s, _)| s.name == name)
            .map(|(_, v)| *v)
    }

    /// Keeps exactly the metrics of `table`, in table order.
    ///
    /// # Errors
    ///
    /// Names the first metric of `table` that was never recorded.
    pub fn select(&self, table: &'static [MetricSpec]) -> Result<Metrics, BenchError> {
        let values = table
            .iter()
            .map(|spec| {
                self.get(spec.name)
                    .map(|v| (spec, v))
                    .ok_or_else(|| fail(format!("metric `{}` was not measured", spec.name)))
            })
            .collect::<Result<_, _>>()?;
        Ok(Metrics { values })
    }

    /// `(name, value, unit)` triples in order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.values.iter().map(|(s, v)| (s.name, *v, s.unit))
    }
}

/// The outcome of one run, as printed on its last line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Every checked output matched its reference bit for bit.
    pub correct: bool,
    /// Requests (served) or calls (in-process) the measured run issued.
    pub attempted: u64,
    /// Attempts that were shed, errored, timed out or mismatched.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Metrics,
}

impl RunResult {
    /// The one-line JSON rendering.
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.to_string(),
                    Value::Map(vec![
                        ("value".to_string(), Value::F64(value)),
                        ("unit".to_string(), Value::Str(unit.to_string())),
                    ]),
                )
            })
            .collect();
        let line = Value::Map(vec![
            ("correct".to_string(), Value::Bool(self.correct)),
            ("attempted".to_string(), Value::U64(self.attempted)),
            ("failed".to_string(), Value::U64(self.failed)),
            ("metrics".to_string(), Value::Map(metrics)),
        ]);
        serde_json::to_string(&line).unwrap_or_default()
    }

    /// Parses a line produced by [`RunResult::to_json`].
    ///
    /// # Errors
    ///
    /// Malformed JSON, a missing key, or a metric outside the catalog.
    pub fn parse(line: &str) -> Result<RunResult, BenchError> {
        let json: Value = serde_json::from_str(line)?;
        let correct = match key(&json, "correct")? {
            Value::Bool(b) => *b,
            _ => return Err(fail("`correct` is not a boolean")),
        };
        let mut metrics = Metrics::default();
        if let Value::Map(entries) = key(&json, "metrics")? {
            for (name, entry) in entries {
                metrics.set(name, number(key(entry, "value")?)?)?;
            }
        }
        Ok(RunResult {
            correct,
            attempted: count(key(&json, "attempted")?)?,
            failed: count(key(&json, "failed")?)?,
            metrics,
        })
    }
}

fn key<'a>(v: &'a Value, name: &str) -> Result<&'a Value, BenchError> {
    match v {
        Value::Map(entries) => entries
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or_else(|| fail(format!("result line lacks `{name}`"))),
        _ => Err(fail(format!("expected an object holding `{name}`"))),
    }
}

fn number(v: &Value) -> Result<f64, BenchError> {
    match v {
        Value::F64(f) => Ok(*f),
        Value::U64(u) => Ok(*u as f64),
        Value::I64(i) => Ok(*i as f64),
        _ => Err(fail("expected a number")),
    }
}

fn count(v: &Value) -> Result<u64, BenchError> {
    match v {
        Value::U64(u) => Ok(*u),
        _ => Err(fail("expected a whole number")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let mut metrics = Metrics::default();
        metrics.set("p50_ms", 1.2034).expect("catalogued");
        metrics.set("setup_s", 0.8127).expect("catalogued");
        let result = RunResult {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics,
        };
        let line = result.to_json();
        assert!(line.starts_with(r#"{"correct":true,"attempted":1000,"failed":0,"metrics":{"#));
        assert!(
            line.contains(r#""p50_ms":{"value":1.2034,"unit":"ms"}"#),
            "{line}"
        );
        assert_eq!(RunResult::parse(&line), Ok(result));
    }

    #[test]
    fn unknown_and_non_finite_metrics_are_refused() {
        let mut metrics = Metrics::default();
        assert!(metrics.set("no_such_metric", 1.0).is_err());
        assert!(metrics.set("p50_ms", f64::NAN).is_err());
        assert!(
            metrics.select(catalog::END_TO_END).is_err(),
            "nothing measured yet"
        );
    }
}
