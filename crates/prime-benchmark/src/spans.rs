//! Per-request spans of a traced run, kept in memory while the workload
//! runs and written out as JSON lines when it ends.
//!
//! Spans are recorded from the benchmark's side of each layer boundary
//! (around its calls into the wire codec, the socket and the engine), so
//! the measured program itself carries no instrumentation. All spans of
//! one request share its `id`; `parent` names the span that caused it,
//! which is enough to compute each layer's self time offline.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Duration;

use serde::Value;

use crate::report::BenchError;

/// One timed interval of one request, relative to the run's start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The request (or call) the span belongs to.
    pub id: u64,
    /// What was timed.
    pub name: &'static str,
    /// Interval start.
    pub start: Duration,
    /// Interval end.
    pub end: Duration,
    /// Name of the enclosing span of the same request, if any.
    pub parent: Option<&'static str>,
}

impl Span {
    fn to_json(self) -> String {
        let us = |d: Duration| Value::F64(d.as_secs_f64() * 1e6);
        let line = Value::Map(vec![
            ("id".to_string(), Value::U64(self.id)),
            ("name".to_string(), Value::Str(self.name.to_string())),
            ("start_us".to_string(), us(self.start)),
            ("end_us".to_string(), us(self.end)),
            (
                "parent".to_string(),
                self.parent
                    .map_or(Value::Null, |p| Value::Str(p.to_string())),
            ),
        ]);
        serde_json::to_string(&line).unwrap_or_default()
    }
}

/// Writes `spans` to `path` (one JSON object per line), creating the
/// parent directory.
///
/// # Errors
///
/// Any filesystem error, including one surfaced by the final flush.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> Result<(), BenchError> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for span in spans {
        writeln!(out, "{}", span.to_json())?;
    }
    out.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_render_as_one_object_per_line() {
        let span = Span {
            id: 7,
            name: "encode",
            start: Duration::from_micros(10),
            end: Duration::from_micros(12),
            parent: Some("request"),
        };
        assert_eq!(
            span.to_json(),
            r#"{"id":7,"name":"encode","start_us":10.0,"end_us":12.0,"parent":"request"}"#
        );
        let root = Span {
            parent: None,
            name: "request",
            ..span
        };
        assert!(root.to_json().ends_with(r#""parent":null}"#));
    }
}
