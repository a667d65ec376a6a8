//! Shared diagnostics engine for both analyzer passes.
//!
//! Every finding — whether from the deployment verifier or the source
//! lint — is a [`Diagnostic`]: a stable [`Code`], a [`Severity`], a
//! [`Span`] locating the finding, and a human-readable message. The
//! codes are part of the repo's public contract: tests pin them, the
//! allowlist references them, and DESIGN.md §10 catalogs them. Do not
//! renumber existing codes; add new ones at the end of each range.

use std::fmt;

use serde::{Deserialize, Serialize};

/// How bad a finding is.
///
/// `Error` findings abort deployment (and fail `prime-lint`); `Warning`
/// findings are reported but do not block; `Info` is purely advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// Advisory only.
    Info,
    /// Suspicious but legal; deployment proceeds.
    Warning,
    /// Invariant violation; deployment refuses, lint exits nonzero.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        f.write_str(s)
    }
}

/// Stable diagnostic codes.
///
/// `P001`–`P049` are deployment-verifier codes, `P050`–`P099` are
/// source-lint codes. The full catalog lives in DESIGN.md §10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Code {
    /// Spec / mapping disagreement (layer count or per-layer spec drift).
    P001,
    /// Per-layer crossbar tiling accounting is wrong for the target.
    P002,
    /// Mapping exceeds total ReRAM capacity (mats or banks).
    P003,
    /// A bank is asked to hold more compute mats than it has.
    P004,
    /// Pipeline stage banks are not strictly increasing.
    P005,
    /// Pipeline stages do not cover the layers contiguously.
    P006,
    /// Scale class and pipeline shape disagree.
    P007,
    /// Morphing-state conflict: a mat would be both memory- and compute-mapped.
    P008,
    /// A stage's working set overflows the FF buffer subarray.
    P009,
    /// Composing scheme exceeds the physical MLC / input-driver budget.
    P010,
    /// Po truncation discards result bits (paper §III-D, lossy by design).
    P011,
    /// Positive/negative pair-array accounting is inconsistent.
    P012,
    /// FF utilization is suspiciously low.
    P013,
    /// Utilization accounting is out of range.
    P014,
    /// Layer has no in-memory implementation and will fall back to the host.
    P015,
    /// Mapping is empty.
    P016,
    /// Conv kernel replication is illegal for the mat geometry (§IV-B).
    P018,
    /// A conv/pool im2col window cannot be staged through the FF buffer.
    P019,
    /// Conv row ring exceeds the residency budget; the runner falls back
    /// to per-pixel window staging for that layer.
    P020,
    /// Shared-tile reference count does not fit the mat-table counter.
    P022,
    /// Program-plan op reads FF-buffer words its staging region never
    /// defines (use before stage).
    P024,
    /// Two live program-plan buffer regions overlap (or a live write
    /// lands past the buffer capacity).
    P025,
    /// Resident-conv row ring would clobber a still-live halo row (ring
    /// schedule deviates from the `conv_staging` contract).
    P026,
    /// Interval analysis cannot prove the layer's merged sums fit the
    /// 64-bit precision-control register before the §III-D clamp.
    P027,
    /// Layer's §III-D precision budget is vacuous: the statically
    /// possible output interval collapses to zero after requantization.
    P028,
    /// A write-armed tile is reachable through a shared `PairStore`
    /// alias (copy-on-write has not triggered).
    P029,
    /// Pipeline stage-channel graph can deadlock or stall (broken stage
    /// chain or exhausted recycle credits).
    P030,
    /// A model was registered for serving but its deployment was
    /// rejected; the serving layer must refuse to expose it.
    P031,
    /// Allocation in a `*_into` hot-kernel function.
    P050,
    /// Panic path (`unwrap`/`expect`/`panic!`/…) in non-test library code.
    P051,
    /// `unsafe` code.
    P052,
    /// Allowlist entry matched nothing.
    P053,
    /// Lossy `as` cast in a `*_into` hot kernel or the analog datapath.
    P054,
}

impl Code {
    /// Every code, in catalog order.
    pub const ALL: [Code; 33] = [
        Code::P001,
        Code::P002,
        Code::P003,
        Code::P004,
        Code::P005,
        Code::P006,
        Code::P007,
        Code::P008,
        Code::P009,
        Code::P010,
        Code::P011,
        Code::P012,
        Code::P013,
        Code::P014,
        Code::P015,
        Code::P016,
        Code::P018,
        Code::P019,
        Code::P020,
        Code::P022,
        Code::P024,
        Code::P025,
        Code::P026,
        Code::P027,
        Code::P028,
        Code::P029,
        Code::P030,
        Code::P031,
        Code::P050,
        Code::P051,
        Code::P052,
        Code::P053,
        Code::P054,
    ];

    /// Stable string form (`"P001"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Code::P001 => "P001",
            Code::P002 => "P002",
            Code::P003 => "P003",
            Code::P004 => "P004",
            Code::P005 => "P005",
            Code::P006 => "P006",
            Code::P007 => "P007",
            Code::P008 => "P008",
            Code::P009 => "P009",
            Code::P010 => "P010",
            Code::P011 => "P011",
            Code::P012 => "P012",
            Code::P013 => "P013",
            Code::P014 => "P014",
            Code::P015 => "P015",
            Code::P016 => "P016",
            Code::P018 => "P018",
            Code::P019 => "P019",
            Code::P020 => "P020",
            Code::P022 => "P022",
            Code::P024 => "P024",
            Code::P025 => "P025",
            Code::P026 => "P026",
            Code::P027 => "P027",
            Code::P028 => "P028",
            Code::P029 => "P029",
            Code::P030 => "P030",
            Code::P031 => "P031",
            Code::P050 => "P050",
            Code::P051 => "P051",
            Code::P052 => "P052",
            Code::P053 => "P053",
            Code::P054 => "P054",
        }
    }

    /// Short title used in rendered output.
    pub fn title(self) -> &'static str {
        match self {
            Code::P001 => "spec/mapping mismatch",
            Code::P002 => "layer tiling mismatch",
            Code::P003 => "memory capacity exceeded",
            Code::P004 => "bank capacity exceeded",
            Code::P005 => "pipeline banks not increasing",
            Code::P006 => "pipeline coverage broken",
            Code::P007 => "scale/pipeline inconsistency",
            Code::P008 => "morphing-state conflict",
            Code::P009 => "FF buffer overflow",
            Code::P010 => "precision budget exceeded",
            Code::P011 => "Po truncation loss",
            Code::P012 => "pair-array accounting broken",
            Code::P013 => "low FF utilization",
            Code::P014 => "utilization out of range",
            Code::P015 => "host fallback layer",
            Code::P016 => "empty mapping",
            Code::P018 => "illegal kernel replication",
            Code::P019 => "window staging overflow",
            Code::P020 => "conv row ring not resident",
            Code::P022 => "shared-tile refcount overflow",
            Code::P024 => "use before stage",
            Code::P025 => "overlapping live buffer regions",
            Code::P026 => "ring clobbers live halo row",
            Code::P027 => "merge register overflow unproven",
            Code::P028 => "vacuous precision budget",
            Code::P029 => "write-armed shared tile",
            Code::P030 => "stage graph can deadlock",
            Code::P031 => "model not servable",
            Code::P050 => "allocation in hot kernel",
            Code::P051 => "panic path in library code",
            Code::P052 => "unsafe code",
            Code::P053 => "unused allowlist entry",
            Code::P054 => "lossy cast in guarded datapath",
        }
    }

    /// The severity this code is reported at.
    pub fn severity(self) -> Severity {
        match self {
            Code::P011 | Code::P013 | Code::P015 | Code::P028 | Code::P053 => Severity::Warning,
            Code::P020 => Severity::Info,
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where a diagnostic points.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Span {
    /// The mapping / network as a whole.
    Network,
    /// A specific layer of the network spec.
    Layer {
        /// Zero-based layer index.
        index: usize,
        /// Human-readable layer description (e.g. `"fc 784x512"`).
        entity: String,
    },
    /// A specific pipeline stage.
    Stage {
        /// Zero-based stage index.
        index: usize,
        /// Bank the stage is placed on.
        bank: usize,
    },
    /// A source location (lint pass).
    Source {
        /// Repo-relative file path.
        file: String,
        /// One-based line number.
        line: usize,
        /// Enclosing function name, or `"-"` at module scope.
        function: String,
    },
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Span::Network => f.write_str("network"),
            Span::Layer { index, entity } => write!(f, "layer {index} ({entity})"),
            Span::Stage { index, bank } => write!(f, "stage {index} (bank {bank})"),
            Span::Source { file, line, function } => {
                if function == "-" {
                    write!(f, "{file}:{line}")
                } else {
                    write!(f, "{file}:{line} in fn `{function}`")
                }
            }
        }
    }
}

/// One finding from either analyzer pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Severity (defaults to [`Code::severity`]).
    pub severity: Severity,
    /// Location of the finding.
    pub span: Span,
    /// Human-readable explanation with the concrete numbers involved.
    pub message: String,
}

impl Diagnostic {
    /// Build a diagnostic at the code's default severity.
    pub fn new(code: Code, span: Span, message: impl Into<String>) -> Self {
        Diagnostic { code, severity: code.severity(), span, message: message.into() }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {} ({})",
            self.severity,
            self.code,
            self.span,
            self.message,
            self.code.title()
        )
    }
}

impl Span {
    /// Total order over spans: network first, then layers by index, then
    /// stages by index and bank, then source locations by file and line.
    fn sort_key(&self) -> (u8, usize, usize, &str, &str) {
        match self {
            Span::Network => (0, 0, 0, "", ""),
            Span::Layer { index, entity } => (1, *index, 0, entity.as_str(), ""),
            Span::Stage { index, bank } => (2, *index, *bank, "", ""),
            Span::Source { file, line, function } => (3, *line, 0, file.as_str(), function),
        }
    }
}

/// Sorts diagnostics into the repo's canonical order: by code, then by
/// span (layer/stage index or source location), then by message. Both
/// analyzer passes sort their output through this before returning, so
/// golden fixtures never depend on traversal order.
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        a.code
            .as_str()
            .cmp(b.code.as_str())
            .then_with(|| {
                let (ak, ai, ab, af, ag) = a.span.sort_key();
                let (bk, bi, bb, bf, bg) = b.span.sort_key();
                // Source spans order by file before line; structural
                // spans order by index before secondary rank.
                ak.cmp(&bk)
                    .then_with(|| af.cmp(bf))
                    .then_with(|| ai.cmp(&bi))
                    .then_with(|| ab.cmp(&bb))
                    .then_with(|| ag.cmp(bg))
            })
            .then_with(|| a.message.cmp(&b.message))
    });
}

/// Builds the serving-layer diagnostic ([`Code::P031`]) for a model
/// whose deployment was rejected by the verifier: the front-end must
/// refuse to register the model rather than expose a name that can
/// never answer. `rejected` is the deploy refusal's diagnostic list;
/// the P031 message summarizes which codes blocked it so the serving
/// error is self-contained.
pub fn unservable_model(model: &str, rejected: &[Diagnostic]) -> Diagnostic {
    let mut codes: Vec<&str> = rejected
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.code.as_str())
        .collect();
    codes.dedup();
    let blockers =
        if codes.is_empty() { "a deploy error".to_string() } else { codes.join(", ") };
    Diagnostic::new(
        Code::P031,
        Span::Network,
        format!("model `{model}` cannot be served: deployment rejected by {blockers}"),
    )
}

/// True when any diagnostic is `Error`-severity.
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// Render diagnostics one-per-line for terminals, errors first.
pub fn render_human(diags: &[Diagnostic]) -> String {
    let mut sorted: Vec<&Diagnostic> = diags.iter().collect();
    sorted.sort_by(|a, b| b.severity.cmp(&a.severity).then_with(|| a.code.as_str().cmp(b.code.as_str())));
    let mut out = String::new();
    for d in sorted {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    out
}

/// Render diagnostics as a JSON array (for `--json` / CI consumption).
pub fn render_json(diags: &[Diagnostic]) -> String {
    serde_json::to_string_pretty(&diags.to_vec()).unwrap_or_else(|_| "[]".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip_and_have_unique_strings() {
        let mut seen = std::collections::HashSet::new();
        for code in Code::ALL {
            assert!(seen.insert(code.as_str()), "duplicate code string {code}");
            assert!(!code.title().is_empty());
        }
    }

    #[test]
    fn default_severities() {
        assert_eq!(Code::P011.severity(), Severity::Warning);
        assert_eq!(Code::P001.severity(), Severity::Error);
        assert_eq!(Code::P053.severity(), Severity::Warning);
    }

    #[test]
    fn human_rendering_orders_errors_first() {
        let diags = vec![
            Diagnostic::new(Code::P013, Span::Network, "low util"),
            Diagnostic::new(Code::P004, Span::Stage { index: 1, bank: 3 }, "too many mats"),
        ];
        let text = render_human(&diags);
        let err_pos = text.find("P004").unwrap();
        let warn_pos = text.find("P013").unwrap();
        assert!(err_pos < warn_pos, "errors should sort before warnings:\n{text}");
        assert!(has_errors(&diags));
    }

    #[test]
    fn unservable_model_summarizes_blocking_codes() {
        let rejected = vec![
            Diagnostic::new(Code::P003, Span::Network, "too big"),
            Diagnostic::new(Code::P013, Span::Network, "low util"), // warning: not a blocker
            Diagnostic::new(Code::P009, Span::Stage { index: 0, bank: 0 }, "overflow"),
        ];
        let d = unservable_model("vgg-d", &rejected);
        assert_eq!(d.code, Code::P031);
        assert_eq!(d.severity, Severity::Error);
        assert!(d.message.contains("vgg-d"), "{}", d.message);
        assert!(d.message.contains("P003, P009"), "{}", d.message);
        assert!(!d.message.contains("P013"), "{}", d.message);
    }

    #[test]
    fn json_rendering_includes_code_and_span() {
        let diags =
            vec![Diagnostic::new(Code::P009, Span::Stage { index: 0, bank: 0 }, "overflow")];
        let json = render_json(&diags);
        assert!(json.contains("P009"), "{json}");
        assert!(json.contains("overflow"), "{json}");
    }
}
