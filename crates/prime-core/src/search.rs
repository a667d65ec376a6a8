//! Cost-model-driven mapping search (ROADMAP item 5).
//!
//! PRIME §IV fixes its replication/split/pipeline choices by heuristic;
//! this module replaces that with a small search. The compiler
//! enumerates pipeline-split candidates
//! ([`prime_compiler::enumerate_candidates`]); each candidate is
//! compiled, statically verified (Pass 1 deployment invariants and —
//! where an in-memory lowering exists — the Pass 3 abstract
//! interpreter), and scored by a [`MappingCostModel`]; the
//! `(interval, image)` argmin wins. Illegal candidates are *pruned*,
//! never errors: the search degrades to whatever subset the verifiers
//! accept, and deployment fails only when nothing survives.
//!
//! The trait lives here (not in `prime-sim`) because the crate graph
//! points the other way: `prime-sim` depends on `prime-core` and
//! provides the reference implementation (`SimCostModel`) on top of its
//! analytical machine. Candidates are enumerated fixed-default-first and
//! the argmin breaks ties by keeping the earlier candidate, so
//! a search that finds nothing strictly better keeps the bit-compatible
//! default placement.

use serde::{Deserialize, Serialize};

use prime_compiler::{
    enumerate_candidates, map_network, CompileOptions, HwTarget, NetworkMapping, Objective,
};
use prime_nn::NetworkSpec;

/// Cost estimate of one verifier-clean candidate mapping, produced by a
/// [`MappingCostModel`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CandidateCost {
    /// Single-image latency estimate (ns).
    pub image_ns: f64,
    /// Steady-state per-image interval at an amortizing batch (ns): the
    /// throughput-side cost a pipeline split trades against.
    pub interval_ns: f64,
    /// Per-image energy estimate (pJ).
    pub energy_pj: f64,
}

/// Scores candidate mappings for the search. Implemented by
/// `prime-sim`'s `SimCostModel` over the analytical PRIME machine;
/// tests may substitute simpler models.
pub trait MappingCostModel {
    /// Estimates the cost of running `spec` under `mapping` on `hw`.
    fn score(&self, spec: &NetworkSpec, hw: &HwTarget, mapping: &NetworkMapping) -> CandidateCost;
}

/// What the search decided about one enumerated candidate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CandidateVerdict {
    /// Won the argmin: this is the deployed mapping.
    Chosen,
    /// Verifier-clean and scored, but beaten under the objective.
    Beaten,
    /// Failed to compile or was rejected by the static verifiers; never
    /// scored. Pruning is the expected fate of illegal candidates, not
    /// an error.
    Pruned {
        /// The compile error or the rejecting diagnostic codes.
        reason: String,
    },
}

/// One enumerated candidate: its knobs, the shape it compiled to, its
/// score, and the verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CandidateReport {
    /// The compile options that generate this candidate.
    pub options: CompileOptions,
    /// Inter-bank pipeline stages (1 when the network fits a bank).
    pub stages: usize,
    /// Whole-network copies across the memory's banks.
    pub copies: usize,
    /// Physical weight cells every placement occupies
    /// (`NetworkMapping::footprint().placed_cells`). Tile aliasing is
    /// host-memory dedup only: each bank still owns its cells.
    pub placed_cells: u64,
    /// FF mats reserved at bank granularity.
    pub allocated_mats: usize,
    /// Cost-model score (`None` for pruned candidates).
    pub cost: Option<CandidateCost>,
    /// The search's decision for this candidate.
    pub verdict: CandidateVerdict,
}

impl CandidateReport {
    /// One-line rendering for registration logs and bench reports.
    pub fn describe(&self) -> String {
        let knobs = format!("cap={}", self.options.stage_mats_cap);
        let shape = format!(
            "stages={} copies={} placed_cells={}",
            self.stages, self.copies, self.placed_cells
        );
        let score = match &self.cost {
            Some(c) => format!(
                "image={:.0}ns interval={:.0}ns energy={:.0}pJ",
                c.image_ns, c.interval_ns, c.energy_pj
            ),
            None => "unscored".to_string(),
        };
        let verdict = match &self.verdict {
            CandidateVerdict::Chosen => "CHOSEN".to_string(),
            CandidateVerdict::Beaten => "beaten".to_string(),
            CandidateVerdict::Pruned { reason } => format!("pruned: {reason}"),
        };
        format!("[{knobs}] {shape} {score} -> {verdict}")
    }
}

/// The complete outcome of one mapping search: every candidate in
/// enumeration order, exactly one of which is
/// [`CandidateVerdict::Chosen`] when the search succeeded. Recorded in
/// [`DeployStats`](crate::DeployStats) and rendered into the serving
/// registration log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MappingSearch {
    /// The objective the search minimized.
    pub objective: Objective,
    /// Every candidate, in enumeration order (fixed default first).
    pub candidates: Vec<CandidateReport>,
}

impl MappingSearch {
    /// The winning candidate, if any survived the verifiers.
    pub fn chosen(&self) -> Option<&CandidateReport> {
        self.candidates
            .iter()
            .find(|c| c.verdict == CandidateVerdict::Chosen)
    }

    /// Candidates that were enumerated but not chosen (beaten or pruned).
    pub fn rejected(&self) -> impl Iterator<Item = &CandidateReport> {
        self.candidates
            .iter()
            .filter(|c| c.verdict != CandidateVerdict::Chosen)
    }

    /// Multi-line rendering for registration logs: objective, then one
    /// line per candidate.
    pub fn describe(&self) -> String {
        let mut out = format!(
            "mapping search (objective={}, {} candidates):",
            self.objective.name(),
            self.candidates.len()
        );
        for candidate in &self.candidates {
            out.push_str("\n  ");
            out.push_str(&candidate.describe());
        }
        out
    }
}

/// The verification half of candidate evaluation, shared with
/// deployment: compile `options` and run Pass 1 (and Pass 3 where the
/// network has an in-memory lowering). Returns the mapping or the
/// pruning reason.
fn verify_candidate(
    spec: &NetworkSpec,
    target: &prime_analyze::Target,
    options: CompileOptions,
) -> Result<NetworkMapping, String> {
    let mapping = match map_network(spec, &target.hw, options) {
        Ok(mapping) => mapping,
        Err(e) => return Err(format!("compile: {e}")),
    };
    let errors: Vec<String> = prime_analyze::analyze(spec, target, &mapping)
        .into_iter()
        .filter(|d| d.severity == prime_analyze::Severity::Error)
        .map(|d| d.code.as_str().to_string())
        .collect();
    if !errors.is_empty() {
        return Err(format!("pass 1: {}", errors.join(",")));
    }
    // Pass 3 needs a static lowering; networks that fall back to the
    // host for some layer (LRN) have none, and skip it — same rule the
    // deployment path applies.
    if let Ok(plan) = prime_analyze::lower_program(spec, target, &mapping) {
        let errors: Vec<String> = prime_analyze::analyze_program(spec, target, &mapping, &plan)
            .into_iter()
            .filter(|d| d.severity == prime_analyze::Severity::Error)
            .map(|d| d.code.as_str().to_string())
            .collect();
        if !errors.is_empty() {
            return Err(format!("pass 3: {}", errors.join(",")));
        }
    }
    Ok(mapping)
}

/// Runs the mapping search under `objective`: enumerate, verify, score,
/// argmin.
///
/// Every enumerated candidate that compiles and passes the static
/// verifiers is scored with `model`; the lowest `(interval_ns,
/// image_ns)` is marked [`CandidateVerdict::Chosen`] (ties keep the
/// earliest candidate, i.e. the fixed default when it is involved). A
/// search where nothing survives returns a report whose
/// [`MappingSearch::chosen`] is `None`; the caller decides whether that
/// is fatal.
pub fn search_mapping(
    spec: &NetworkSpec,
    target: &prime_analyze::Target,
    objective: Objective,
    model: &dyn MappingCostModel,
) -> MappingSearch {
    let mut candidates: Vec<CandidateReport> = enumerate_candidates(spec, &target.hw)
        .into_iter()
        .map(|options| match verify_candidate(spec, target, options) {
            Ok(mapping) => CandidateReport {
                options,
                stages: mapping.pipeline.len().max(1),
                copies: mapping.copies_across_memory,
                placed_cells: mapping.footprint().placed_cells,
                allocated_mats: mapping.allocated_mats,
                cost: Some(model.score(spec, &target.hw, &mapping)),
                verdict: CandidateVerdict::Beaten,
            },
            Err(reason) => CandidateReport {
                options,
                stages: 0,
                copies: 0,
                placed_cells: 0,
                allocated_mats: 0,
                cost: None,
                verdict: CandidateVerdict::Pruned { reason },
            },
        })
        .collect();
    // First-wins argmin: a later candidate must be *strictly* better to
    // displace the incumbent, so ties keep the fixed default placement.
    let mut best: Option<(usize, (f64, f64))> = None;
    for (idx, candidate) in candidates.iter().enumerate() {
        let Some(cost) = candidate.cost else { continue };
        let key = (cost.interval_ns, cost.image_ns);
        if best.is_none_or(|(_, incumbent)| key < incumbent) {
            best = Some((idx, key));
        }
    }
    if let Some((idx, _)) = best {
        candidates[idx].verdict = CandidateVerdict::Chosen;
    }
    MappingSearch { objective, candidates }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prime_analyze::Target;
    use prime_nn::MlBench;

    /// A deterministic toy model: interval favors more copies, image
    /// favors fewer stages — enough structure to exercise the argmin
    /// without dragging prime-sim into the dependency graph.
    struct ToyModel;

    impl MappingCostModel for ToyModel {
        fn score(
            &self,
            _spec: &NetworkSpec,
            _hw: &HwTarget,
            mapping: &NetworkMapping,
        ) -> CandidateCost {
            let stages = mapping.pipeline.len().max(1) as f64;
            let copies = mapping.copies_across_memory.max(1) as f64;
            let passes = mapping.passes_per_inference() as f64;
            CandidateCost {
                image_ns: passes * stages,
                interval_ns: passes / copies,
                energy_pj: passes,
            }
        }
    }

    #[test]
    fn latency_search_keeps_the_fixed_default_on_ties() {
        let target = Target::prime_default();
        for bench in [MlBench::MlpM, MlBench::Cnn1] {
            let spec = bench.spec();
            let search = search_mapping(&spec, &target, Objective::Latency, &ToyModel);
            let chosen = search.chosen().expect("a candidate survives");
            // Full-copy candidates share the minimal interval; the dense
            // fixed default is enumerated first and must keep the win.
            assert_eq!(
                chosen.options,
                CompileOptions { replicate: false, ..CompileOptions::default() },
                "{}: {}",
                bench.name(),
                search.describe()
            );
        }
    }

    #[test]
    fn every_candidate_gets_a_verdict_and_exactly_one_wins() {
        let target = Target::prime_default();
        for bench in MlBench::ALL {
            let search = search_mapping(&bench.spec(), &target, Objective::Latency, &ToyModel);
            let chosen = search
                .candidates
                .iter()
                .filter(|c| c.verdict == CandidateVerdict::Chosen)
                .count();
            assert_eq!(chosen, 1, "{}: {}", bench.name(), search.describe());
            for c in &search.candidates {
                match &c.verdict {
                    CandidateVerdict::Pruned { .. } => assert!(c.cost.is_none()),
                    _ => assert!(c.cost.is_some()),
                }
            }
        }
    }

    #[test]
    fn search_reports_render_for_logs() {
        let target = Target::prime_default();
        let search = search_mapping(&MlBench::MlpM.spec(), &target, Objective::Latency, &ToyModel);
        let text = search.describe();
        assert!(text.contains("objective=latency"));
        assert!(text.contains("CHOSEN"));
    }
}
