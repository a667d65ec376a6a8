//! The simulator-backed cost model for the mapping search.
//!
//! `prime-core`'s [`search_mapping`](prime_core::search_mapping) scores
//! candidate mappings through the [`MappingCostModel`] trait; this
//! module supplies the reference implementation on top of
//! [`PrimeMachine`]'s analytical latency/energy model. Each candidate is
//! priced with [`PrimeMachine::run_mapped`] — the exact model the §V
//! evaluation figures use — so the search optimizes the same quantity
//! the simulator would later report.
//!
//! [`MappingCostModel`]: prime_core::MappingCostModel

use prime_compiler::{CompileOptions, HwTarget, NetworkMapping};
use prime_core::{CandidateCost, MappingCostModel};
use prime_nn::NetworkSpec;

use crate::machines::PrimeMachine;

/// Scores candidate mappings with the analytical PRIME machine model.
///
/// * `image_ns` — batch-1 latency: a single image through the mapping
///   (pipeline fill included for large-scale NNs);
/// * `interval_ns` — per-image latency at an amortizing batch
///   (`4 x copies` images, so every copy sees several rounds and the
///   pipeline interval dominates the fill);
/// * `energy_pj` — one image's total energy.
///
/// # Examples
///
/// ```
/// use prime_compiler::Objective;
/// use prime_core::search_mapping;
/// use prime_nn::MlBench;
/// use prime_sim::SimCostModel;
///
/// let target = prime_analyze::Target::prime_default();
/// let search = search_mapping(
///     &MlBench::MlpM.spec(),
///     &target,
///     Objective::Latency,
///     &SimCostModel,
/// );
/// assert!(search.chosen().is_some());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct SimCostModel;

impl SimCostModel {
    /// The batch size that amortizes pipeline fill for `mapping`: four
    /// rounds through every whole-network copy.
    fn amortizing_batch(mapping: &NetworkMapping) -> u32 {
        let copies = mapping.copies_across_memory.max(1);
        u32::try_from(4 * copies).unwrap_or(u32::MAX)
    }
}

impl MappingCostModel for SimCostModel {
    fn score(&self, spec: &NetworkSpec, hw: &HwTarget, mapping: &NetworkMapping) -> CandidateCost {
        // The machine is only a parameter carrier here: `run_mapped`
        // never re-compiles, it prices the candidate mapping as given.
        let machine = PrimeMachine::with_target(*hw, CompileOptions::default());
        let single = machine.run_mapped(spec, mapping, 1);
        let batch = Self::amortizing_batch(mapping);
        let steady = machine.run_mapped(spec, mapping, batch);
        CandidateCost {
            image_ns: single.latency_ns,
            interval_ns: steady.latency_ns / f64::from(batch),
            energy_pj: single.total_energy_pj(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prime_analyze::Target;
    use prime_compiler::{map_network, Objective};
    use prime_core::search_mapping;
    use prime_nn::MlBench;

    #[test]
    fn scores_are_finite_and_positive_for_every_paper_workload() {
        let target = Target::prime_default();
        for bench in MlBench::ALL {
            let spec = bench.spec();
            let options = CompileOptions { replicate: false, ..CompileOptions::default() };
            let mapping = map_network(&spec, &target.hw, options).expect("paper workloads fit");
            let cost = SimCostModel.score(&spec, &target.hw, &mapping);
            for (name, v) in [
                ("image_ns", cost.image_ns),
                ("interval_ns", cost.interval_ns),
                ("energy_pj", cost.energy_pj),
            ] {
                assert!(v.is_finite() && v > 0.0, "{}: {name}={v}", bench.name());
            }
            // Steady-state throughput cannot be worse than cold batch-1
            // latency: copies and pipelining only help.
            assert!(
                cost.interval_ns <= cost.image_ns * 1.000_001,
                "{}: interval {} > image {}",
                bench.name(),
                cost.interval_ns,
                cost.image_ns
            );
        }
    }

    #[test]
    fn searched_latency_never_loses_to_the_fixed_default() {
        let target = Target::prime_default();
        for bench in MlBench::ALL {
            let spec = bench.spec();
            let searched = search_mapping(&spec, &target, Objective::Latency, &SimCostModel);
            // Candidate 0 is the fixed default mapping.
            let fixed_cost = searched.candidates[0].cost.expect("fixed survives");
            let best_cost = searched.chosen().and_then(|c| c.cost).expect("search survives");
            assert!(
                best_cost.interval_ns <= fixed_cost.interval_ns,
                "{}: searched {} > fixed {}\n{}",
                bench.name(),
                best_cost.interval_ns,
                fixed_cost.interval_ns,
                searched.describe()
            );
        }
    }
}
