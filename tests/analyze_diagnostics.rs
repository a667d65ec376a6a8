//! Golden fixtures for the prime-analyze deployment verifier: each bad
//! mapping must be rejected with its pinned `P0xx` code, every MlBench
//! workload must be accepted on the paper's default target, and (by
//! property) any deployment the verifier lets through must run to
//! completion without a runtime error.

use proptest::prelude::*;

use prime::analyze::{
    analyze, check_pipeline, check_shared_layout, has_errors, shared_layout, Code, Severity,
    SharedTileGroup, Target,
};
use prime::compiler::{
    lower_layer, map_network, CompileOptions, HwTarget, LayerMapping, NetworkMapping, NnScale,
    PipelineStage,
};
use prime::core::{PrimeError, PrimeSystem};
use prime::nn::{Activation, FullyConnected, Layer, LayerSpec, MlBench, Network, NetworkSpec};

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// `PrimeSystem::deploy` maps without replication (replicas would be an
/// analytic utilization model, not a physical placement).
const DEPLOY_OPTIONS: CompileOptions =
    CompileOptions { replicate: false, stage_mats_cap: 0 };

fn error_codes(diags: &[prime::analyze::Diagnostic]) -> Vec<Code> {
    diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.code)
        .collect()
}

/// The compiler's own lowering of one FC layer, so fixtures can describe
/// layers that `map_network` refuses as a whole network.
fn fc_layer(inputs: usize, outputs: usize, hw: &HwTarget) -> LayerMapping {
    lower_layer(&LayerSpec::FullyConnected { inputs, outputs }, hw).expect("layer tiles")
}

fn fixture_mapping(layers: Vec<LayerMapping>, pipeline: Vec<PipelineStage>) -> NetworkMapping {
    let base_mats = layers.iter().map(|l| l.base_mats).sum();
    NetworkMapping {
        name: "fixture".to_string(),
        scale: if pipeline.is_empty() { NnScale::Small } else { NnScale::Large },
        layers,
        base_mats,
        banks_per_copy: 1,
        allocated_mats: base_mats,
        utilization_before: 0.5,
        utilization_after: 0.5,
        copies_across_memory: 1,
        pipeline,
    }
}

#[test]
fn oversized_layer_is_rejected_with_p003() {
    // One FC layer larger than the entire FF-mat pool of the memory.
    let target = Target::prime_default();
    let hw = &target.hw;
    let inputs = hw.mat_rows * hw.mats_per_bank() * hw.banks;
    let outputs = hw.mat_cols * 4;
    let spec = NetworkSpec::new(
        "oversized",
        vec![LayerSpec::FullyConnected { inputs, outputs }],
    )
    .expect("spec is well formed");
    let mapping = fixture_mapping(vec![fc_layer(inputs, outputs, hw)], Vec::new());
    assert!(mapping.base_mats > hw.total_mats(), "fixture must overflow");
    let codes = error_codes(&analyze(&spec, &target, &mapping));
    assert!(codes.contains(&Code::P003), "expected P003, got {codes:?}");
}

#[test]
fn overlapping_banks_are_rejected_with_p008() {
    // Stage 0 holds one oversized layer spanning banks 0..2; stage 1
    // starts at bank 1 inside that span — two stages would compute-map
    // the same mats.
    let stages = vec![
        PipelineStage { bank: 0, layers: vec![0], mats: 2 },
        PipelineStage { bank: 1, layers: vec![1], mats: 1 },
    ];
    let codes: Vec<Code> = check_pipeline(&stages, 2, 4, Some(1)).iter().map(|d| d.code).collect();
    assert_eq!(codes, vec![Code::P008], "got {codes:?}");
}

#[test]
fn repeated_bank_is_rejected_with_p005() {
    let stages = vec![
        PipelineStage { bank: 0, layers: vec![0], mats: 1 },
        PipelineStage { bank: 0, layers: vec![1], mats: 1 },
    ];
    let codes: Vec<Code> = check_pipeline(&stages, 2, 4, Some(1)).iter().map(|d| d.code).collect();
    assert_eq!(codes, vec![Code::P005], "got {codes:?}");
}

#[test]
fn non_contiguous_stages_are_rejected_with_p006() {
    // Coverage skips layer 1: stage 1 maps layer 2 while 1 is uncovered.
    let stages = vec![
        PipelineStage { bank: 0, layers: vec![0], mats: 1 },
        PipelineStage { bank: 1, layers: vec![2], mats: 1 },
    ];
    let codes: Vec<Code> = check_pipeline(&stages, 3, 4, Some(1)).iter().map(|d| d.code).collect();
    assert_eq!(codes, vec![Code::P006], "got {codes:?}");
}

#[test]
fn incomplete_coverage_is_rejected_with_p006() {
    let stages = vec![PipelineStage { bank: 0, layers: vec![0], mats: 1 }];
    let codes: Vec<Code> = check_pipeline(&stages, 2, 4, Some(1)).iter().map(|d| d.code).collect();
    assert_eq!(codes, vec![Code::P006], "got {codes:?}");
}

#[test]
fn precision_overflow_is_rejected_with_p010() {
    let spec = MlBench::MlpS.spec();
    let mut target = Target::prime_default();
    let mapping = map_network(&spec, &target.hw, DEPLOY_OPTIONS).expect("MLP-S maps");
    target.cell_bits = 2; // the Pw=8 scheme needs two 4-bit MLC cells
    let codes = error_codes(&analyze(&spec, &target, &mapping));
    assert_eq!(codes, vec![Code::P010], "got {codes:?}");
}

#[test]
fn shared_tile_refcount_overflow_is_rejected_with_p022() {
    let mut target = Target::prime_default();
    target.tile_ref_bits = 2; // per-mat reference counter holds refs <= 3
    let good = SharedTileGroup { layer: 0, tiles: 2, refs: 3 };
    assert_eq!(check_shared_layout(&[good], &target), vec![], "3 refs fit 2 bits");
    let overflow = SharedTileGroup { refs: 4, ..good };
    let codes: Vec<Code> =
        check_shared_layout(&[overflow], &target).iter().map(|d| d.code).collect();
    assert_eq!(codes, vec![Code::P022], "got {codes:?}");
    let zero = SharedTileGroup { refs: 0, ..good };
    let codes: Vec<Code> =
        check_shared_layout(&[zero], &target).iter().map(|d| d.code).collect();
    assert_eq!(codes, vec![Code::P022], "got {codes:?}");
    // The verifier runs the same check per layer of a real mapping.
    let spec = MlBench::MlpS.spec();
    let mapping = map_network(&spec, &target.hw, DEPLOY_OPTIONS).expect("MLP-S maps");
    assert!(mapping.layers.iter().any(|l| l.tile_refs > 3), "64 copies alias every tile");
    let codes = error_codes(&analyze(&spec, &target, &mapping));
    assert!(codes.contains(&Code::P022), "got {codes:?}");
}

#[test]
fn derived_shared_layouts_are_legal_for_every_workload() {
    // Any shared-tile layout the compiler itself derives must fit the
    // mat table — P022 exists for hand-built or drifted state, never for
    // the compiler's own output.
    let target = Target::prime_default();
    for bench in MlBench::ALL {
        for replicate in [false, true] {
            let options = CompileOptions { replicate, ..CompileOptions::default() };
            let spec = bench.spec();
            let Ok(mapping) = map_network(&spec, &target.hw, options) else {
                continue; // replicated VGG-D overflows the memory: not a layout question
            };
            let groups = shared_layout(&mapping);
            assert_eq!(
                groups.len(),
                mapping.layers.iter().filter(|l| l.base_mats > 0).count(),
                "one group per weight layer"
            );
            let diags = check_shared_layout(&groups, &target);
            assert!(
                diags.is_empty(),
                "{} (replicate={replicate}): {diags:?}",
                bench.name()
            );
        }
    }
}

#[test]
fn every_mlbench_workload_is_accepted_on_the_default_target() {
    let target = Target::prime_default();
    for bench in MlBench::ALL {
        let spec = bench.spec();
        let mapping = map_network(&spec, &target.hw, DEPLOY_OPTIONS).expect("workload maps");
        let diags = analyze(&spec, &target, &mapping);
        assert!(
            !has_errors(&diags),
            "{}: {}",
            bench.name(),
            prime::analyze::render_human(&diags)
        );
    }
}

#[test]
fn deploy_refuses_with_typed_diagnostics_when_the_buffer_is_too_small() {
    // The FC working set (12 inputs + 3 outputs) cannot be staged in an
    // 8-word FF buffer: deploy must refuse statically (P009), before any
    // bank state changes — this used to surface as a runtime store error.
    let mut rng = SmallRng::seed_from_u64(5);
    let mut net = Network::new(vec![
        Layer::Fc(FullyConnected::new(12, 8, Activation::Relu)),
        Layer::Fc(FullyConnected::new(8, 3, Activation::Identity)),
    ])
    .expect("widths match");
    net.init_random(&mut rng);
    let mut system = PrimeSystem::new(2, 2, 4, 8);
    match system.deploy(&net, &[0.5; 12]) {
        Err(PrimeError::Rejected { diagnostics }) => {
            assert!(
                diagnostics.iter().any(|d| d.code == Code::P009),
                "expected P009 in {diagnostics:?}"
            );
        }
        other => panic!("expected a Rejected error, got {other:?}"),
    }
    assert!(system.infer_batch(&[vec![0.0; 12]]).is_err(), "nothing deployed");
}

#[test]
fn diagnostics_are_reported_in_canonical_deterministic_order() {
    use prime::analyze::{sort_diagnostics, Diagnostic, Span};
    // A hand-shuffled list sorts by code, then span (layer index before
    // entity ties), then message — and sorting is idempotent.
    let mk = |code, index, msg: &str| {
        Diagnostic::new(code, Span::Layer { index, entity: "fc".to_string() }, msg)
    };
    let mut diags = vec![
        mk(Code::P011, 5, "b"),
        mk(Code::P003, 9, "z"),
        mk(Code::P011, 2, "a"),
        Diagnostic::new(Code::P003, Span::Network, "network-wide"),
        mk(Code::P011, 5, "a"),
    ];
    sort_diagnostics(&mut diags);
    let key: Vec<(Code, String)> = diags
        .iter()
        .map(|d| {
            let loc = match &d.span {
                Span::Network => "net".to_string(),
                Span::Layer { index, .. } => format!("L{index}"),
                other => format!("{other:?}"),
            };
            (d.code, loc)
        })
        .collect();
    assert_eq!(
        key,
        vec![
            (Code::P003, "net".to_string()),
            (Code::P003, "L9".to_string()),
            (Code::P011, "L2".to_string()),
            (Code::P011, "L5".to_string()),
            (Code::P011, "L5".to_string()),
        ],
        "{diags:?}"
    );
    assert_eq!(diags[3].message, "a", "message breaks the final tie");
    let resorted = {
        let mut d = diags.clone();
        sort_diagnostics(&mut d);
        d
    };
    assert_eq!(diags, resorted, "sorting must be idempotent");

    // The verifier's own output arrives pre-sorted.
    let target = Target::prime_default();
    let spec = MlBench::VggD.spec();
    let mapping = map_network(&spec, &target.hw, DEPLOY_OPTIONS).expect("VGG-D maps");
    let out = analyze(&spec, &target, &mapping);
    let mut sorted = out.clone();
    sort_diagnostics(&mut sorted);
    assert_eq!(out, sorted, "analyze() must return canonical order");
}

#[test]
fn design_catalog_stays_in_step_with_the_emitted_codes() {
    // DESIGN.md §10's diagnostic catalog is the contract for the stable
    // P-codes; it must list exactly the codes the analyzer can emit.
    let design = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/DESIGN.md"))
        .expect("DESIGN.md is readable");
    let catalog: Vec<&str> = design
        .lines()
        .filter(|l| l.starts_with("| P0"))
        .filter_map(|l| l.split('|').nth(1).map(str::trim))
        .collect();
    for code in Code::ALL {
        assert!(
            catalog.contains(&code.as_str()),
            "DESIGN.md §10 catalog is missing a row for {}",
            code.as_str()
        );
    }
    for row in &catalog {
        assert!(
            Code::ALL.iter().any(|c| c.as_str() == *row),
            "DESIGN.md §10 catalog lists {row}, which prime-analyze never emits"
        );
    }
    assert_eq!(catalog.len(), Code::ALL.len(), "duplicate catalog rows");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any deployment the static verifier accepts must run inference to
    /// completion; any refusal must be a static one (typed diagnostics or
    /// a compile error), never a runtime fault after state changed.
    #[test]
    fn accepted_mappings_infer_without_runtime_errors(
        inputs in 2usize..28,
        hidden in 1usize..20,
        outputs in 1usize..8,
        banks in 1usize..4,
        mats in 1usize..5,
        buffer_exp in 4u32..12,
        seed in any::<u64>(),
    ) {
        let buffer = 1usize << buffer_exp;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut net = Network::new(vec![
            Layer::Fc(FullyConnected::new(inputs, hidden, Activation::Relu)),
            Layer::Fc(FullyConnected::new(hidden, outputs, Activation::Identity)),
        ]).expect("widths match");
        net.init_random(&mut rng);
        let calibration: Vec<f32> = (0..inputs).map(|i| (i % 5) as f32 / 5.0).collect();
        let mut system = PrimeSystem::new(banks, 1, mats, buffer);
        match system.deploy(&net, &calibration) {
            Ok(()) => {
                let batch: Vec<Vec<f32>> = (0..3)
                    .map(|b| (0..inputs).map(|i| ((b + i) % 7) as f32 / 7.0).collect())
                    .collect();
                let out = system.infer_batch(&batch);
                prop_assert!(out.is_ok(), "accepted deployment failed at run time: {out:?}");
                prop_assert_eq!(out.as_deref().map(<[Vec<f32>]>::len), Ok(3));
            }
            Err(PrimeError::Rejected { diagnostics }) => {
                prop_assert!(!diagnostics.is_empty(), "rejection carries no diagnostics");
            }
            Err(PrimeError::MappingMismatch { .. }) => {
                // The compiler itself refused (network cannot map at all).
            }
            Err(other) => {
                return Err(TestCaseError::fail(format!("non-static deploy error: {other}")));
            }
        }
    }
}
