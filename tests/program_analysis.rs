//! Golden fixtures for the Pass-3 program abstract interpreter: each
//! deliberately corrupted plan must trip its pinned `P0xx` code, the
//! statically lowered plans of the paper's workloads must be clean, and
//! (by property) any deployment Pass 3 lets through must run inference —
//! plain and seeded-noise — without an internal runtime error, with its
//! replica copies aliasing copy 0's tiles.

use proptest::prelude::*;

use prime::analyze::{
    analyze_program, lower_program, Code, ProgramPlan, ProgramTile, Severity, Target,
};
use prime::compiler::{map_network, CompileOptions, HwTarget, NetworkMapping};
use prime::core::{BankController, CommandRunner, PrimeError, PrimeSystem};
use prime::device::NoiseModel;
use prime::nn::{
    Activation, Conv2d, FullyConnected, Layer, LayerSpec, MlBench, Network, NetworkSpec, Pool2d,
    PoolKind,
};

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// `PrimeSystem::deploy` maps without replication.
const DEPLOY_OPTIONS: CompileOptions =
    CompileOptions { replicate: false, stage_mats_cap: 0 };

/// A workload, its mapping, and its legal statically lowered plan — the
/// base every corruption fixture starts from.
fn lowered(bench: MlBench) -> (NetworkSpec, Target, NetworkMapping, ProgramPlan) {
    let target = Target::prime_default();
    let spec = bench.spec();
    let mapping = map_network(&spec, &target.hw, DEPLOY_OPTIONS).expect("workload maps");
    let plan = lower_program(&spec, &target, &mapping).expect("workload lowers");
    (spec, target, mapping, plan)
}

fn codes_of(diags: &[prime::analyze::Diagnostic]) -> Vec<Code> {
    diags.iter().map(|d| d.code).collect()
}

#[test]
fn lowered_workload_plans_are_clean() {
    for bench in MlBench::ALL {
        let target = Target::prime_default();
        let spec = bench.spec();
        let mapping = map_network(&spec, &target.hw, DEPLOY_OPTIONS).expect("workload maps");
        let plan = lower_program(&spec, &target, &mapping).expect("workload lowers");
        let diags = analyze_program(&spec, &target, &mapping, &plan);
        assert!(
            diags.iter().all(|d| d.severity < Severity::Warning),
            "{}: {}",
            bench.name(),
            prime::analyze::render_human(&diags)
        );
    }
}

/// `CommandRunner::compile_pipeline` compiles the layout `lower_layout`
/// derives, and `lower_program` audits that same layout statically
/// (`analyze_workloads --program`, the mapping search's Pass 3). Each
/// network here is compiled and calibrated for real, and its exported
/// plan must equal the lowered one in ops, widths, buffer addresses,
/// stages, buffer words, recycle credits and tile counts (one tile per
/// mat of weight rows, no bias row). Shifts differ by design
/// (calibrated versus worst case). The mapping charges every layer the
/// mats the plan places, with no exception: VGG-D-class's 256→128
/// layer, whose rows exactly fill a mat, is budgeted the one mat it runs
/// on.
#[test]
fn lowered_plans_mirror_the_compiled_runner() {
    let default = Target::prime_default();
    let cases = [
        (MlBench::MlpS.name(), MlBench::MlpS.spec(), default.clone()),
        (MlBench::MlpM.name(), MlBench::MlpM.spec(), default.clone()),
        (MlBench::MlpL.name(), MlBench::MlpL.spec(), default.clone()),
        (MlBench::Cnn1.name(), MlBench::Cnn1.spec(), default.clone()),
        (MlBench::Cnn2.name(), MlBench::Cnn2.spec(), default.clone()),
        // Too small to keep CNN-1's conv rows resident: the per-pixel
        // fallback.
        (
            "CNN-1, 1024-word buffer",
            MlBench::Cnn1.spec(),
            Target { buffer_words: 1024, ..default.clone() },
        ),
        (
            "VGG-D-class",
            fc_spec("VGG-D-class", &[192, 384, 384, 384, 256, 128, 64, 10]),
            Target {
                hw: HwTarget {
                    mats_per_ff_subarray: 8,
                    ff_subarrays_per_bank: 1,
                    banks: 4,
                    ..default.hw
                },
                buffer_words: 8192,
                ..default.clone()
            },
        ),
    ];
    for (name, spec, target) in cases {
        let mut net = spec.to_network().expect("executable workload");
        net.init_random(&mut SmallRng::seed_from_u64(3));
        let mapping = map_network(&spec, &target.hw, DEPLOY_OPTIONS).expect("workload maps");
        let lowered = lower_program(&spec, &target, &mapping).expect("workload lowers");
        let hw = target.hw;
        let banks = mapping.pipeline.iter().map(|s| s.bank + 1).max().unwrap_or(1);
        let mut banks: Vec<BankController> = (0..banks)
            .map(|_| {
                let (subarrays, mats) = (hw.ff_subarrays_per_bank, hw.mats_per_ff_subarray);
                BankController::new(subarrays, mats, target.buffer_words, 64)
            })
            .collect();
        let calibration = vec![0.5f32; net.inputs()];
        let runner =
            CommandRunner::compile_pipeline(&net, &mut banks, &mapping.pipeline, &calibration)
                .expect("compiles");
        let compiled = runner.program_plan(&banks);
        assert_eq!(compiled.stages, lowered.stages, "{name}: stages");
        assert_eq!(compiled.buffer_words, lowered.buffer_words, "{name}: buffer words");
        assert_eq!(compiled.recycle_credits, lowered.recycle_credits, "{name}: credits");
        assert_eq!(compiled.layers.len(), lowered.layers.len(), "{name}: layers");
        for (i, (c, l)) in compiled.layers.iter().zip(&lowered.layers).enumerate() {
            assert_eq!(
                (c.op, c.inputs, c.outputs, c.in_addr, c.out_addr, c.tiles.len()),
                (l.op, l.inputs, l.outputs, l.in_addr, l.out_addr, l.tiles.len()),
                "{name} layer {i}"
            );
            let programmed = l.weight_shape.map_or(0, |(rows, features)| {
                rows.div_ceil(hw.mat_rows) * features.div_ceil(hw.mat_cols)
            });
            assert_eq!(l.tiles.len(), programmed, "{name} layer {i}: one tile per mat of rows");
            assert_eq!(
                mapping.layers[i].base_mats,
                l.tiles.len(),
                "{name} layer {i}: the mapping charges the mats the plan places"
            );
        }
    }
}

/// A 256→128→10 stack needs exactly the two mats of a one-bank, two-mat
/// memory, because its 256 weight rows fill one mat with no bias row
/// left over. It must deploy there and answer bit-identically to the
/// same net deployed on a roomier bank.
#[test]
fn a_net_that_exactly_fills_its_mats_deploys() {
    let mut net = Network::new(vec![
        Layer::Fc(FullyConnected::new(256, 128, Activation::Relu)),
        Layer::Fc(FullyConnected::new(128, 10, Activation::Identity)),
    ])
    .expect("widths chain");
    net.init_random(&mut SmallRng::seed_from_u64(11));
    let calibration: Vec<f32> = (0..256).map(|j| ((j * 7) % 13) as f32 / 13.0).collect();
    let inputs: Vec<Vec<f32>> = (0..4)
        .map(|i| (0..256).map(|j| ((i * 5 + j * 3) % 11) as f32 / 11.0).collect())
        .collect();
    let bits = |system: &mut PrimeSystem| -> Vec<Vec<u32>> {
        let outputs = system.infer_batch(&inputs).expect("deployed net infers");
        outputs.iter().map(|o| o.iter().map(|v| v.to_bits()).collect()).collect()
    };
    let mut exact = PrimeSystem::new(1, 1, 2, 4096);
    exact.deploy(&net, &calibration).expect("two weight layers fill the two mats");
    let mut roomy = PrimeSystem::new(1, 1, 8, 4096);
    roomy.deploy(&net, &calibration).expect("fits an eight-mat bank");
    assert_eq!(bits(&mut exact), bits(&mut roomy));
}

/// The spec of a fully-connected stack.
fn fc_spec(name: &str, widths: &[usize]) -> NetworkSpec {
    let layers = widths
        .windows(2)
        .map(|w| LayerSpec::FullyConnected { inputs: w[0], outputs: w[1] })
        .collect();
    NetworkSpec::new(name, layers).expect("widths chain")
}

#[test]
fn shrunken_staging_region_is_rejected_with_p024() {
    let (spec, target, mapping, mut plan) = lowered(MlBench::MlpS);
    // Declare one word less than the op stages: the last staged word is
    // read before any write defines it.
    plan.layers[0].out_addr -= 1;
    let codes = codes_of(&analyze_program(&spec, &target, &mapping, &plan));
    assert!(codes.contains(&Code::P024), "expected P024, got {codes:?}");
}

#[test]
fn buffer_spill_is_rejected_with_p025() {
    let (spec, target, mapping, mut plan) = lowered(MlBench::MlpS);
    // Slide the first staging window to the very end of the buffer,
    // keeping its declared size intact so P024 stays silent.
    let words = plan.layers[0].out_addr - plan.layers[0].in_addr;
    plan.layers[0].in_addr = plan.buffer_words as u64 - 1;
    plan.layers[0].out_addr = plan.layers[0].in_addr + words;
    let codes = codes_of(&analyze_program(&spec, &target, &mapping, &plan));
    assert!(codes.contains(&Code::P025), "expected P025, got {codes:?}");
}

#[test]
fn overlapping_live_regions_are_rejected_with_p025() {
    let (spec, target, mapping, mut plan) = lowered(MlBench::MlpS);
    // Move layer 1's staging window onto layer 0's still-live region,
    // preserving its declared size.
    let words = plan.layers[1].out_addr - plan.layers[1].in_addr;
    plan.layers[1].in_addr = plan.layers[0].in_addr;
    plan.layers[1].out_addr = plan.layers[1].in_addr + words;
    let codes = codes_of(&analyze_program(&spec, &target, &mapping, &plan));
    assert!(codes.contains(&Code::P025), "expected P025, got {codes:?}");
}

#[test]
fn ring_schedule_deviation_is_rejected_with_p026() {
    // CNN-1's conv is resident on the default target; a plan claiming a
    // different chunking than the conv_staging contract would key a
    // still-live halo row into an occupied ring slot.
    let (spec, target, mapping, mut plan) = lowered(MlBench::Cnn1);
    let conv = plan
        .layers
        .iter()
        .position(|l| matches!(l.op, prime::analyze::ProgramOp::Conv { resident: true, .. }))
        .expect("CNN-1 has a resident conv");
    if let prime::analyze::ProgramOp::Conv { ref mut chunk_pixels, .. } =
        plan.layers[conv].op
    {
        *chunk_pixels += 1;
    }
    // Keep the declared window in step with the inflated op so the P024
    // size check stays silent and the schedule check speaks alone.
    let required = plan.layers[conv].op.staging_words(plan.layers[conv].inputs) as u64;
    plan.layers[conv].out_addr = plan.layers[conv].in_addr + required;
    let codes = codes_of(&analyze_program(&spec, &target, &mapping, &plan));
    assert!(codes.contains(&Code::P026), "expected P026, got {codes:?}");
}

#[test]
fn unprovable_merge_register_is_rejected_with_p027() {
    let (spec, target, mapping, mut plan) = lowered(MlBench::MlpS);
    // A bias at the register limit pushes the merged interval past i64.
    plan.layers[0].bias_peak = i64::MAX;
    let codes = codes_of(&analyze_program(&spec, &target, &mapping, &plan));
    assert!(codes.contains(&Code::P027), "expected P027, got {codes:?}");
}

#[test]
fn vacuous_precision_budget_is_flagged_with_p028() {
    let (spec, target, mapping, mut plan) = lowered(MlBench::MlpS);
    // A 63-bit shift on a non-final ReLU layer discards every bit the
    // layer computes: the output interval provably collapses to {0}.
    plan.layers[0].relu = true;
    plan.layers[0].requant_shift = 63;
    let diags = analyze_program(&spec, &target, &mapping, &plan);
    let p028: Vec<_> = diags.iter().filter(|d| d.code == Code::P028).collect();
    assert!(!p028.is_empty(), "expected P028, got {:?}", codes_of(&diags));
    assert!(
        p028.iter().all(|d| d.severity == Severity::Warning),
        "P028 must be a warning"
    );
}

#[test]
fn write_armed_shared_tile_is_rejected_with_p029() {
    let (spec, target, mapping, mut plan) = lowered(MlBench::MlpS);
    plan.layers[0].tiles[0] = ProgramTile { aliased: true, write_armed: true };
    let codes = codes_of(&analyze_program(&spec, &target, &mapping, &plan));
    assert!(codes.contains(&Code::P029), "expected P029, got {codes:?}");
    // Aliased but compute-mapped (copy-on-write armed) is the legal
    // replica steady state — not a finding.
    plan.layers[0].tiles[0] = ProgramTile { aliased: true, write_armed: false };
    let codes = codes_of(&analyze_program(&spec, &target, &mapping, &plan));
    assert!(!codes.contains(&Code::P029), "aliased read-only tile misflagged");
}

#[test]
fn creditless_recycle_edge_is_rejected_with_p030() {
    let (spec, target, mapping, mut plan) = lowered(MlBench::MlpS);
    // Split the single stage into a two-stage chain, then strip the
    // recycle credits: stage 0 blocks on recv before the final stage can
    // ever feed the recycle channel.
    let n = plan.layers.len();
    plan.stages = vec![
        prime::analyze::ProgramStage { bank: 0, layers: (0, 1) },
        prime::analyze::ProgramStage { bank: 1, layers: (1, n) },
    ];
    plan.recycle_credits = 0;
    let codes = codes_of(&analyze_program(&spec, &target, &mapping, &plan));
    assert!(codes.contains(&Code::P030), "expected P030, got {codes:?}");
}

#[test]
fn broken_stage_chain_is_rejected_with_p030() {
    let (spec, target, mapping, mut plan) = lowered(MlBench::MlpS);
    let n = plan.layers.len();
    // A duplicate bank gets no thread of its own; its channel never
    // drains.
    plan.stages = vec![
        prime::analyze::ProgramStage { bank: 0, layers: (0, 1) },
        prime::analyze::ProgramStage { bank: 0, layers: (1, n) },
    ];
    let codes = codes_of(&analyze_program(&spec, &target, &mapping, &plan));
    assert!(codes.contains(&Code::P030), "expected P030, got {codes:?}");
}

/// Table III's MLP-S and CNN-1 as `to_network` builds them, with sigmoid
/// hidden FC layers, deploy on the device runner. Deploy runs Pass 1 and
/// Pass 3 on the real compiled plan and refuses on any Error-level
/// finding, so acceptance is the check.
#[test]
fn sigmoid_workloads_deploy_and_run() {
    for bench in [MlBench::MlpS, MlBench::Cnn1] {
        let mut net = bench.spec().to_network().expect("executable workload");
        net.init_random(&mut SmallRng::seed_from_u64(5));
        let calibration = vec![0.5f32; net.inputs()];
        let mut system = PrimeSystem::new(1, 2, 16, 4096);
        if let Err(e) = system.deploy(&net, &calibration) {
            panic!("{} must deploy cleanly: {e}", bench.name());
        }
        let out = system.infer_batch(&[calibration]).expect("runs");
        assert_eq!(out[0].len(), net.outputs(), "{}", bench.name());
    }
}

/// A small conv/pool/fc network exercising both planned-op families.
fn cnn_net(seed: u64) -> Network {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut net = Network::new(vec![
        Layer::Conv(Conv2d::new(1, 3, 3, 8, 8, 1, Activation::Relu)),
        Layer::Pool(Pool2d::new(PoolKind::Max, 3, 8, 8, 2)),
        Layer::Pool(Pool2d::new(PoolKind::Mean, 3, 4, 4, 2)),
        Layer::Fc(FullyConnected::new(12, 4, Activation::Identity)),
    ])
    .expect("shapes chain");
    net.init_random(&mut rng);
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Pass 3 accepted ⇒ the runner executes without an internal error,
    /// on both the plain and the seeded-noise path, on one bank or with
    /// aliased replicas on four. Deployment refusals must be typed static
    /// rejections.
    #[test]
    fn accepted_programs_run_without_internal_errors(
        seed in any::<u64>(),
        replicas in any::<bool>(),
    ) {
        let net = cnn_net(seed);
        let mut system = PrimeSystem::new(if replicas { 4 } else { 1 }, 2, 4, 2048);
        let calibration = [0.5f32; 64];
        match system.deploy(&net, &calibration) {
            Ok(()) => {
                let inputs: Vec<Vec<f32>> = (0..3)
                    .map(|b| (0..64).map(|i| ((b + i) % 9) as f32 / 9.0).collect())
                    .collect();
                let out = system.infer_batch(&inputs);
                prop_assert!(
                    !matches!(out, Err(PrimeError::Internal { .. })),
                    "accepted program hit an internal error: {out:?}"
                );
                let noise = NoiseModel { program_sigma: 0.0, read_sigma: 0.05 };
                let noisy = system.infer_batch_noisy(&inputs, &noise, 0xDEED ^ seed);
                prop_assert!(
                    !matches!(noisy, Err(PrimeError::Internal { .. })),
                    "accepted program hit an internal error under noise: {noisy:?}"
                );
            }
            Err(PrimeError::Rejected { diagnostics }) => {
                prop_assert!(!diagnostics.is_empty(), "rejection carries no diagnostics");
            }
            Err(PrimeError::MappingMismatch { .. }) => {}
            Err(other) => {
                return Err(TestCaseError::fail(format!("non-static deploy error: {other}")));
            }
        }
    }
}
