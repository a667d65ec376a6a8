//! Cross-crate consistency: the same physical quantities derived in
//! different crates must agree (geometry vs compiler target, FF mat vs
//! composing scheme, command streams vs mapping).

use prime::compiler::HwTarget;
use prime::core::{BankController, CommandRunner, FfMat};
use prime::mem::{Command, MatFunction, MemGeometry};
use prime::nn::{MlBench, NetworkSpec};

#[test]
fn compiler_target_matches_memory_geometry() {
    let geo = MemGeometry::prime_default();
    let hw = HwTarget::from_geometry(&geo).expect("valid geometry");
    assert_eq!(hw.mat_rows, geo.mat_rows);
    assert_eq!(hw.mat_cols, geo.mat_cols / 2); // composed weights
    assert_eq!(hw.banks, geo.total_banks());
    assert_eq!(
        hw.total_mats() as u64 * hw.synapses_per_mat(),
        geo.max_synapses(),
        "compiler and geometry disagree on total synapse capacity"
    );
}

#[test]
fn ff_mat_capacity_matches_compiler_assumptions() {
    let hw = HwTarget::prime_default();
    let mat = FfMat::new();
    assert_eq!(mat.max_rows(), hw.mat_rows);
    assert_eq!(mat.max_cols(), hw.mat_cols);
    // A full-capacity weight matrix programs successfully.
    let mut mat = FfMat::new();
    mat.set_function(MatFunction::Program);
    let weights = vec![1i32; hw.mat_rows * hw.mat_cols];
    mat.program_composed(&weights, hw.mat_rows, hw.mat_cols).expect("fits exactly");
    // One more column does not.
    let mut mat = FfMat::new();
    mat.set_function(MatFunction::Program);
    let too_many = vec![1i32; hw.mat_rows * (hw.mat_cols + 1)];
    assert!(mat.program_composed(&too_many, hw.mat_rows, hw.mat_cols + 1).is_err());
}

#[test]
fn command_stream_length_tracks_the_mapping() {
    // One MLP-S inference on the device runner issues exactly one `load`
    // per tile the compiler mapped: the mapping's tile count is the
    // command stream the runner executes.
    use prime::compiler::{map_network, CompileOptions};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    let spec = MlBench::MlpS.spec();
    let mut network = spec.to_network().expect("executable benchmark");
    network.init_random(&mut SmallRng::seed_from_u64(3));
    let options = CompileOptions { replicate: false, ..CompileOptions::default() };
    let mapping = map_network(&spec, &HwTarget::prime_default(), options).expect("fits");
    let tiles: usize = mapping.layers.iter().map(|l| l.base_mats).sum();
    let mut bank = BankController::new(2, 16, 4096, 4096);
    let input = vec![0.5f32; 784];
    let runner =
        CommandRunner::compile(&network, &mut bank, &input).expect("MLP-S fits one bank");
    assert_eq!(runner.mats_used(), tiles);
    let before = bank.commands_issued();
    runner.infer(&mut bank, &input).expect("runs");
    assert_eq!(bank.commands_issued() - before, tiles as u64);
    assert!(bank.log().iter().rev().take(tiles).all(|c| matches!(c, Command::Load { .. })));
}

#[test]
fn spec_and_network_agree_on_synapses() {
    for bench in MlBench::ALL {
        let spec = bench.spec();
        if bench.is_executable() {
            let net = spec.to_network().expect("executable");
            assert_eq!(
                net.synapses() as u64,
                spec.synapses(),
                "{}: spec and network disagree",
                bench.name()
            );
            assert_eq!(net.inputs(), spec.inputs());
            assert_eq!(net.outputs(), spec.outputs());
        }
    }
}

#[test]
fn simulator_and_runner_execute_the_same_pipeline_stages() {
    // A VGG-D-class deployment: a deep FC stack on two-mat banks, which
    // the compiler must split into an inter-bank pipeline. The stage
    // count the analytical simulator charges in its pipeline latency
    // term must equal the stage count the functional CommandRunner
    // actually executes — both consume the same `Mapping::pipeline`.
    use prime::compiler::CompileOptions;
    use prime::core::PrimeSystem;
    use prime::nn::{Activation, FullyConnected, Layer, Network};
    use prime::sim::PrimeMachine;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    let mut net = Network::new(vec![
        Layer::Fc(FullyConnected::new(48, 100, Activation::Relu)),
        Layer::Fc(FullyConnected::new(100, 90, Activation::Relu)),
        Layer::Fc(FullyConnected::new(90, 80, Activation::Relu)),
        Layer::Fc(FullyConnected::new(80, 70, Activation::Relu)),
        Layer::Fc(FullyConnected::new(70, 60, Activation::Relu)),
        Layer::Fc(FullyConnected::new(60, 50, Activation::Relu)),
        Layer::Fc(FullyConnected::new(50, 40, Activation::Relu)),
        Layer::Fc(FullyConnected::new(40, 6, Activation::Identity)),
    ])
    .expect("widths match");
    net.init_random(&mut SmallRng::seed_from_u64(11));

    // The functional engine's geometry: 8 banks of 1x2 mats.
    let mut system = PrimeSystem::new(8, 1, 2, 4096);
    system.deploy(&net, &[0.5; 48]).expect("deploys as a pipeline");
    let executed = system.deployed_stages().expect("deployed");
    assert!(executed >= 2, "expected an inter-bank pipeline");

    // The simulator pinned to the same target and options as deploy.
    let target = HwTarget {
        mat_rows: 256,
        mat_cols: 128,
        mats_per_ff_subarray: 2,
        ff_subarrays_per_bank: 1,
        banks: 8,
    };
    let machine = PrimeMachine::with_target(target, CompileOptions { replicate: false, ..CompileOptions::default() });
    let spec = net.to_spec("deep-fc").expect("spec derivable");
    assert_eq!(
        machine.pipeline_stage_count(&spec),
        executed,
        "simulator and runner disagree on pipeline depth"
    );
}

#[test]
fn simulator_and_runner_agree_on_conv_pipeline_stages() {
    // The CNN analogue of the FC cross-check above: a conv + max-pool +
    // mean-pool + FC stack on one-mat banks splits into an inter-bank
    // pipeline (conv + pools on one bank, the FC head on the next); the
    // analytical simulator's per-stage bottleneck model must charge
    // exactly the stage count the device runner executes.
    use prime::compiler::CompileOptions;
    use prime::core::PrimeSystem;
    use prime::nn::{Activation, Conv2d, FullyConnected, Layer, Network, Pool2d, PoolKind};
    use prime::sim::PrimeMachine;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    let mut net = Network::new(vec![
        Layer::Conv(Conv2d::new(1, 3, 3, 8, 8, 1, Activation::Relu)),
        Layer::Pool(Pool2d::new(PoolKind::Max, 3, 8, 8, 2)),
        Layer::Pool(Pool2d::new(PoolKind::Mean, 3, 4, 4, 2)),
        Layer::Fc(FullyConnected::new(12, 4, Activation::Identity)),
    ])
    .expect("widths match");
    net.init_random(&mut SmallRng::seed_from_u64(17));

    let calibration: Vec<f32> = (0..64).map(|j| ((j * 7) % 13) as f32 / 13.0).collect();
    let mut system = PrimeSystem::new(2, 1, 1, 2048);
    system.deploy(&net, &calibration).expect("deploys as a CNN pipeline");
    let executed = system.deployed_stages().expect("deployed");
    assert!(executed >= 2, "expected an inter-bank CNN pipeline");

    let target = HwTarget {
        mat_rows: 256,
        mat_cols: 128,
        mats_per_ff_subarray: 1,
        ff_subarrays_per_bank: 1,
        banks: 2,
    };
    let machine = PrimeMachine::with_target(target, CompileOptions { replicate: false, ..CompileOptions::default() });
    let spec = net.to_spec("cnn-1-class").expect("spec derivable");
    assert_eq!(
        machine.pipeline_stage_count(&spec),
        executed,
        "simulator and runner disagree on CNN pipeline depth"
    );
}

#[test]
fn facade_reexports_compose() {
    // The facade's module paths interoperate: a spec built through
    // `prime::nn` maps through `prime::compiler` and runs on
    // `prime::sim` machines.
    use prime::sim::{Machine, PrimeMachine};
    let spec: NetworkSpec = MlBench::MlpM.spec();
    let result = PrimeMachine::new().run(&spec, 8);
    assert_eq!(result.benchmark, "MLP-M");
    assert!(result.latency_ns > 0.0);
}
