//! Criterion benches for the extension features: noisy analog compute,
//! IR-drop evaluation, SNN timesteps, in-situ updates, and the
//! command-driven runner.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use prime_core::{BankController, CommandRunner, FfMat};
use prime_device::{Crossbar, IrDropModel, MlcSpec, NoiseModel};
use prime_mem::MatFunction;
use prime_nn::{Activation, FullyConnected, Layer, Network, SnnConfig, SpikingNetwork};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn bench_analog_noisy_mat(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(31);
    let weights: Vec<i32> = (0..256 * 64).map(|_| rng.gen_range(-255..=255)).collect();
    let mut mat = FfMat::new();
    mat.set_function(MatFunction::Program);
    mat.program_composed(&weights, 256, 64).unwrap();
    mat.set_function(MatFunction::Compute);
    mat.apply_program_noise(&NoiseModel::crossbar_default(), &mut rng);
    let inputs: Vec<u16> = (0..256).map(|_| rng.gen_range(0..64)).collect();
    c.bench_function("ff_mat_compute_analog_noisy", |b| {
        b.iter(|| mat.compute_analog(black_box(&inputs), &NoiseModel::ideal(), &mut rng).unwrap())
    });
}

fn bench_ir_drop(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(32);
    let mut xbar = Crossbar::new(256, 128, MlcSpec::new(4).unwrap());
    let weights: Vec<u16> = (0..256 * 128).map(|_| rng.gen_range(0..16)).collect();
    xbar.program_matrix(&weights).unwrap();
    let input: Vec<u16> = (0..256).map(|_| rng.gen_range(0..8)).collect();
    let model = IrDropModel::typical();
    c.bench_function("ir_drop_dot_attenuated_256x128", |b| {
        b.iter(|| model.dot_attenuated(black_box(&xbar), black_box(&input)).unwrap())
    });
    c.bench_function("ir_drop_compensate_weights_256x128", |b| {
        b.iter(|| model.compensate_weights(black_box(&xbar)).unwrap())
    });
}

fn bench_snn_inference(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(33);
    let mut ann = Network::new(vec![
        Layer::Fc(FullyConnected::new(196, 32, Activation::Relu)),
        Layer::Fc(FullyConnected::new(32, 10, Activation::Identity)),
    ])
    .unwrap();
    ann.init_random(&mut rng);
    let calib: Vec<Vec<f32>> = (0..4)
        .map(|_| (0..196).map(|_| rng.gen_range(0.0f32..1.0)).collect())
        .collect();
    let snn = SpikingNetwork::from_network(&ann, SnnConfig::fast(), &calib).unwrap();
    let input: Vec<f32> = (0..196).map(|_| rng.gen_range(0.0f32..1.0)).collect();
    c.bench_function("snn_infer_16_steps", |b| b.iter(|| snn.infer(black_box(&input))));
}

fn bench_command_runner(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(34);
    let mut net = Network::new(vec![
        Layer::Fc(FullyConnected::new(64, 32, Activation::Relu)),
        Layer::Fc(FullyConnected::new(32, 10, Activation::Identity)),
    ])
    .unwrap();
    net.init_random(&mut rng);
    let input: Vec<f32> = (0..64).map(|_| rng.gen_range(0.0f32..1.0)).collect();
    let mut controller = BankController::new(2, 8, 4096, 8192);
    let runner = CommandRunner::compile(&net, &mut controller, &input).unwrap();
    c.bench_function("command_runner_infer_64_32_10", |b| {
        b.iter(|| runner.infer(&mut controller, black_box(&input)).unwrap())
    });
}

criterion_group!(
    benches,
    bench_analog_noisy_mat,
    bench_ir_drop,
    bench_snn_inference,
    bench_command_runner
);
criterion_main!(benches);
