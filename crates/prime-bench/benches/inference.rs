//! Criterion benches for software inference (the reference behind the
//! Figure 6 accuracy study) and batched inference on the device runner.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use prime_core::PrimeSystem;
use prime_nn::{Activation, DigitGenerator, FullyConnected, Layer, MlBench, Network};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn digit_net(rng: &mut SmallRng) -> Network {
    let mut net = Network::new(vec![
        Layer::Fc(FullyConnected::new(784, 32, Activation::Sigmoid)),
        Layer::Fc(FullyConnected::new(32, 10, Activation::Identity)),
    ])
    .expect("widths match");
    net.init_random(rng);
    net
}

fn bench_software_forward(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(9);
    let net = digit_net(&mut rng);
    let sample = DigitGenerator::default().sample(3, &mut rng);
    c.bench_function("software_forward_784_32_10", |b| {
        b.iter(|| net.forward(black_box(&sample.pixels)).unwrap())
    });
}

fn bench_quantized_forward(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(10);
    let net = digit_net(&mut rng);
    let quantized = net.weight_quantized_clone(3).unwrap();
    let sample = DigitGenerator::default().sample(5, &mut rng);
    c.bench_function("quantized_forward_3bit", |b| {
        b.iter(|| quantized.forward_activation_quantized(black_box(&sample.pixels), 3).unwrap())
    });
}

fn bench_mlp_s_forward(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(12);
    let mut net = MlBench::MlpS.spec().to_network().unwrap();
    net.init_random(&mut rng);
    let input = vec![0.5f32; 784];
    c.bench_function("software_forward_mlp_s", |b| {
        b.iter(|| net.forward(black_box(&input)).unwrap())
    });
}

/// Serial round-robin vs thread-per-bank batched inference through the
/// command-driven engine (`PrimeSystem::infer_batch`), per bank count.
fn bench_batched_bank_parallelism(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(13);
    let mut net = Network::new(vec![
        Layer::Fc(FullyConnected::new(256, 64, Activation::Relu)),
        Layer::Fc(FullyConnected::new(64, 10, Activation::Identity)),
    ])
    .expect("widths match");
    net.init_random(&mut rng);
    let inputs: Vec<Vec<f32>> = (0..8)
        .map(|i| (0..256).map(|j| ((i * 7 + j * 5) % 13) as f32 / 13.0).collect())
        .collect();
    let mut group = c.benchmark_group("batched_inference");
    for &banks in &[1usize, 4] {
        let mut system = PrimeSystem::new(banks, 2, 8, 4096);
        system.deploy(&net, &[0.5; 256]).expect("fits");
        system.set_parallel(false);
        group.bench_with_input(BenchmarkId::new("serial", banks), &inputs, |b, inputs| {
            b.iter(|| system.infer_batch(black_box(inputs)).unwrap())
        });
        system.set_parallel(true);
        group.bench_with_input(BenchmarkId::new("parallel", banks), &inputs, |b, inputs| {
            b.iter(|| system.infer_batch(black_box(inputs)).unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_software_forward,
    bench_quantized_forward,
    bench_mlp_s_forward,
    bench_batched_bank_parallelism
);
criterion_main!(benches);
