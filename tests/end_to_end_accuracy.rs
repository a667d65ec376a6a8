//! End-to-end fidelity: a digit classifier trained offline keeps its
//! accuracy when executed on the device runner — crossbars, composing
//! scheme, truncating SAs, the column-mux sigmoid and all.

use prime::compiler::{map_network, CompileOptions, HwTarget};
use prime::core::{BankController, CommandRunner, PrimeSystem};
use prime::nn::{
    evaluate, train_sgd, Activation, DigitGenerator, FullyConnected, Layer, LayerSpec, Network,
    NetworkSpec, Sample, TrainConfig, IMAGE_PIXELS, NUM_CLASSES,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A sigmoid digit classifier trained offline, one training image to
/// calibrate its deployment with, and a held-out test set.
fn trained_classifier(rng: &mut SmallRng) -> (Network, Vec<f32>, Vec<Sample>) {
    let generator = DigitGenerator::default();
    let train_set = generator.dataset(600, rng);
    let test_set = generator.dataset(120, rng);
    let mut net = Network::new(vec![
        Layer::Fc(FullyConnected::new(IMAGE_PIXELS, 32, Activation::Sigmoid)),
        Layer::Fc(FullyConnected::new(32, NUM_CLASSES, Activation::Identity)),
    ])
    .expect("widths match");
    net.init_random(rng);
    train_sgd(&mut net, &train_set, TrainConfig::quick(), rng).expect("training succeeds");
    (net, train_set[0].pixels.clone(), test_set)
}

fn argmax(v: &[f32]) -> usize {
    let mut best = 0;
    for (i, &x) in v.iter().enumerate() {
        if x > v[best] {
            best = i;
        }
    }
    best
}

/// Deploys `net` on a two-bank system and classifies `samples` on it.
fn device_outputs(net: &Network, calibration: &[f32], samples: &[Sample]) -> Vec<Vec<f32>> {
    let mut system = PrimeSystem::new(2, 2, 8, 4096);
    system.deploy(net, calibration).expect("the sigmoid classifier deploys");
    let inputs: Vec<Vec<f32>> = samples.iter().map(|s| s.pixels.clone()).collect();
    system.infer_batch(&inputs).expect("hardware execution")
}

#[test]
fn ff_hardware_matches_software_accuracy() {
    let mut rng = SmallRng::seed_from_u64(404);
    let (net, calibration, test_set) = trained_classifier(&mut rng);
    let sw_acc = evaluate(&net, &test_set).expect("software evaluation");
    assert!(sw_acc > 0.9, "software accuracy too low: {sw_acc}");

    let subset = &test_set[..40];
    let outputs = device_outputs(&net, &calibration, subset);
    let correct = subset.iter().zip(&outputs).filter(|(s, out)| argmax(out) == s.label).count();
    let hw_acc = correct as f64 / subset.len() as f64;
    assert!(
        hw_acc >= sw_acc - 0.1,
        "hardware accuracy {hw_acc} dropped more than 10 points below software {sw_acc}"
    );
}

#[test]
fn prime_program_classifies_through_the_full_api() {
    // The Fig. 7 flow as direct calls: `map_network` (Map_Topology),
    // `PrimeSystem::deploy` (Program_Weight + Config_Datapath),
    // `infer_batch` (Run), argmax (Post_Proc).
    let mut rng = SmallRng::seed_from_u64(505);
    let (net, calibration, test_set) = trained_classifier(&mut rng);
    let spec = NetworkSpec::new(
        "digit-mlp",
        vec![
            LayerSpec::FullyConnected { inputs: IMAGE_PIXELS, outputs: 32 },
            LayerSpec::FullyConnected { inputs: 32, outputs: NUM_CLASSES },
        ],
    )
    .expect("valid topology");
    assert_eq!(net.to_spec("digit-mlp").expect("spec derivable"), spec);
    let mapping = map_network(&spec, &HwTarget::prime_default(), CompileOptions::default())
        .expect("mapping fits");
    assert_eq!(mapping.layers.len(), 2);

    let subset = &test_set[..20];
    let outputs = device_outputs(&net, &calibration, subset);
    let mut agree = 0usize;
    for (sample, out) in subset.iter().zip(&outputs) {
        let sw_class = argmax(&net.forward(&sample.pixels).expect("software forward"));
        if argmax(out) == sw_class {
            agree += 1;
        }
    }
    assert!(
        agree >= subset.len() - 2,
        "hardware and software classifications diverge: {agree}/{}",
        subset.len()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random conv shapes and paddings: the device runner's im2col
    /// crossbar path tracks the fixed-point host reference within the
    /// §III-D truncation bound (the composed 6-bit output window plus
    /// requantization loses at most a few LSBs per layer).
    #[test]
    fn device_conv_matches_host_for_random_shapes(
        kernel in 1usize..4,
        padding in 0usize..3,
        extra_h in 0usize..5,
        extra_w in 0usize..5,
        in_ch in 1usize..3,
        out_ch in 1usize..4,
        seed in any::<u64>(),
    ) {
        // in_h >= kernel keeps the output nonempty for any padding.
        let (in_h, in_w) = (kernel + extra_h, kernel + extra_w);
        let mut net = Network::new(vec![Layer::Conv(prime::nn::Conv2d::new(
            in_ch, out_ch, kernel, in_h, in_w, padding, Activation::Identity,
        ))])
        .expect("widths match");
        net.init_random(&mut SmallRng::seed_from_u64(seed));
        let inputs = in_ch * in_h * in_w;
        let input: Vec<f32> = (0..inputs)
            .map(|i| ((i * 7 + seed as usize % 5) % 13) as f32 / 13.0)
            .collect();
        let mut controller = BankController::new(2, 8, 4096, 8192);
        let runner = CommandRunner::compile(&net, &mut controller, &input)
            .expect("small conv compiles");
        let hw = runner.infer(&mut controller, &input).unwrap();
        let sw = net.forward(&input).unwrap();
        prop_assert_eq!(hw.len(), sw.len());
        let max = sw.iter().fold(0.0f32, |m, &v| m.max(v.abs())).max(0.2);
        for (a, b) in hw.iter().zip(&sw) {
            prop_assert!((a - b).abs() / max < 0.3, "device {} vs host {}", a, b);
        }
    }
}

#[test]
fn cnn_executes_on_ff_mats() {
    // A small conv-pool-fc network (CNN-1 shaped, scaled down) runs
    // through the device runner and tracks the software output.
    let mut rng = SmallRng::seed_from_u64(606);
    let mut net = Network::new(vec![
        Layer::Conv(prime::nn::Conv2d::new(1, 3, 5, 12, 12, 0, Activation::Relu)),
        Layer::Pool(prime::nn::Pool2d::new(prime::nn::PoolKind::Max, 3, 8, 8, 2)),
        Layer::Fc(FullyConnected::new(48, 10, Activation::Identity)),
    ])
    .expect("widths match");
    net.init_random(&mut rng);
    let input: Vec<f32> = (0..144).map(|i| ((i * 13 % 29) as f32) / 29.0).collect();
    let sw = net.forward(&input).expect("software forward");
    let mut system = PrimeSystem::new(1, 2, 4, 2048);
    system.deploy(&net, &input).expect("the CNN deploys");
    let hw = system.infer_batch(std::slice::from_ref(&input)).expect("hardware run");
    assert_eq!(hw[0].len(), 10);
    // Outputs track software within the composing scheme's error budget.
    let sw_max = sw.iter().fold(0.0f32, |m, &v| m.max(v.abs())).max(0.1);
    for (a, b) in hw[0].iter().zip(&sw) {
        assert!((a - b).abs() / sw_max < 0.35, "hw {a} vs sw {b}");
    }
}
