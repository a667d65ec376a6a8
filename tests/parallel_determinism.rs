//! Serial/parallel equivalence of the batched inference engines: for
//! every bank count, driving the banks with one thread each must produce
//! bit-identical outputs to the serial round-robin — on the exact
//! digital path and on the noisy analog path with seeded per-bank RNG
//! streams. For large-scale deployments that follow the compiler's
//! `Mapping::pipeline` across banks, the stage-overlapped engine must
//! likewise match stage-by-stage serial execution, and the digital path
//! must additionally match the same network flattened onto one
//! sufficiently large bank (placement never changes arithmetic).

use prime::core::{BankController, CommandRunner, InferScratch, PrimeError, PrimeSystem};
use prime::device::NoiseModel;
use prime::nn::{Activation, Conv2d, FullyConnected, Layer, Network, Pool2d, PoolKind};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn relu_net(seed: u64) -> Network {
    let mut net = Network::new(vec![
        Layer::Fc(FullyConnected::new(16, 10, Activation::Relu)),
        Layer::Fc(FullyConnected::new(10, 4, Activation::Identity)),
    ])
    .expect("widths match");
    net.init_random(&mut SmallRng::seed_from_u64(seed));
    net
}

/// A batch whose length is deliberately not a multiple of any bank count,
/// so partial last rounds are exercised.
fn batch(len: usize) -> Vec<Vec<f32>> {
    (0..len)
        .map(|i| (0..16).map(|j| ((i * 5 + j * 3) % 11) as f32 / 11.0).collect())
        .collect()
}

fn deployed_system(banks: usize) -> PrimeSystem {
    let net = relu_net(7);
    let mut system = PrimeSystem::new(banks, 2, 4, 2048);
    system.deploy(&net, &[0.5; 16]).expect("fits");
    system
}

#[test]
fn parallel_digital_matches_serial_for_every_bank_count() {
    for banks in 1..=8 {
        let mut system = deployed_system(banks);
        let inputs = batch(13);
        system.set_parallel(false);
        let serial = system.infer_batch(&inputs).unwrap();
        system.set_parallel(true);
        let parallel = system.infer_batch(&inputs).unwrap();
        assert_eq!(serial, parallel, "digital outputs diverged at banks={banks}");
        assert_eq!(serial.len(), inputs.len());
    }
}

#[test]
fn parallel_noisy_matches_serial_for_every_bank_count() {
    let noise = NoiseModel { program_sigma: 0.0, read_sigma: 0.05 };
    for banks in 1..=8 {
        let mut system = deployed_system(banks);
        let inputs = batch(11);
        system.set_parallel(false);
        let serial = system.infer_batch_noisy(&inputs, &noise, 0xDEED).unwrap();
        system.set_parallel(true);
        let parallel = system.infer_batch_noisy(&inputs, &noise, 0xDEED).unwrap();
        assert_eq!(serial, parallel, "noisy outputs diverged at banks={banks}");
        // Same seed again: the per-bank streams restart, so the batch
        // reproduces exactly.
        let repeat = system.infer_batch_noisy(&inputs, &noise, 0xDEED).unwrap();
        assert_eq!(serial, repeat, "noisy batch not reproducible at banks={banks}");
    }
}

#[test]
fn inference_counters_agree_between_engines() {
    let mut system = deployed_system(4);
    let inputs = batch(9);
    system.set_parallel(false);
    system.infer_batch(&inputs).unwrap();
    assert_eq!(system.stats().inferences, 9);
    system.set_parallel(true);
    system.infer_batch(&inputs).unwrap();
    assert_eq!(system.stats().inferences, 18);
}

/// A VGG-D-class stack for the functional engine: a deep chain of
/// fully-connected layers (the runner's executable subset) that cannot
/// fit one small bank, so the compiler splits it into an inter-bank
/// pipeline exactly as it splits VGG-D on the real geometry.
fn deep_net(seed: u64) -> Network {
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
    net.init_random(&mut SmallRng::seed_from_u64(seed));
    net
}

fn deep_batch(len: usize) -> Vec<Vec<f32>> {
    (0..len)
        .map(|i| (0..48).map(|j| ((i * 5 + j * 3) % 11) as f32 / 11.0).collect())
        .collect()
}

/// Two-mat banks force one pipeline stage per layer pair; six banks give
/// two independent pipelined copies.
fn pipelined_system(banks: usize) -> PrimeSystem {
    let net = deep_net(23);
    let mut system = PrimeSystem::new(banks, 1, 2, 4096);
    system.deploy(&net, &[0.5; 48]).expect("fits as a pipeline");
    assert!(
        system.deployed_stages().unwrap() >= 2,
        "expected an inter-bank pipeline, got {:?} stages",
        system.deployed_stages()
    );
    system
}

#[test]
fn pipelined_digital_matches_single_bank_execution() {
    let net = deep_net(23);
    let inputs = deep_batch(9);
    // Reference: the whole network flattened onto one bank big enough to
    // hold it, run serially.
    let mut flat = PrimeSystem::new(1, 1, 8, 4096);
    flat.deploy(&net, &[0.5; 48]).expect("fits one large bank");
    assert_eq!(flat.deployed_stages(), Some(1));
    flat.set_parallel(false);
    let reference = flat.infer_batch(&inputs).unwrap();
    // Pipelined deployments of every span must reproduce it bit for bit,
    // on both engines.
    for banks in [4, 6, 8] {
        let mut system = pipelined_system(banks);
        system.set_parallel(false);
        let serial = system.infer_batch(&inputs).unwrap();
        assert_eq!(serial, reference, "serial pipeline diverged at banks={banks}");
        system.set_parallel(true);
        let overlapped = system.infer_batch(&inputs).unwrap();
        assert_eq!(overlapped, reference, "overlapped pipeline diverged at banks={banks}");
    }
}

#[test]
fn pipelined_noisy_overlap_matches_serial_and_reproduces() {
    let noise = NoiseModel { program_sigma: 0.0, read_sigma: 0.05 };
    for banks in [4, 6] {
        let mut system = pipelined_system(banks);
        let inputs = deep_batch(11);
        system.set_parallel(false);
        let serial = system.infer_batch_noisy(&inputs, &noise, 0xFEED).unwrap();
        system.set_parallel(true);
        let overlapped = system.infer_batch_noisy(&inputs, &noise, 0xFEED).unwrap();
        assert_eq!(serial, overlapped, "noisy pipeline diverged at banks={banks}");
        // Same seed again: every stage bank's stream restarts, so the
        // overlapped batch reproduces exactly.
        let repeat = system.infer_batch_noisy(&inputs, &noise, 0xFEED).unwrap();
        assert_eq!(serial, repeat, "noisy pipeline not reproducible at banks={banks}");
    }
}

#[test]
fn pipelined_inference_counters_agree_between_engines() {
    let mut system = pipelined_system(8);
    let inputs = deep_batch(7);
    system.set_parallel(false);
    system.infer_batch(&inputs).unwrap();
    assert_eq!(system.stats().inferences, 7);
    system.set_parallel(true);
    system.infer_batch(&inputs).unwrap();
    assert_eq!(system.stats().inferences, 14);
}

/// A CNN-1-class stack (paper §V): padded conv, winner-code max pooling,
/// 1/n-weight mean pooling, and an FC head — every layer kind the device
/// runner executes.
fn cnn_net(seed: u64) -> Network {
    let mut net = Network::new(vec![
        Layer::Conv(Conv2d::new(1, 3, 3, 8, 8, 1, Activation::Relu)),
        Layer::Pool(Pool2d::new(PoolKind::Max, 3, 8, 8, 2)),
        Layer::Pool(Pool2d::new(PoolKind::Mean, 3, 4, 4, 2)),
        Layer::Fc(FullyConnected::new(12, 4, Activation::Identity)),
    ])
    .expect("widths match");
    net.init_random(&mut SmallRng::seed_from_u64(seed));
    net
}

fn cnn_batch(len: usize) -> Vec<Vec<f32>> {
    (0..len)
        .map(|i| (0..64).map(|j| ((i * 5 + j * 7) % 13) as f32 / 13.0).collect())
        .collect()
}

fn cnn_calibration() -> Vec<f32> {
    (0..64).map(|j| ((j * 7) % 13) as f32 / 13.0).collect()
}

#[test]
fn cnn_deploys_and_tracks_host_reference() {
    let net = cnn_net(41);
    let mut system = PrimeSystem::new(2, 2, 4, 2048);
    system.deploy(&net, &cnn_calibration()).expect("CNN-1-class must deploy");
    let inputs = cnn_batch(4);
    let outputs = system.infer_batch(&inputs).unwrap();
    for (input, hw) in inputs.iter().zip(&outputs) {
        let sw = net.forward(input).unwrap();
        let max = sw.iter().fold(0.0f32, |m, &v| m.max(v.abs())).max(0.2);
        for (a, b) in hw.iter().zip(&sw) {
            assert!((a - b).abs() / max < 0.3, "device {a} vs host {b}");
        }
    }
}

#[test]
fn cnn_parallel_digital_matches_serial_for_every_bank_count() {
    for banks in 1..=4 {
        let net = cnn_net(41);
        let mut system = PrimeSystem::new(banks, 2, 4, 2048);
        system.deploy(&net, &cnn_calibration()).expect("fits");
        let inputs = cnn_batch(7);
        system.set_parallel(false);
        let serial = system.infer_batch(&inputs).unwrap();
        system.set_parallel(true);
        let parallel = system.infer_batch(&inputs).unwrap();
        assert_eq!(serial, parallel, "CNN digital outputs diverged at banks={banks}");
    }
}

#[test]
fn cnn_parallel_noisy_matches_serial_and_reproduces() {
    let noise = NoiseModel { program_sigma: 0.0, read_sigma: 0.05 };
    for banks in [1, 3] {
        let net = cnn_net(41);
        let mut system = PrimeSystem::new(banks, 2, 4, 2048);
        system.deploy(&net, &cnn_calibration()).expect("fits");
        let inputs = cnn_batch(5);
        system.set_parallel(false);
        let serial = system.infer_batch_noisy(&inputs, &noise, 0xDEED).unwrap();
        system.set_parallel(true);
        let parallel = system.infer_batch_noisy(&inputs, &noise, 0xDEED).unwrap();
        assert_eq!(serial, parallel, "CNN noisy outputs diverged at banks={banks}");
        let repeat = system.infer_batch_noisy(&inputs, &noise, 0xDEED).unwrap();
        assert_eq!(serial, repeat, "CNN noisy batch not reproducible at banks={banks}");
    }
}

/// One-mat banks split the CNN into conv+pool and FC stages: the
/// stage-overlapped engine must match serial execution and the same
/// network flattened onto one large bank, streaming the conv/pool
/// boundary through the burst protocol.
#[test]
fn cnn_pipelined_matches_single_bank_execution() {
    let net = cnn_net(43);
    let inputs = cnn_batch(6);
    let mut flat = PrimeSystem::new(1, 2, 4, 2048);
    flat.deploy(&net, &cnn_calibration()).expect("fits one bank");
    assert_eq!(flat.deployed_stages(), Some(1));
    flat.set_parallel(false);
    let reference = flat.infer_batch(&inputs).unwrap();
    for banks in [2, 4] {
        let mut system = PrimeSystem::new(banks, 1, 1, 2048);
        system.deploy(&net, &cnn_calibration()).expect("fits as a pipeline");
        assert!(
            system.deployed_stages().unwrap() >= 2,
            "expected an inter-bank CNN pipeline, got {:?} stages",
            system.deployed_stages()
        );
        system.set_parallel(false);
        let serial = system.infer_batch(&inputs).unwrap();
        assert_eq!(serial, reference, "serial CNN pipeline diverged at banks={banks}");
        system.set_parallel(true);
        let overlapped = system.infer_batch(&inputs).unwrap();
        assert_eq!(overlapped, reference, "overlapped CNN pipeline diverged at banks={banks}");
    }
}

#[test]
fn cnn_pipelined_noisy_overlap_matches_serial() {
    let noise = NoiseModel { program_sigma: 0.0, read_sigma: 0.05 };
    let net = cnn_net(43);
    let inputs = cnn_batch(5);
    let mut system = PrimeSystem::new(2, 1, 1, 2048);
    system.deploy(&net, &cnn_calibration()).expect("fits as a pipeline");
    assert!(system.deployed_stages().unwrap() >= 2);
    system.set_parallel(false);
    let serial = system.infer_batch_noisy(&inputs, &noise, 0xFEED).unwrap();
    system.set_parallel(true);
    let overlapped = system.infer_batch_noisy(&inputs, &noise, 0xFEED).unwrap();
    assert_eq!(serial, overlapped, "noisy CNN pipeline diverged");
}

/// A sigmoid conv + FC stack: the column-mux sigmoid unit runs after the
/// merge of every weight layer but the identity head.
fn sigmoid_net(seed: u64) -> Network {
    let mut net = Network::new(vec![
        Layer::Conv(Conv2d::new(1, 3, 3, 8, 8, 1, Activation::Sigmoid)),
        Layer::Pool(Pool2d::new(PoolKind::Max, 3, 8, 8, 2)),
        Layer::Fc(FullyConnected::new(48, 8, Activation::Sigmoid)),
        Layer::Fc(FullyConnected::new(8, 4, Activation::Identity)),
    ])
    .expect("widths match");
    net.init_random(&mut SmallRng::seed_from_u64(seed));
    net
}

/// Sigmoid networks deploy, and stay bit-identical across the serial,
/// bank-parallel and stage-overlapped engines: digital outputs equal a
/// one-bank deploy, and seeded read noise reproduces across engines.
#[test]
fn sigmoid_stack_is_bit_identical_across_engines() {
    let noise = NoiseModel { program_sigma: 0.0, read_sigma: 0.05 };
    let net = sigmoid_net(3);
    let inputs = cnn_batch(7);
    let mut flat = PrimeSystem::new(1, 2, 4, 2048);
    flat.deploy(&net, &cnn_calibration()).expect("sigmoid stack deploys");
    flat.set_parallel(false);
    let reference = flat.infer_batch(&inputs).unwrap();
    // Three bank-parallel copies, then one copy pipelined over 1-mat banks.
    for (banks, ff_subarrays, mats) in [(3, 2, 4), (4, 1, 1)] {
        let mut system = PrimeSystem::new(banks, ff_subarrays, mats, 2048);
        system.deploy(&net, &cnn_calibration()).expect("sigmoid stack deploys");
        if mats == 1 {
            assert!(system.deployed_stages().unwrap() >= 2, "expected a pipeline");
        }
        system.set_parallel(false);
        let serial = system.infer_batch(&inputs).unwrap();
        let serial_noisy = system.infer_batch_noisy(&inputs, &noise, 0xBEEF).unwrap();
        system.set_parallel(true);
        let parallel = system.infer_batch(&inputs).unwrap();
        let parallel_noisy = system.infer_batch_noisy(&inputs, &noise, 0xBEEF).unwrap();
        assert_eq!(serial, reference, "serial sigmoid outputs diverged at banks={banks}");
        assert_eq!(parallel, reference, "parallel sigmoid outputs diverged at banks={banks}");
        assert_eq!(serial_noisy, parallel_noisy, "noisy sigmoid outputs diverged at banks={banks}");
        assert_eq!(
            parallel_noisy,
            system.infer_batch_noisy(&inputs, &noise, 0xBEEF).unwrap(),
            "noisy sigmoid batch not reproducible at banks={banks}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Arbitrary weights, batch lengths, and engines: splitting a network
    /// into an inter-bank pipeline never changes the digital arithmetic
    /// relative to the same network flattened onto one large bank.
    #[test]
    fn pipelined_placement_preserves_digital_outputs(
        seed in any::<u64>(),
        len in 1usize..6,
        parallel in any::<bool>(),
    ) {
        let mut net = Network::new(vec![
            Layer::Fc(FullyConnected::new(32, 80, Activation::Relu)),
            Layer::Fc(FullyConnected::new(80, 60, Activation::Relu)),
            Layer::Fc(FullyConnected::new(60, 40, Activation::Relu)),
            Layer::Fc(FullyConnected::new(40, 5, Activation::Identity)),
        ]).expect("widths match");
        net.init_random(&mut SmallRng::seed_from_u64(seed));
        let inputs: Vec<Vec<f32>> = (0..len)
            .map(|i| (0..32).map(|j| ((i * 7 + j) % 9) as f32 / 9.0).collect())
            .collect();
        let mut flat = PrimeSystem::new(1, 1, 4, 4096);
        flat.deploy(&net, &[0.5; 32]).expect("fits one bank");
        flat.set_parallel(false);
        let reference = flat.infer_batch(&inputs).unwrap();
        let mut piped = PrimeSystem::new(4, 1, 2, 4096);
        piped.deploy(&net, &[0.5; 32]).expect("fits as a pipeline");
        prop_assert!(piped.deployed_stages().unwrap() >= 2);
        piped.set_parallel(parallel);
        let outputs = piped.infer_batch(&inputs).unwrap();
        prop_assert_eq!(outputs, reference);
    }
}

/// FNV-1a (64-bit) over the IEEE bit patterns of a batch's outputs, input
/// by input.
fn output_hash(outputs: &[Vec<f32>]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in outputs.iter().flatten().flat_map(|v| v.to_bits().to_le_bytes()) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A conv with 130 output maps, so its kernel matrix spans two column
/// tiles, pooled down to a 130→10 FC head. With a single tile every conv
/// draw order reads the same noise; with two, "chunk, then tile, then
/// pixel" and "pixel, then tile" draw differently.
fn wide_conv_net(seed: u64) -> Network {
    let mut net = Network::new(vec![
        Layer::Conv(Conv2d::new(1, 130, 3, 16, 16, 1, Activation::Relu)),
        Layer::Pool(Pool2d::new(PoolKind::Max, 130, 16, 16, 4)),
        Layer::Pool(Pool2d::new(PoolKind::Max, 130, 4, 4, 4)),
        Layer::Fc(FullyConnected::new(130, 10, Activation::Identity)),
    ])
    .expect("widths match");
    net.init_random(&mut SmallRng::seed_from_u64(seed));
    net
}

fn wide_conv_batch(len: usize) -> Vec<Vec<f32>> {
    (0..len)
        .map(|i| (0..256).map(|j| ((i * 5 + j * 7) % 13) as f32 / 13.0).collect())
        .collect()
}

/// Golden outputs. Every other test here compares one engine with another,
/// so a change that moved every engine at once (say, the conv read-noise
/// draw order: chunk, then tile, then pixel) would pass them all. These
/// hashes pin the absolute output bits, digital and seeded-noisy, on both
/// engines. The wide conv runs on two buffer sizes: 2048 words keeps its
/// input rows resident and evaluates 16-pixel chunks, 640 words forces
/// the per-pixel fallback.
#[test]
fn outputs_match_pinned_golden_hashes() {
    let noise = NoiseModel { program_sigma: 0.0, read_sigma: 0.05 };
    let cnn_system = |banks, ff_subarrays, mats, seed| {
        let mut system = PrimeSystem::new(banks, ff_subarrays, mats, 2048);
        system.deploy(&cnn_net(seed), &cnn_calibration()).expect("fits");
        system
    };
    let wide_conv_system = |buffer_words| {
        let staging = prime::analyze::conv_staging(1, 3, 16, 16, buffer_words);
        assert_eq!(
            (staging.resident, staging.chunk_pixels),
            if buffer_words == 2048 { (true, 16) } else { (false, 1) },
            "wide conv staging on a {buffer_words}-word buffer"
        );
        let mut system = PrimeSystem::new(2, 2, 4, buffer_words);
        system.deploy(&wide_conv_net(47), &wide_conv_batch(1)[0]).expect("fits");
        system
    };
    // (name, system, inputs, (digital hash, noisy hash)). Re-pin only for
    // a deliberate change to the arithmetic or the noise draw order.
    let cases = [
        (
            "relu_net, 2 copies",
            deployed_system(2),
            batch(13),
            (0x3a0a_7ce1_0652_b8da, 0x59d5_0949_184b_38de),
        ),
        (
            "deep_net, 4 stages",
            pipelined_system(4),
            deep_batch(11),
            (0xf0ca_b102_0d88_d066, 0x11bf_cf3c_d3f1_952a),
        ),
        (
            "cnn_net, 1 bank",
            cnn_system(1, 2, 4, 41),
            cnn_batch(7),
            (0x9a80_5de8_ee89_808a, 0x2a65_5d1a_7cc9_8ce8),
        ),
        (
            "cnn_net, 2 stages",
            cnn_system(2, 1, 1, 43),
            cnn_batch(5),
            (0xaefd_6a4f_24ef_79da, 0x75ff_c74e_dd38_290b),
        ),
        (
            "wide_conv_net, resident chunks",
            wide_conv_system(2048),
            wide_conv_batch(3),
            (0x1214_2df9_69f4_e0cd, 0xda9d_6e5a_79fb_91f1),
        ),
        (
            "wide_conv_net, per-pixel fallback",
            wide_conv_system(640),
            wide_conv_batch(3),
            (0x1214_2df9_69f4_e0cd, 0xe0ff_fe20_bb02_9694),
        ),
    ];
    for (name, mut system, inputs, pinned) in cases {
        for parallel in [false, true] {
            system.set_parallel(parallel);
            let got = (
                output_hash(&system.infer_batch(&inputs).unwrap()),
                output_hash(&system.infer_batch_noisy(&inputs, &noise, 0x5EED).unwrap()),
            );
            assert_eq!(got, pinned, "{name} (parallel: {parallel}) drifted from its golden hashes");
        }
    }
}

/// Read noise is bank state for the length of one noisy call only. After
/// a noisy batch returns, `Ok` or `Err` on a wrong-width input in
/// mid-batch, a digital batch matches a fresh system bit for bit, and so
/// does a redeploy (whose calibration runs on the banks) followed by one.
#[test]
fn read_noise_does_not_outlive_its_call() {
    let noise = NoiseModel { program_sigma: 0.0, read_sigma: 0.05 };
    assert_eq!(deployed_system(2).copies(), 2);
    assert_eq!(pipelined_system(4).deployed_stages(), Some(4));
    for pipelined in [false, true] {
        let (name, net, calibration, inputs) = if pipelined {
            ("deep_net, 4 stages", deep_net(23), vec![0.5; 48], deep_batch(9))
        } else {
            ("relu_net, 2 copies", relu_net(7), vec![0.5; 16], batch(9))
        };
        let fresh = || if pipelined { pipelined_system(4) } else { deployed_system(2) };
        let reference = fresh().infer_batch(&inputs).unwrap();
        let mut broken = inputs.clone();
        broken[4].pop();
        let noisy_call = |system: &mut PrimeSystem, fails: bool| {
            let batch = if fails { &broken } else { &inputs };
            match system.infer_batch_noisy(batch, &noise, 0xD1CE) {
                Ok(outputs) => {
                    assert!(!fails, "{name}: a wrong-width input must fail the batch");
                    assert_ne!(outputs, reference, "{name}: read noise never applied");
                }
                Err(e) => assert!(
                    fails && matches!(e, PrimeError::MappingMismatch { .. }),
                    "{name}: unexpected error {e:?}"
                ),
            }
        };
        for parallel in [false, true] {
            for fails in [false, true] {
                let mut system = fresh();
                system.set_parallel(parallel);
                noisy_call(&mut system, fails);
                assert_eq!(
                    system.infer_batch(&inputs).unwrap(),
                    reference,
                    "{name} (parallel: {parallel}, failed: {fails}): digital batch saw read noise"
                );
                noisy_call(&mut system, fails);
                system.deploy(&net, &calibration).expect("redeploys");
                assert_eq!(
                    system.infer_batch(&inputs).unwrap(),
                    reference,
                    "{name} (parallel: {parallel}, failed: {fails}): redeploy saw read noise"
                );
            }
        }
    }
}

/// The runner takes read noise from its bank: a 1-bank plan driven
/// through `CommandRunner::infer_into` on a bank given the stream `seed`
/// reproduces `infer_batch_noisy(.., seed)` on a 1-bank system, whose bank
/// 0 draws from `seed + 0`.
#[test]
fn runner_on_a_noisy_bank_matches_the_system_noisy_path() {
    let noise = NoiseModel { program_sigma: 0.0, read_sigma: 0.05 };
    let net = cnn_net(41);
    let inputs = cnn_batch(5);
    let mut system = PrimeSystem::new(1, 2, 4, 2048);
    system.deploy(&net, &cnn_calibration()).expect("fits");
    let expected = system.infer_batch_noisy(&inputs, &noise, 0xD1CE).unwrap();
    // The bank `PrimeSystem::new(1, 2, 4, 2048)` builds.
    let mut bank = BankController::new(2, 4, 2048, 4096);
    let runner = CommandRunner::compile(&net, &mut bank, &cnn_calibration()).expect("fits");
    bank.set_read_noise(Some((noise, 0xD1CE)));
    let (mut scratch, mut out) = (InferScratch::new(), Vec::new());
    for (i, (input, want)) in inputs.iter().zip(&expected).enumerate() {
        runner.infer_into(&mut bank, input, &mut scratch, &mut out).unwrap();
        assert_eq!(&out, want, "input {i}: runner and system noisy paths diverged");
    }
}
