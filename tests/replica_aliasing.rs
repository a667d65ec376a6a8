//! Replica aliasing equivalence: a deployment whose whole-network copies
//! alias copy 0's tiles (every copy after the first adopts the
//! programmed crossbar pairs copy-on-write instead of owning them) must be
//! indistinguishable at the outputs from the same network deployed alone
//! on one bank — on the exact digital path, on the seeded noisy analog
//! path, across batch shapes and both batched engines — while keeping
//! only one copy's bank state resident. Deploying through the mapping
//! search must be equally output-invisible.

use prime::compiler::Objective;
use prime::core::PrimeSystem;
use prime::device::NoiseModel;
use prime::sim::SimCostModel;
use prime::nn::{Activation, Conv2d, FullyConnected, Layer, Network, Pool2d, PoolKind};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Copies the 4-bank system holds (one per bank).
const COPIES: usize = 4;

/// Every layer kind the device runner executes: padded conv (ReLU or
/// sigmoid), max and mean pooling, identity FC head.
fn cnn_net(seed: u64, activation: Activation) -> Network {
    let mut net = Network::new(vec![
        Layer::Conv(Conv2d::new(1, 3, 3, 8, 8, 1, activation)),
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

fn calibration(width: usize) -> Vec<f32> {
    (0..width).map(|j| ((j * 7) % 13) as f32 / 13.0).collect()
}

/// Deploys `net` on a 4-bank system (4 whole-network copies, 3 of them
/// aliasing copy 0) and on a 1-bank system of the same bank geometry.
fn deploy_both(net: &Network, width: usize) -> (PrimeSystem, PrimeSystem) {
    let mut aliased = PrimeSystem::new(COPIES, 2, 4, 2048);
    aliased.deploy(net, &calibration(width)).expect("fits the memory");
    assert_eq!(aliased.copies(), COPIES);
    let mut single = PrimeSystem::new(1, 2, 4, 2048);
    single.deploy(net, &calibration(width)).expect("fits the memory");
    (aliased, single)
}

/// The 1-bank reference for a seeded noisy batch on a system holding
/// `copies` single-bank copies. Input `i` runs on copy `i % copies`,
/// whose bank draws from the stream seeded `seed + copy`; replaying each
/// copy's inputs in order on the single bank, seeded the same way,
/// consumes the same stream.
fn single_bank_noisy(
    single: &mut PrimeSystem,
    inputs: &[Vec<f32>],
    noise: &NoiseModel,
    seed: u64,
    copies: usize,
) -> Vec<Vec<f32>> {
    let mut outputs = vec![Vec::new(); inputs.len()];
    for copy in 0..copies {
        let mine: Vec<Vec<f32>> = inputs.iter().skip(copy).step_by(copies).cloned().collect();
        let got = single
            .infer_batch_noisy(&mine, noise, seed.wrapping_add(copy as u64))
            .expect("runs");
        for (k, out) in got.into_iter().enumerate() {
            outputs[copy + k * copies] = out;
        }
    }
    outputs
}

#[test]
fn aliased_copies_match_one_bank_on_conv_nets() {
    for activation in [Activation::Relu, Activation::Sigmoid] {
        let net = cnn_net(41, activation);
        let (mut aliased, mut single) = deploy_both(&net, 64);
        let inputs = cnn_batch(7);
        let expected = single.infer_batch(&inputs).unwrap();
        for parallel in [false, true] {
            aliased.set_parallel(parallel);
            assert_eq!(
                aliased.infer_batch(&inputs).unwrap(),
                expected,
                "{activation:?} digital outputs diverged (parallel={parallel})"
            );
        }
    }
}

#[test]
fn aliased_copies_match_one_bank_under_seeded_noise() {
    let noise = NoiseModel { program_sigma: 0.0, read_sigma: 0.05 };
    for activation in [Activation::Relu, Activation::Sigmoid] {
        let net = cnn_net(41, activation);
        let (mut aliased, mut single) = deploy_both(&net, 64);
        let inputs = cnn_batch(9);
        let expected = single_bank_noisy(&mut single, &inputs, &noise, 0xDEED, COPIES);
        for parallel in [false, true] {
            aliased.set_parallel(parallel);
            let got = aliased.infer_batch_noisy(&inputs, &noise, 0xDEED).unwrap();
            assert_eq!(
                got, expected,
                "{activation:?} seeded noisy outputs diverged (parallel={parallel})"
            );
        }
    }
}

#[test]
fn shared_kernel_keeps_less_bank_state_resident() {
    let net = cnn_net(41, Activation::Relu);
    let (aliased, single) = deploy_both(&net, 64);
    let a = aliased.deploy_stats().expect("stats after deploy").clone();
    let s = single.deploy_stats().expect("stats after deploy").clone();
    // Only copy 0 owns bytes: the resident state is one copy's worth.
    assert_eq!(a.unique_tiles, s.unique_tiles);
    assert_eq!(a.resident_bytes, s.resident_bytes);
    assert_eq!(a.resident_bytes * COPIES, a.dense_bytes);
    assert_eq!(a.aliased_placements, (COPIES - 1) * a.unique_tiles);
    assert_eq!(aliased.resident_state_bytes(), a.resident_bytes);
    assert!(a.wall_ms >= 0.0 && s.wall_ms >= 0.0);
}

/// Deploying through the cost-model-driven mapping search
/// (`deploy_auto` under `Latency`) must be output-invisible: whatever
/// candidate the search picks, the digital outputs are bit-identical to
/// the fixed default deploy, and the seeded-noisy outputs to the same
/// per-bank noise streams replayed on one bank — the search optimizes
/// cost, never arithmetic.
#[test]
fn searched_deployments_are_bit_identical_to_fixed() {
    let noise = NoiseModel { program_sigma: 0.0, read_sigma: 0.05 };
    let net = cnn_net(41, Activation::Relu);
    let inputs = cnn_batch(5);

    let (mut fixed, mut single) = deploy_both(&net, 64);
    let digital = fixed.infer_batch(&inputs).expect("runs");

    let mut searched = PrimeSystem::new(4, 2, 4, 2048);
    searched
        .deploy_auto(&net, &calibration(64), Objective::Latency, &SimCostModel)
        .expect("a candidate survives the verifiers");
    let stats = searched.deploy_stats().expect("stats after deploy").clone();
    let search = stats.search.expect("auto deploys record their search");
    assert!(search.chosen().is_some(), "no chosen candidate\n{}", search.describe());
    assert_eq!(
        searched.infer_batch(&inputs).expect("runs"),
        digital,
        "digital outputs diverged from the fixed default"
    );
    let copies = searched.copies();
    assert_eq!(
        searched.infer_batch_noisy(&inputs, &noise, 0xDEED).expect("runs"),
        single_bank_noisy(&mut single, &inputs, &noise, 0xDEED, copies),
        "seeded noisy outputs diverged ({copies} copies)"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Arbitrary weights, batch lengths, and engines: aliasing replicas
    /// never changes the digital arithmetic.
    #[test]
    fn aliased_copies_match_one_bank_on_arbitrary_fc_stacks(
        seed in any::<u64>(),
        len in 1usize..6,
        parallel in any::<bool>(),
    ) {
        let mut net = Network::new(vec![
            Layer::Fc(FullyConnected::new(20, 30, Activation::Relu)),
            Layer::Fc(FullyConnected::new(30, 12, Activation::Relu)),
            Layer::Fc(FullyConnected::new(12, 5, Activation::Identity)),
        ]).expect("widths match");
        net.init_random(&mut SmallRng::seed_from_u64(seed));
        let inputs: Vec<Vec<f32>> = (0..len)
            .map(|i| (0..20).map(|j| ((i * 7 + j) % 9) as f32 / 9.0).collect())
            .collect();
        let (mut aliased, mut single) = deploy_both(&net, 20);
        aliased.set_parallel(parallel);
        prop_assert_eq!(
            aliased.infer_batch(&inputs).unwrap(),
            single.infer_batch(&inputs).unwrap()
        );
    }

    /// The same holds on the noisy analog path: each bank draws its own
    /// read-noise stream in plan order, independent of which placement
    /// owns the tile bytes.
    #[test]
    fn aliased_copies_match_one_bank_under_arbitrary_noise_seeds(
        seed in any::<u64>(),
        noise_seed in any::<u64>(),
    ) {
        let net = cnn_net(seed, Activation::Relu);
        let noise = NoiseModel { program_sigma: 0.0, read_sigma: 0.04 };
        let inputs = cnn_batch(6);
        let (mut aliased, mut single) = deploy_both(&net, 64);
        let expected = single_bank_noisy(&mut single, &inputs, &noise, noise_seed, COPIES);
        prop_assert_eq!(aliased.infer_batch_noisy(&inputs, &noise, noise_seed).unwrap(), expected);
    }
}
