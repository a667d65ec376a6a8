//! Property-based tests for the PRIME core: the hardware pipeline must
//! track software semantics for arbitrary small networks, and the FF mat
//! must honour the composing scheme for arbitrary weights.

use proptest::prelude::*;

use prime_circuits::{part_sums, ComposingScheme};
use prime_core::{BankController, CommandRunner, FfMat};
use prime_mem::MatFunction;
use prime_nn::{Activation, FullyConnected, Layer, Network, Tensor};

/// Small random FC networks with non-negative inputs.
fn small_net_case() -> impl Strategy<Value = (Vec<f32>, Vec<f32>, Vec<f32>, usize, usize)> {
    (2usize..12, 1usize..6).prop_flat_map(|(inputs, outputs)| {
        (
            proptest::collection::vec(-1.0f32..1.0, inputs * outputs),
            proptest::collection::vec(-0.5f32..0.5, outputs),
            proptest::collection::vec(0.0f32..1.0, inputs),
            Just(inputs),
            Just(outputs),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One FC layer through the command runner tracks software within
    /// the composing scheme's quantization budget.
    #[test]
    fn runner_tracks_software_for_random_fc_layers(
        (weights, bias, input, inputs, outputs) in small_net_case()
    ) {
        let w = Tensor::from_vec(vec![outputs, inputs], weights).unwrap();
        let fc = FullyConnected::from_params(w, bias, Activation::Identity).unwrap();
        let net = Network::new(vec![Layer::Fc(fc.clone())]).unwrap();
        let sw = fc.forward(&input).unwrap();
        let mut controller = BankController::new(1, 1, 1024, 1024);
        let runner = CommandRunner::compile(&net, &mut controller, &input).unwrap();
        let hw = runner.infer(&mut controller, &input).unwrap();
        // Tolerance: the 6-bit output window of the calibrated SA plus
        // input/weight quantization, relative to the output range.
        let range = sw.iter().fold(0.1f32, |m, &v| m.max(v.abs()));
        for (a, b) in hw.iter().zip(&sw) {
            prop_assert!((a - b).abs() <= range * 0.2 + 0.06, "hw {a} vs sw {b}");
        }
    }

    /// The FF mat's composed computation equals the circuit-level
    /// composing reference for arbitrary weights and inputs.
    #[test]
    fn ff_mat_equals_composing_reference(
        rows in 1usize..40,
        cols in 1usize..10,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let weights: Vec<i32> = (0..rows * cols).map(|_| rng.gen_range(-255..=255)).collect();
        let inputs: Vec<u16> = (0..rows).map(|_| rng.gen_range(0..64)).collect();
        let mut mat = FfMat::new();
        mat.set_function(MatFunction::Program);
        mat.program_composed(&weights, rows, cols).unwrap();
        mat.set_function(MatFunction::Compute);
        let shift = mat.output_shift();
        let got = mat.compute(&inputs).unwrap();
        // Reference: part sums composed with the mat's scheme and shift.
        let scheme = mat.scheme();
        let parts = part_sums(&scheme, &inputs, &weights, cols).unwrap();
        for (c, &v) in got.iter().enumerate() {
            let reference = compose_with_shift(&scheme, parts[c], shift);
            let sat = (1i64 << scheme.output_bits()) - 1;
            prop_assert_eq!(v, reference.clamp(-sat, sat), "column {}", c);
        }
    }

    /// Morphing an FF mat between functions never panics and always
    /// lands in the requested function.
    #[test]
    fn function_switching_is_total(sequence in proptest::collection::vec(0u8..3, 1..12)) {
        let mut mat = FfMat::new();
        for &code in &sequence {
            let function = match code {
                0 => MatFunction::Program,
                1 => MatFunction::Compute,
                _ => MatFunction::Memory,
            };
            mat.set_function(function);
            prop_assert_eq!(mat.function(), function);
        }
    }
}

/// Reference composition at an explicit SA shift (mirrors the hardware
/// accumulation in `FfMat::compute`).
fn compose_with_shift(scheme: &ComposingScheme, parts: prime_circuits::PartSums, shift: u8) -> i64 {
    use prime_circuits::Part;
    let mut acc = 0i64;
    for part in scheme.included_parts() {
        let value = match part {
            Part::Hh => parts.hh,
            Part::Hl => parts.hl,
            Part::Lh => parts.lh,
            Part::Ll => parts.ll,
        };
        let scale = scheme.part_scale(part);
        if shift >= scale {
            acc += value >> (shift - scale);
        } else {
            acc += value << (scale - shift);
        }
    }
    acc
}
