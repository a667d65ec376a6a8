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

    /// The digital kernel (one sweep of the tile's signed plane, `i32`
    /// sums, straight-line compose) equals the circuit-level composing
    /// reference for random schemes, shapes up to a full 256-row mat,
    /// weights, inputs and SA windows, the shift calibration picks
    /// included.
    #[test]
    fn ff_mat_equals_composing_reference_for_random_schemes(
        half_in in 1u8..9,
        half_w in 1u8..9,
        po in 1u8..9,
        rows in 1usize..257,
        cols in 1usize..129,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let (pin, pw) = (2 * half_in, 2 * half_w);
        // The sigmoid unit caps Po at 8 bits; Pin + Pw + PN for a
        // one-row mat caps it too, so clamp to keep every case a scheme.
        let po = po.min(pin + pw + 1);
        let scheme = ComposingScheme::new(pin, pw, po, 8).unwrap();
        let w_max = (1i32 << pw) - 1;
        let weights: Vec<i32> = (0..rows * cols).map(|_| rng.gen_range(-w_max..=w_max)).collect();
        let inputs: Vec<u16> =
            (0..rows).map(|_| rng.gen_range(0..=scheme.input_code_max())).collect();
        let mut mat = FfMat::with_scheme(scheme);
        mat.set_function(MatFunction::Program);
        mat.program_composed(&weights, rows, cols).unwrap();
        mat.set_function(MatFunction::Compute);
        if rng.gen_range(0..2) == 1 {
            mat.calibrate_output_window(rng.gen_range(1i64..1 << 40));
        }
        prop_assert_eq!(mat.compute(&inputs).unwrap(), reference(&mat, &inputs, &weights, cols));
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

/// The widest scheme a mat admits (`Pin = Pw = 16`: 8-bit input halves
/// against 8-bit cells) on a full 256-row, 128-column mat at the largest
/// codes and magnitudes: every bitline sum reaches the `i32`
/// accumulators' worst case, `256 * 255 * 255`, with both signs.
#[test]
fn widest_scheme_at_full_scale_matches_the_composing_reference() {
    let (rows, cols) = (256, 128);
    for po in [1, 6, 8] {
        let scheme = ComposingScheme::new(16, 16, po, 8).unwrap();
        let max = i32::from(u16::MAX);
        // Columns alternate all-positive and all-negative full-scale
        // weights; the last one mixes signs row by row.
        let weights: Vec<i32> = (0..rows * cols)
            .map(|i| {
                let (r, c) = (i / cols, i % cols);
                match c {
                    c if c + 1 == cols => if r % 2 == 0 { max } else { -max },
                    c if c % 2 == 0 => max,
                    _ => -max,
                }
            })
            .collect();
        let mut mat = FfMat::with_scheme(scheme);
        mat.set_function(MatFunction::Program);
        mat.program_composed(&weights, rows, cols).unwrap();
        mat.set_function(MatFunction::Compute);
        for shift in [None, Some(0)] {
            if let Some(max_abs) = shift {
                mat.calibrate_output_window(max_abs);
            }
            for inputs in [vec![u16::MAX; rows], (0..rows).map(|r| (r * 257) as u16).collect()] {
                assert_eq!(
                    mat.compute(&inputs).unwrap(),
                    reference(&mat, &inputs, &weights, cols),
                    "po {po}, window {shift:?}"
                );
            }
        }
        let parts = part_sums(&mat.scheme(), &[u16::MAX; 256], &weights, cols).unwrap();
        assert_eq!(parts[0].hh, 256 * 255 * 255);
        assert_eq!(parts[1].ll, -256 * 255 * 255);
    }
}

/// The mat's expected digital output: the circuit-level part sums
/// composed at the mat's own scheme and SA shift, saturated to its
/// output range.
fn reference(mat: &FfMat, inputs: &[u16], weights: &[i32], cols: usize) -> Vec<i64> {
    let scheme = mat.scheme();
    let sat = scheme.output_code_max();
    part_sums(&scheme, inputs, weights, cols)
        .unwrap()
        .into_iter()
        .map(|parts| compose_with_shift(&scheme, parts, mat.output_shift()).clamp(-sat, sat))
        .collect()
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
