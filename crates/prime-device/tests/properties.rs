//! Property-based tests for the ReRAM device layer.

use proptest::prelude::*;

use prime_device::{Crossbar, IrDropModel, MlcSpec, NoiseModel, PairScratch, PairedCrossbar};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A strategy producing (rows, cols, weight-levels, input-codes, cell-bits,
/// input-bits) tuples describing a valid crossbar evaluation.
fn crossbar_case() -> impl Strategy<Value = (usize, usize, Vec<u16>, Vec<u16>, u8, u8)> {
    (1usize..24, 1usize..24, 1u8..=6, 1u8..=6).prop_flat_map(|(rows, cols, wbits, ibits)| {
        let wmax = (1u16 << wbits) - 1;
        let imax = (1u16 << ibits) - 1;
        (
            Just(rows),
            Just(cols),
            proptest::collection::vec(0..=wmax, rows * cols),
            proptest::collection::vec(0..=imax, rows),
            Just(wbits),
            Just(ibits),
        )
    })
}

proptest! {
    /// The crossbar's integer dot product equals a straightforward
    /// reference implementation for arbitrary shapes and precisions.
    #[test]
    fn dot_matches_integer_reference((rows, cols, weights, input, wbits, _ibits) in crossbar_case()) {
        let mut xbar = Crossbar::new(rows, cols, MlcSpec::new(wbits).unwrap());
        xbar.program_matrix(&weights).unwrap();
        let got = xbar.dot(&input).unwrap();
        for c in 0..cols {
            let expect: u64 = (0..rows)
                .map(|r| u64::from(input[r]) * u64::from(weights[r * cols + c]))
                .sum();
            prop_assert_eq!(got[c], expect);
        }
    }

    /// Decoding ideal analog currents recovers the exact integer dot
    /// product for every precision combination — the contract the
    /// reconfigurable SA depends on.
    #[test]
    fn analog_decode_is_exact_without_noise((rows, cols, weights, input, wbits, ibits) in crossbar_case()) {
        let mut xbar = Crossbar::new(rows, cols, MlcSpec::new(wbits).unwrap());
        xbar.program_matrix(&weights).unwrap();
        let exact = xbar.dot(&input).unwrap();
        let input_sum: u64 = input.iter().map(|&a| u64::from(a)).sum();
        let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
        let currents = xbar.dot_analog(&input, ibits, &NoiseModel::ideal(), &mut rng).unwrap();
        for (c, current) in currents.iter().enumerate() {
            prop_assert_eq!(xbar.decode_current(*current, input_sum, ibits), exact[c] as i64);
        }
    }

    /// Splitting signed weights across a positive/negative pair and
    /// subtracting bitline results equals signed integer arithmetic.
    #[test]
    fn paired_crossbar_equals_signed_matvec(
        rows in 1usize..16,
        cols in 1usize..16,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut pair = PairedCrossbar::new(rows, cols, MlcSpec::new(4).unwrap());
        let weights: Vec<i32> = (0..rows * cols)
            .map(|_| rand::Rng::gen_range(&mut rng, -15i32..=15))
            .collect();
        pair.program_signed_matrix(&weights).unwrap();
        let input: Vec<u16> = (0..rows).map(|_| rand::Rng::gen_range(&mut rng, 0u16..8)).collect();
        let got = pair.dot_signed(&input).unwrap();
        for c in 0..cols {
            let expect: i64 = (0..rows)
                .map(|r| i64::from(input[r]) * i64::from(weights[r * cols + c]))
                .sum();
            prop_assert_eq!(got[c], expect);
        }
    }

    /// Signed weights written through `program_signed` always read back
    /// exactly, for the full representable range.
    #[test]
    fn signed_weight_round_trip(w in -15i32..=15) {
        let mut pair = PairedCrossbar::new(1, 1, MlcSpec::new(4).unwrap());
        pair.program_signed(0, 0, w).unwrap();
        prop_assert_eq!(pair.signed_weight(0, 0).unwrap(), w);
    }

    /// Memory-mode bit rows survive a round trip through computation mode
    /// and back (the FF morphing invariant at the device level).
    #[test]
    fn morph_round_trip_preserves_bits(bits in proptest::collection::vec(any::<bool>(), 1..64)) {
        let mut xbar = Crossbar::new(1, bits.len(), MlcSpec::slc());
        xbar.write_row_bits(0, &bits).unwrap();
        xbar.morph(MlcSpec::new(4).unwrap());
        xbar.morph(MlcSpec::slc());
        prop_assert_eq!(xbar.read_row_bits(0).unwrap(), bits);
    }

    /// Conductance quantization inverts conductance mapping at every level
    /// and is robust to sub-half-LSB perturbations.
    #[test]
    fn conductance_quantization_tolerates_small_error(bits in 1u8..=6, frac in -0.45f64..0.45) {
        let spec = MlcSpec::new(bits).unwrap();
        let lsb = (spec.g_on() - spec.g_off()) / f64::from(spec.max_level());
        for level in 0..=spec.max_level() {
            let g = spec.conductance(level) + frac * lsb;
            prop_assert_eq!(spec.quantize_conductance(g), level);
        }
    }

    /// Every single-crossbar `*_into` kernel writes exactly what its
    /// allocating twin returns — including through pre-dirtied buffers
    /// (the clear-and-resize half of the scratch-buffer contract) and RNG
    /// draw for RNG draw on the analog path.
    #[test]
    fn into_kernels_match_allocating_kernels(
        (rows, cols, weights, input, wbits, ibits) in crossbar_case(),
    ) {
        let mut xbar = Crossbar::new(rows, cols, MlcSpec::new(wbits).unwrap());
        xbar.program_matrix(&weights).unwrap();

        let mut out = vec![99u64; 3]; // stale contents must be ignored
        xbar.dot_into(&input, &mut out).unwrap();
        prop_assert_eq!(&out, &xbar.dot(&input).unwrap());

        let noise = NoiseModel { program_sigma: 0.0, read_sigma: 0.05 };
        let mut rng_a = SmallRng::seed_from_u64(0xA11A);
        let mut rng_b = SmallRng::seed_from_u64(0xA11A);
        let currents = xbar.dot_analog(&input, ibits, &noise, &mut rng_a).unwrap();
        let mut currents_into = vec![f64::NAN; 1];
        xbar.dot_analog_into(&input, ibits, &noise, &mut rng_b, &mut currents_into).unwrap();
        prop_assert_eq!(currents, currents_into);

        let model = IrDropModel::new(1e-3);
        let mut attenuated = vec![f64::NAN; 2];
        model.dot_attenuated_into(&xbar, &input, &mut attenuated).unwrap();
        prop_assert_eq!(model.dot_attenuated(&xbar, &input).unwrap(), attenuated);
    }

    /// Paired (signed) `*_into` kernels are bit-identical to their
    /// allocating twins, digital and analog (the analog one through a
    /// caller-held scratch).
    #[test]
    fn paired_into_kernels_match(
        rows in 1usize..16,
        cols in 1usize..16,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut pair = PairedCrossbar::new(rows, cols, MlcSpec::new(4).unwrap());
        let weights: Vec<i32> = (0..rows * cols)
            .map(|_| rand::Rng::gen_range(&mut rng, -15i32..=15))
            .collect();
        pair.program_signed_matrix(&weights).unwrap();
        let input: Vec<u16> = (0..rows).map(|_| rand::Rng::gen_range(&mut rng, 0u16..8)).collect();

        let mut out = Vec::new();
        pair.dot_signed_into(&input, &mut out).unwrap();
        prop_assert_eq!(&out, &pair.dot_signed(&input).unwrap());

        let mut scratch = PairScratch::new();

        let noise = NoiseModel { program_sigma: 0.0, read_sigma: 0.02 };
        let mut rng_a = SmallRng::seed_from_u64(seed ^ 0xBEEF);
        let mut rng_b = SmallRng::seed_from_u64(seed ^ 0xBEEF);
        let reference = pair.dot_signed_analog(&input, 3, &noise, &mut rng_a).unwrap();
        let mut analog_out = Vec::new();
        pair.dot_signed_analog_into(&input, 3, &noise, &mut rng_b, &mut scratch, &mut analog_out)
            .unwrap();
        prop_assert_eq!(reference, analog_out);
    }
}
