//! The full-function (FF) mat: one positive/negative crossbar pair with
//! its modified peripheral circuits, morphable between memory and NN
//! computation (paper §III-A).
//!
//! In computation mode the mat stores composed 8-bit signed weights (two
//! adjacent 4-bit cells per magnitude, sign in the positive/negative
//! array split) and evaluates composed 6-bit inputs through the
//! input-and-synapse composing scheme. In memory mode both crossbars of
//! the pair store plain bits (512 rows x 256 bits = 16 KiB per mat).

use std::sync::Arc;

use serde::{DeError, Deserialize, Serialize, Value};

use prime_circuits::{
    ComposingScheme, Part, PartSums, PrecisionController, ReluUnit, SigmoidUnit, WordlineDriver,
};
use prime_device::{MlcSpec, PairScratch, PairedCrossbar, MAT_DIM};
use prime_mem::MatFunction;

use crate::error::PrimeError;

/// Reusable buffers for [`FfMat::compute_into`] /
/// [`FfMat::compute_analog_into`].
///
/// Holds the split input halves, the two driver passes' bitline sums, and
/// the paired-crossbar scratch. Following the `prime-device`
/// scratch-buffer contract, buffers only grow: after the first compute at
/// a given geometry, repeated calls perform zero heap allocation. One
/// scratch may be shared across mats (buffers are cleared per call).
#[derive(Debug, Default, Clone)]
pub struct MatScratch {
    hi: Vec<u16>,
    lo: Vec<u16>,
    pass_hi: Vec<i64>,
    pass_lo: Vec<i64>,
    pair: PairScratch,
}

impl MatScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        MatScratch::default()
    }
}

/// Configuration switches of an FF mat's datapath, set by the Table I
/// datapath-configure commands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MatDatapath {
    /// Bypass the sigmoid unit (required when partial sums are merged
    /// downstream).
    pub bypass_sigmoid: bool,
    /// Bypass the SA (analog output forwarded to the next mat directly).
    pub bypass_sa: bool,
    /// Enable the ReLU unit (CNN convolution layers).
    pub relu: bool,
}

impl Default for MatDatapath {
    fn default() -> Self {
        MatDatapath {
            bypass_sigmoid: true,
            bypass_sa: false,
            relu: false,
        }
    }
}

/// Backing storage of a mat's crossbar pair.
///
/// Bank state scales with the weights actually resident: a vacant mat
/// (`None`) carries no pair at all and reads as all-zero; a written mat
/// holds a refcounted pair. Cloning the store clones the handle, so one
/// tile's `Arc` is aliased by every placement deployed from it, and any
/// write to an alias copies first (`Arc::make_mut`).
/// `Arc` rather than `Rc` because banks cross thread scopes during
/// parallel inference.
#[derive(Debug, Clone)]
struct PairStore(Option<Arc<PairedCrossbar>>);

impl PairStore {
    fn pair(&self) -> Option<&PairedCrossbar> {
        self.0.as_deref()
    }
}

/// Stores compare by logical crossbar content, not by aliasing: a
/// deserialized snapshot (always unshared) equals the shared tile it was
/// taken from.
impl PartialEq for PairStore {
    fn eq(&self, other: &Self) -> bool {
        match (self.pair(), other.pair()) {
            (None, None) => true,
            (Some(a), Some(b)) => a == b,
            _ => false,
        }
    }
}

/// A vacant store serializes as null; owned and shared pairs both
/// serialize as a plain snapshot and deserialize unshared (aliasing is a
/// deploy-time decision, re-established by the next deploy, not a
/// persistent property of the state).
impl Serialize for PairStore {
    fn to_value(&self) -> Value {
        match self.pair() {
            None => Value::Null,
            Some(pair) => pair.to_value(),
        }
    }
}

impl Deserialize for PairStore {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(PairStore(None)),
            other => PairedCrossbar::from_value(other)
                .map(|pair| PairStore(Some(Arc::new(pair)))),
        }
    }
}

/// A full-function mat.
///
/// # Examples
///
/// ```
/// use prime_core::FfMat;
/// use prime_mem::MatFunction;
///
/// let mut mat = FfMat::new();
/// mat.set_function(MatFunction::Program);
/// // A 2-input, 1-output weight "matrix" [3, -4]^T:
/// mat.program_composed(&[3, -4], 2, 1)?;
/// mat.set_function(MatFunction::Compute);
/// let out = mat.compute(&[10, 20])?;
/// // Composed target of 10*3 - 20*4 = -50, truncated by the scheme.
/// assert!(out[0] <= 0);
/// # Ok::<(), prime_core::PrimeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FfMat {
    pair: PairStore,
    driver: WordlineDriver,
    scheme: ComposingScheme,
    function: MatFunction,
    datapath: MatDatapath,
    sigmoid: SigmoidUnit,
    relu: ReluUnit,
    /// Logical composed-weight dimensions currently programmed.
    weight_rows: usize,
    weight_cols: usize,
    /// The SA's sensing window: the right shift from full precision to
    /// the Po-bit output. Defaults to the scheme's worst-case shift and is
    /// recomputed on programming;
    /// [`calibrate_output_window`](Self::calibrate_output_window)
    /// overrides it with a calibrated window (dynamic fixed point).
    output_shift: u8,
}

impl FfMat {
    /// Creates a PRIME-sized mat (256x256 pair, 3-bit drivers, default
    /// composing scheme) in memory mode.
    pub fn new() -> Self {
        Self::with_scheme(ComposingScheme::prime_default())
    }

    /// Creates a mat with a custom composing scheme (for precision
    /// ablations).
    ///
    /// The crossbar pair is vacant until the first write: constructing a
    /// memory full of FF mats costs only the peripheral state, and bank
    /// storage grows with the weights actually programmed.
    pub fn with_scheme(scheme: ComposingScheme) -> Self {
        let mut mat = FfMat {
            pair: PairStore(None),
            driver: WordlineDriver::new(MAT_DIM, scheme.input_half_bits()),
            scheme,
            function: MatFunction::Memory,
            datapath: MatDatapath::default(),
            sigmoid: SigmoidUnit::new(scheme.output_bits(), 64.0),
            relu: ReluUnit::new(),
            weight_rows: 0,
            weight_cols: 0,
            output_shift: scheme.target_shift(),
        };
        // Sync the output units to the default datapath (sigmoid and ReLU
        // both bypassed until configured otherwise).
        mat.set_datapath(mat.datapath);
        mat
    }

    /// The mat's composing scheme.
    pub fn scheme(&self) -> ComposingScheme {
        self.scheme
    }

    /// The mat's current function.
    pub fn function(&self) -> MatFunction {
        self.function
    }

    /// The current datapath configuration.
    pub fn datapath(&self) -> MatDatapath {
        self.datapath
    }

    /// Reconfigures the datapath (Table I `bypass sigmoid` / `bypass SA`).
    pub fn set_datapath(&mut self, datapath: MatDatapath) {
        self.datapath = datapath;
        self.sigmoid.set_bypass(datapath.bypass_sigmoid);
        self.relu.set_bypass(!datapath.relu);
    }

    /// Maximum composed-weight rows (one physical wordline each).
    pub fn max_rows(&self) -> usize {
        MAT_DIM
    }

    /// Maximum composed-weight columns (two physical bitlines each).
    pub fn max_cols(&self) -> usize {
        MAT_DIM / 2
    }

    /// Logical weight dimensions currently programmed.
    pub fn weight_shape(&self) -> (usize, usize) {
        (self.weight_rows, self.weight_cols)
    }

    /// The SA's current sensing shift (full-precision bits dropped).
    pub fn output_shift(&self) -> u8 {
        self.output_shift
    }

    /// Calibrates the SA's sensing window (dynamic fixed point, ref \[68\]):
    /// `max_abs_full` is the largest full-precision accumulation expected
    /// on any bitline; the shift is chosen so that value fills the Po-bit
    /// output. Values beyond the window saturate at the register limits.
    pub fn calibrate_output_window(&mut self, max_abs_full: i64) {
        let bits = 64 - max_abs_full.unsigned_abs().leading_zeros() as i64;
        let shift = (bits - i64::from(self.scheme.output_bits())).max(0);
        self.output_shift = shift.min(i64::from(self.scheme.target_shift())) as u8;
    }

    /// The MLC spec `function` implies under the mat's composing scheme:
    /// SLC in memory mode, the weight-half width for computation.
    fn spec_for(&self, function: MatFunction) -> MlcSpec {
        match function {
            MatFunction::Memory => MlcSpec::slc(),
            // The scheme validates pw as even and <= 16, so the half width
            // is always a legal 1..=8-bit MLC spec; fall back to SLC
            // rather than panic if that invariant ever breaks.
            MatFunction::Program | MatFunction::Compute => {
                MlcSpec::new(self.scheme.weight_half_bits()).unwrap_or_else(|_| MlcSpec::slc())
            }
        }
    }

    /// The writable pair, materializing a vacant mat (fresh pair at the
    /// current function's spec) and copying a shared tile on write
    /// (aliases must never observe another placement's mutation).
    fn pair_mut(&mut self) -> &mut PairedCrossbar {
        let spec = self.spec_for(self.function);
        let arc = self
            .pair
            .0
            .get_or_insert_with(|| Arc::new(PairedCrossbar::new(MAT_DIM, MAT_DIM, spec)));
        Arc::make_mut(arc)
    }

    /// The shared tile this mat's pair aliases, if other placements
    /// currently reference the same physical tile.
    pub fn shared_tile(&self) -> Option<&Arc<PairedCrossbar>> {
        self.pair.0.as_ref().filter(|arc| Arc::strong_count(arc) > 1)
    }

    /// Resident bytes of this mat's pair storage. Aliased tiles report
    /// their full snapshot size — callers accounting a whole memory dedup
    /// aliases via [`shared_tile`](Self::shared_tile) pointer identity.
    pub fn tile_state_bytes(&self) -> usize {
        self.pair.pair().map_or(0, PairedCrossbar::state_bytes)
    }

    /// Switches the mat's function (`prog/comp/mem` command), morphing the
    /// cells' MLC spec: SLC in memory mode, multi-bit for computation.
    /// Stored levels are clamped to the new range — the controller's
    /// morphing protocol migrates data beforehand so nothing is lost.
    ///
    /// A vacant pair stays vacant (the spec applies when it materializes),
    /// and an aliased tile is left untouched when the new function keeps
    /// the same spec — the program→compute flip on adopted tiles — so
    /// sharing survives; a real spec change copies the tile first.
    pub fn set_function(&mut self, function: MatFunction) {
        let spec = self.spec_for(function);
        self.function = function;
        if let Some(arc) = &mut self.pair.0 {
            let same_spec =
                arc.positive().spec() == spec && arc.negative().spec() == spec;
            if Arc::strong_count(arc) == 1 || !same_spec {
                let pair = Arc::make_mut(arc);
                pair.positive_mut().morph(spec);
                pair.negative_mut().morph(spec);
            }
        }
    }

    /// Programs a row-major composed signed weight matrix
    /// (`rows x cols`, `|w| < 2^Pw`). The high and low magnitude nibbles
    /// land in adjacent physical bitlines (paper §III-D).
    ///
    /// # Errors
    ///
    /// Returns [`PrimeError::WrongMode`] unless the mat is in `Program`
    /// mode, [`PrimeError::MatOverflow`] if the matrix exceeds the mat, or
    /// a circuit error for out-of-range magnitudes.
    pub fn program_composed(
        &mut self,
        weights: &[i32],
        rows: usize,
        cols: usize,
    ) -> Result<(), PrimeError> {
        if self.function != MatFunction::Program {
            return Err(PrimeError::WrongMode {
                expected: "program",
                found: function_name(self.function),
            });
        }
        if rows > self.max_rows() || cols > self.max_cols() {
            return Err(PrimeError::MatOverflow { rows, cols });
        }
        if weights.len() != rows * cols {
            return Err(PrimeError::MappingMismatch {
                reason: format!("{} weights for a {rows}x{cols} matrix", weights.len()),
            });
        }
        // The reconfigurable SA senses the top Po bits of the *actual*
        // accumulation range: with `rows` active wordlines the full
        // precision is Pin + Pw + ceil(log2(rows)) bits (Eq. 2 with
        // 2^PN = rows), so the scheme's PN follows the programmed rows.
        let pn = (usize::BITS - (rows.max(1) - 1).leading_zeros()).max(1) as u8;
        self.scheme = ComposingScheme::new(
            self.scheme.input_bits(),
            self.scheme.weight_bits(),
            self.scheme.output_bits(),
            pn,
        )?;
        self.output_shift = self.scheme.target_shift();
        // Split every magnitude into its high/low nibbles first: the whole
        // matrix is validated before any cell changes, then written as one
        // chunked region per array instead of 2*rows*cols single-cell
        // writes.
        let mut split = Vec::with_capacity(2 * weights.len());
        for &w in weights {
            let magnitude = w.unsigned_abs();
            if magnitude >= (1 << self.scheme.weight_bits()) {
                return Err(PrimeError::Circuit(
                    prime_circuits::CircuitError::CodeOutOfRange {
                        code: magnitude,
                        codes: 1 << self.scheme.weight_bits(),
                    },
                ));
            }
            let (wh, wl) = self.scheme.split_weight(magnitude as u16)?;
            let sign = if w < 0 { -1i32 } else { 1 };
            split.push(sign * i32::from(wh));
            split.push(sign * i32::from(wl));
        }
        if !split.is_empty() {
            self.pair_mut().program_signed_region(0, 0, 2 * cols, &split)?;
        }
        self.weight_rows = rows;
        self.weight_cols = cols;
        Ok(())
    }

    /// Evaluates the mat on composed input codes (`< 2^Pin`), returning
    /// the composed target value per weight column (the Eq. 9
    /// accumulation of truncated parts).
    ///
    /// The hardware drives the HIGH input halves in one pass and the LOW
    /// halves in another; each pass produces both the HIGH- and LOW-nibble
    /// bitline sums, and the precision controller accumulates the
    /// included parts with their shifts.
    ///
    /// # Errors
    ///
    /// Returns [`PrimeError::WrongMode`] unless in `Compute` mode, or
    /// circuit/device errors for malformed inputs.
    pub fn compute(&mut self, inputs: &[u16]) -> Result<Vec<i64>, PrimeError> {
        let mut scratch = MatScratch::new();
        let mut out = Vec::new();
        self.compute_into(inputs, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// [`compute`](Self::compute) into caller-owned buffers.
    ///
    /// `out` is cleared and resized to the programmed column count; with a
    /// reused `scratch`, repeated calls perform no heap allocation.
    ///
    /// # Errors
    ///
    /// Returns [`PrimeError::WrongMode`] unless in `Compute` mode, or
    /// circuit/device errors for malformed inputs.
    pub fn compute_into(
        &mut self,
        inputs: &[u16],
        scratch: &mut MatScratch,
        out: &mut Vec<i64>,
    ) -> Result<(), PrimeError> {
        self.check_compute(inputs)?;
        // A vacant mat has zero programmed rows/cols (check_compute just
        // bounded the inputs to them), so its output is the empty set.
        let Some(pair) = self.pair.pair() else {
            out.clear();
            return Ok(());
        };
        self.split_into_halves(inputs, scratch)?;
        // The composing scheme only reads bitline pairs (2c, 2c+1) for the
        // programmed weight columns; the SA mux skips the unprogrammed rest.
        // Likewise only the programmed row prefix is latched and driven —
        // wordlines past it stay grounded and contribute nothing.
        let span = 2 * self.weight_cols;
        let rows = inputs.len();
        // Pass 1: HIGH input halves latched and driven.
        self.driver.latch_prefix(&scratch.hi)?;
        pair.dot_signed_span_into(
            &self.driver.driven_codes()[..rows],
            span,
            &mut scratch.pair,
            &mut scratch.pass_hi,
        )?;
        // Pass 2: LOW input halves.
        self.driver.latch_prefix(&scratch.lo)?;
        pair.dot_signed_span_into(
            &self.driver.driven_codes()[..rows],
            span,
            &mut scratch.pair,
            &mut scratch.pass_lo,
        )?;
        self.compose_passes(&scratch.pass_hi, &scratch.pass_lo, out);
        Ok(())
    }

    fn check_compute(&self, inputs: &[u16]) -> Result<(), PrimeError> {
        if self.function != MatFunction::Compute {
            return Err(PrimeError::WrongMode {
                expected: "compute",
                found: function_name(self.function),
            });
        }
        if inputs.len() != self.weight_rows {
            return Err(PrimeError::MappingMismatch {
                reason: format!(
                    "{} inputs for {} programmed rows",
                    inputs.len(),
                    self.weight_rows
                ),
            });
        }
        Ok(())
    }

    fn split_into_halves(
        &self,
        inputs: &[u16],
        scratch: &mut MatScratch,
    ) -> Result<(), PrimeError> {
        scratch.hi.clear();
        scratch.hi.resize(inputs.len(), 0);
        scratch.lo.clear();
        scratch.lo.resize(inputs.len(), 0);
        for (i, &code) in inputs.iter().enumerate() {
            let (h, l) = self.scheme.split_input(code)?;
            scratch.hi[i] = h;
            scratch.lo[i] = l;
        }
        Ok(())
    }

    /// The precision-control accumulation shared by the digital and analog
    /// paths: merges the two passes' bitline sums into composed outputs.
    fn compose_passes(&self, pass_hi: &[i64], pass_lo: &[i64], out: &mut Vec<i64>) {
        let shift = self.output_shift;
        // Signed output-register range at Po bits (plus sign from the
        // subtraction unit).
        let sat = self.scheme.output_code_max();
        out.clear();
        for c in 0..self.weight_cols {
            let parts = PartSums {
                hh: pass_hi[2 * c],
                hl: pass_lo[2 * c],
                lh: pass_hi[2 * c + 1],
                ll: pass_lo[2 * c + 1],
            };
            // Accumulate with the precision-control register/adder.
            let mut acc = PrecisionController::new();
            for part in self.scheme.included_parts_iter() {
                let value = match part {
                    Part::Hh => parts.hh,
                    Part::Hl => parts.hl,
                    Part::Lh => parts.lh,
                    Part::Ll => parts.ll,
                };
                let scale = self.scheme.part_scale(part);
                if shift >= scale {
                    acc.accumulate_truncated(value, shift - scale);
                } else {
                    acc.accumulate(value, scale - shift);
                }
            }
            out.push(acc.value().clamp(-sat, sat));
        }
    }

    /// Re-programs the mat's cells through noisy writes, modelling the
    /// feedback-tuning precision of real devices (~1 % single-cell, ~3 %
    /// in-crossbar, paper §III-D refs \[31\]\[65\]). Affects only
    /// [`compute_analog`](Self::compute_analog); the nominal digital
    /// levels (and [`compute`](Self::compute)) are unchanged.
    pub fn apply_program_noise<R: rand::Rng + ?Sized>(
        &mut self,
        noise: &prime_device::NoiseModel,
        rng: &mut R,
    ) {
        self.pair_mut().apply_program_noise(noise, rng);
    }

    /// Analog variant of [`compute`](Self::compute): both driver passes
    /// evaluate through the voltage/conductance domain (including any
    /// programming noise applied via
    /// [`apply_program_noise`](Self::apply_program_noise) and read noise
    /// from `noise`), and the decoded part sums feed the same
    /// precision-control accumulation.
    ///
    /// # Errors
    ///
    /// Returns [`PrimeError::WrongMode`] unless in `Compute` mode, or
    /// circuit/device errors for malformed inputs.
    pub fn compute_analog<R: rand::Rng + ?Sized>(
        &mut self,
        inputs: &[u16],
        noise: &prime_device::NoiseModel,
        rng: &mut R,
    ) -> Result<Vec<i64>, PrimeError> {
        let mut scratch = MatScratch::new();
        let mut out = Vec::new();
        self.compute_analog_into(inputs, noise, rng, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// [`compute_analog`](Self::compute_analog) into caller-owned buffers.
    ///
    /// `out` is cleared and resized to the programmed column count; with a
    /// reused `scratch`, repeated calls perform no heap allocation. Draws
    /// from `rng` in exactly the same order as `compute_analog`, so the
    /// two forms are bit-identical for equal RNG states.
    ///
    /// # Errors
    ///
    /// Returns [`PrimeError::WrongMode`] unless in `Compute` mode, or
    /// circuit/device errors for malformed inputs.
    pub fn compute_analog_into<R: rand::Rng + ?Sized>(
        &mut self,
        inputs: &[u16],
        noise: &prime_device::NoiseModel,
        rng: &mut R,
        scratch: &mut MatScratch,
        out: &mut Vec<i64>,
    ) -> Result<(), PrimeError> {
        self.check_compute(inputs)?;
        let Some(pair) = self.pair.pair() else {
            out.clear();
            return Ok(());
        };
        self.split_into_halves(inputs, scratch)?;
        let bits = self.scheme.input_half_bits();
        // Only the sensed bitline pairs (2c, 2c+1) for programmed weight
        // columns draw read-noise samples, and only the programmed row
        // prefix is driven; see DESIGN.md §11 (RNG order).
        let span = 2 * self.weight_cols;
        let rows = inputs.len();
        self.driver.latch_prefix(&scratch.hi)?;
        pair.dot_signed_analog_span_into(
            &self.driver.driven_codes()[..rows],
            bits,
            span,
            noise,
            rng,
            &mut scratch.pair,
            &mut scratch.pass_hi,
        )?;
        self.driver.latch_prefix(&scratch.lo)?;
        pair.dot_signed_analog_span_into(
            &self.driver.driven_codes()[..rows],
            bits,
            span,
            noise,
            rng,
            &mut scratch.pair,
            &mut scratch.pass_lo,
        )?;
        self.compose_passes(&scratch.pass_hi, &scratch.pass_lo, out);
        Ok(())
    }

    /// Applies the configured output units (ReLU and/or sigmoid) to raw
    /// composed results, exactly as the Fig. 5(a) dataflow routes them.
    pub fn apply_output_units(&self, values: &[i64]) -> Vec<i64> {
        let mut out = Vec::new();
        self.apply_output_units_into(values, &mut out);
        out
    }

    /// [`apply_output_units`](Self::apply_output_units) into a
    /// caller-owned buffer (cleared and refilled; no steady-state
    /// allocation on reuse).
    pub fn apply_output_units_into(&self, values: &[i64], out: &mut Vec<i64>) {
        out.clear();
        out.extend(values.iter().map(|&v| self.output_unit(v)));
    }

    /// One raw composed result through the configured output units.
    #[inline]
    pub(crate) fn output_unit(&self, v: i64) -> i64 {
        let v = self.relu.apply(v);
        if self.datapath.bypass_sigmoid {
            v
        } else {
            self.sigmoid.apply(v) as i64
        }
    }

    /// Memory-mode row write: rows `0..256` live in the positive array,
    /// `256..512` in the negative array (the pair stores 16 KiB).
    ///
    /// # Errors
    ///
    /// Returns [`PrimeError::WrongMode`] unless in `Memory` mode.
    pub fn write_memory_row(&mut self, row: usize, bits: &[bool]) -> Result<(), PrimeError> {
        if self.function != MatFunction::Memory {
            return Err(PrimeError::WrongMode {
                expected: "memory",
                found: function_name(self.function),
            });
        }
        let level = |bit: bool| u16::from(bit);
        let pair = self.pair_mut();
        for (col, &bit) in bits.iter().enumerate() {
            if row < MAT_DIM {
                pair.positive_mut().program(row, col, level(bit))?;
            } else {
                pair.negative_mut().program(row - MAT_DIM, col, level(bit))?;
            }
        }
        Ok(())
    }

    /// Memory-mode row read (inverse of
    /// [`write_memory_row`](Self::write_memory_row)).
    ///
    /// # Errors
    ///
    /// Returns [`PrimeError::WrongMode`] unless in `Memory` mode.
    pub fn read_memory_row(&self, row: usize, cols: usize) -> Result<Vec<bool>, PrimeError> {
        if self.function != MatFunction::Memory {
            return Err(PrimeError::WrongMode {
                expected: "memory",
                found: function_name(self.function),
            });
        }
        // A vacant mat reads as a fresh all-zero crossbar pair.
        let Some(pair) = self.pair.pair() else {
            return Ok(vec![false; cols]);
        };
        let mut bits = Vec::with_capacity(cols);
        for col in 0..cols {
            let w = if row < MAT_DIM {
                pair.positive().level(row, col)?
            } else {
                pair.negative().level(row - MAT_DIM, col)?
            };
            bits.push(w > 0);
        }
        Ok(bits)
    }
}

impl Default for FfMat {
    fn default() -> Self {
        FfMat::new()
    }
}

fn function_name(f: MatFunction) -> &'static str {
    match f {
        MatFunction::Program => "program",
        MatFunction::Compute => "compute",
        MatFunction::Memory => "memory",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prime_circuits::part_sums;

    fn programmed_mat(weights: &[i32], rows: usize, cols: usize) -> FfMat {
        let mut mat = FfMat::new();
        mat.set_function(MatFunction::Program);
        mat.program_composed(weights, rows, cols).unwrap();
        mat.set_function(MatFunction::Compute);
        mat
    }

    #[test]
    fn compute_matches_composing_reference() {
        let rows = 32;
        let cols = 4;
        let weights: Vec<i32> = (0..rows * cols)
            .map(|i| ((i * 29) % 511) as i32 - 255)
            .collect();
        let inputs: Vec<u16> = (0..rows).map(|i| ((i * 11) % 64) as u16).collect();
        let mut mat = programmed_mat(&weights, rows, cols);
        let got = mat.compute(&inputs).unwrap();
        let scheme = mat.scheme();
        let parts = part_sums(&scheme, &inputs, &weights, cols).unwrap();
        for c in 0..cols {
            assert_eq!(got[c], scheme.compose(parts[c]), "column {c}");
        }
    }

    #[test]
    fn compute_approximates_exact_matvec() {
        let rows = 64;
        let cols = 8;
        let weights: Vec<i32> = (0..rows * cols)
            .map(|i| ((i * 13) % 201) as i32 - 100)
            .collect();
        let inputs: Vec<u16> = (0..rows).map(|i| ((i * 7) % 64) as u16).collect();
        let mut mat = programmed_mat(&weights, rows, cols);
        let got = mat.compute(&inputs).unwrap();
        let scheme = mat.scheme();
        for c in 0..cols {
            let exact: i64 = (0..rows)
                .map(|r| i64::from(inputs[r]) * i64::from(weights[r * cols + c]))
                .sum();
            let target = scheme.exact_target(exact);
            assert!(
                (got[c] - target).abs() <= scheme.max_composition_error(),
                "col {c}: got {} target {target}",
                got[c]
            );
        }
    }

    #[test]
    fn program_requires_program_mode() {
        let mut mat = FfMat::new();
        assert!(matches!(
            mat.program_composed(&[1], 1, 1),
            Err(PrimeError::WrongMode {
                expected: "program",
                ..
            })
        ));
    }

    #[test]
    fn compute_requires_compute_mode() {
        let mut mat = FfMat::new();
        mat.set_function(MatFunction::Program);
        mat.program_composed(&[1], 1, 1).unwrap();
        assert!(matches!(
            mat.compute(&[1]),
            Err(PrimeError::WrongMode {
                expected: "compute",
                ..
            })
        ));
    }

    #[test]
    fn program_rejects_overflow() {
        let mut mat = FfMat::new();
        mat.set_function(MatFunction::Program);
        assert!(matches!(
            mat.program_composed(&[0; 300 * 2], 300, 2),
            Err(PrimeError::MatOverflow { .. })
        ));
        // Magnitude 256 does not fit 8 composed bits.
        assert!(mat.program_composed(&[256], 1, 1).is_err());
    }

    #[test]
    fn memory_mode_round_trips_rows_in_both_arrays() {
        let mut mat = FfMat::new();
        let bits: Vec<bool> = (0..256).map(|i| i % 3 == 0).collect();
        mat.write_memory_row(10, &bits).unwrap();
        mat.write_memory_row(300, &bits).unwrap();
        assert_eq!(mat.read_memory_row(10, 256).unwrap(), bits);
        assert_eq!(mat.read_memory_row(300, 256).unwrap(), bits);
    }

    #[test]
    fn output_units_follow_datapath_config() {
        let mut mat = FfMat::new();
        mat.set_datapath(MatDatapath {
            bypass_sigmoid: true,
            bypass_sa: false,
            relu: true,
        });
        assert_eq!(mat.apply_output_units(&[-5, 7]), vec![0, 7]);
        mat.set_datapath(MatDatapath {
            bypass_sigmoid: false,
            bypass_sa: false,
            relu: false,
        });
        let out = mat.apply_output_units(&[0]);
        assert_eq!(out, vec![32]); // sigmoid mid-code at 6 bits
    }

    #[test]
    fn analog_compute_matches_digital_without_noise() {
        use prime_device::NoiseModel;
        use rand::SeedableRng;
        let rows = 48;
        let cols = 6;
        let weights: Vec<i32> = (0..rows * cols)
            .map(|i| ((i * 37) % 511) as i32 - 255)
            .collect();
        let inputs: Vec<u16> = (0..rows).map(|i| ((i * 5) % 64) as u16).collect();
        let mut mat = programmed_mat(&weights, rows, cols);
        let digital = mat.compute(&inputs).unwrap();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
        let analog = mat
            .compute_analog(&inputs, &NoiseModel::ideal(), &mut rng)
            .unwrap();
        assert_eq!(digital, analog);
    }

    #[test]
    fn analog_compute_with_noise_stays_close() {
        use prime_device::NoiseModel;
        use rand::SeedableRng;
        let rows = 64;
        let cols = 8;
        let weights: Vec<i32> = (0..rows * cols)
            .map(|i| ((i * 11) % 401) as i32 - 200)
            .collect();
        let inputs: Vec<u16> = (0..rows).map(|i| ((i * 3) % 64) as u16).collect();
        let mut mat = programmed_mat(&weights, rows, cols);
        let digital = mat.compute(&inputs).unwrap();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(4);
        mat.apply_program_noise(&NoiseModel::crossbar_default(), &mut rng);
        let noisy = mat
            .compute_analog(&inputs, &NoiseModel::ideal(), &mut rng)
            .unwrap();
        let sat = (1i64 << mat.scheme().output_bits()) - 1;
        for (d, n) in digital.iter().zip(&noisy) {
            // 3% conductance noise shifts the 6-bit output by a few codes.
            assert!((d - n).abs() <= sat / 3, "digital {d} vs noisy {n}");
        }
    }

    #[test]
    fn weight_shape_tracks_programming() {
        let mat = programmed_mat(&[1, 2, 3, 4, 5, 6], 3, 2);
        assert_eq!(mat.weight_shape(), (3, 2));
    }

    /// A cloned mat aliases its source's tile; `mutate` must split the
    /// clone off before writing, leaving the source's outputs untouched
    /// and neither mat reporting a shared tile afterwards.
    fn assert_write_splits_alias(mutate: impl FnOnce(&mut FfMat)) {
        use prime_device::NoiseModel;
        use rand::SeedableRng;
        let rows = 16;
        let cols = 4;
        let weights: Vec<i32> = (0..rows * cols)
            .map(|i| ((i * 23) % 301) as i32 - 150)
            .collect();
        let inputs: Vec<u16> = (0..rows).map(|i| ((i * 9) % 64) as u16).collect();
        let mut original = programmed_mat(&weights, rows, cols);
        let digital = original.compute(&inputs).unwrap();
        let mut clone = original.clone();
        assert!(original.shared_tile().is_some() && clone.shared_tile().is_some());
        mutate(&mut clone);
        assert!(
            original.shared_tile().is_none() && clone.shared_tile().is_none(),
            "the write did not split the alias"
        );
        assert_eq!(original.compute(&inputs).unwrap(), digital);
        // The analog levels are the source's own too: no programming
        // noise leaked through the former alias.
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        let analog = original
            .compute_analog(&inputs, &NoiseModel::ideal(), &mut rng)
            .unwrap();
        assert_eq!(analog, digital);
    }

    #[test]
    fn reprogramming_a_clone_leaves_the_source_intact() {
        assert_write_splits_alias(|clone| {
            clone.set_function(MatFunction::Program);
            clone.program_composed(&[7; 16 * 4], 16, 4).unwrap();
            clone.set_function(MatFunction::Compute);
        });
    }

    #[test]
    fn program_noise_on_a_clone_leaves_the_source_intact() {
        use rand::SeedableRng;
        assert_write_splits_alias(|clone| {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(6);
            clone.apply_program_noise(&prime_device::NoiseModel::crossbar_default(), &mut rng);
        });
    }

    #[test]
    fn morphing_a_clone_to_memory_leaves_the_source_intact() {
        assert_write_splits_alias(|clone| clone.set_function(MatFunction::Memory));
    }

    #[test]
    fn memory_writes_on_a_clone_leave_the_source_intact() {
        // The memory-mode view is split off once by the morph; a clone of
        // it then shares that memory-mode tile until the row write.
        assert_write_splits_alias(|clone| {
            clone.set_function(MatFunction::Memory);
            let before = clone.read_memory_row(3, 256).unwrap();
            let mut writer = clone.clone();
            assert!(clone.shared_tile().is_some());
            writer.write_memory_row(3, &[true; 256]).unwrap();
            assert!(clone.shared_tile().is_none() && writer.shared_tile().is_none());
            assert_eq!(clone.read_memory_row(3, 256).unwrap(), before);
            assert_eq!(writer.read_memory_row(3, 256).unwrap(), vec![true; 256]);
        });
    }
}
