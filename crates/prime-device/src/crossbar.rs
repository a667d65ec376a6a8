//! ReRAM crossbar arrays.
//!
//! The crossbar is the area-efficient ReRAM organization (paper Fig. 1(c))
//! and the computational heart of PRIME: input data are applied as analog
//! wordline voltages, synaptic weights are the programmed cell
//! conductances, and the current accumulating on each bitline is the
//! matrix-vector product `sum_i a_i * w_ij` (paper Fig. 2(b)).
//!
//! Two views are provided:
//!
//! * an **integer-exact** evaluation ([`Crossbar::dot`]) that computes the
//!   ideal quantized dot product — the architectural contract the rest of
//!   the system is built on; and
//! * an **analog** evaluation ([`Crossbar::dot_analog`]) through the
//!   conductance/voltage domain, including programming noise, from which
//!   the digital result is recovered the way the peripheral sense circuit
//!   does (offset cancellation via the known input sum, then scaling).
//!
//! Because positive and negative weights cannot both be conductances, a
//! weight matrix is split across two arrays ([`PairedCrossbar`]) whose
//! bitline results are subtracted by the column-multiplexer circuitry.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::error::DeviceError;
use crate::mlc::MlcSpec;
use crate::noise::NoiseModel;

/// Read voltage applied to wordlines at the maximum input level, in volts.
///
/// PRIME drives computation inputs well below the 2 V SET/RESET voltage so
/// reads never disturb the stored weights.
pub const READ_VOLTAGE_V: f64 = 0.5;

/// PRIME's mat dimension: crossbars are 256x256 cells (paper §V-A).
pub const MAT_DIM: usize = 256;

/// A single ReRAM crossbar array of `rows x cols` multi-level cells.
///
/// # Examples
///
/// ```
/// use prime_device::{Crossbar, MlcSpec};
///
/// let mut xbar = Crossbar::new(4, 2, MlcSpec::new(4)?);
/// xbar.program(0, 0, 3)?;
/// xbar.program(1, 0, 5)?;
/// let out = xbar.dot(&[2, 1, 0, 0])?;
/// assert_eq!(out, vec![2 * 3 + 1 * 5, 0]);
/// # Ok::<(), prime_device::DeviceError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Crossbar {
    rows: usize,
    cols: usize,
    spec: MlcSpec,
    /// Nominal digital level of each cell, row-major. [`MlcSpec`] caps a
    /// cell at 8 bits, so a byte holds every level; the public API still
    /// speaks `u16` levels.
    levels: Vec<u8>,
    /// Actual programmed conductance of each cell, row-major. `None` means
    /// every cell sits at its *nominal* conductance (derived from its level
    /// on demand); the vector is only materialized when noisy programming
    /// perturbs conductances away from nominal, so an ideally-programmed
    /// array stores levels only.
    conductances: Option<Vec<f64>>,
    /// Total cell writes performed, for wear accounting.
    writes: u64,
}

impl Crossbar {
    /// Creates a crossbar with every cell in the HRS (level 0).
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    pub fn new(rows: usize, cols: usize, spec: MlcSpec) -> Self {
        assert!(rows > 0 && cols > 0, "crossbar dimensions must be non-zero");
        Crossbar {
            rows,
            cols,
            spec,
            levels: vec![0; rows * cols],
            conductances: None,
            writes: 0,
        }
    }

    /// Creates a PRIME-sized (256x256) crossbar with the default 4-bit cells.
    pub fn mat() -> Self {
        Crossbar::new(MAT_DIM, MAT_DIM, MlcSpec::default())
    }

    /// Number of wordlines (rows).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of bitlines (columns).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The cell specification shared by every cell in the array.
    pub fn spec(&self) -> MlcSpec {
        self.spec
    }

    /// Total cell writes performed on this array.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Bytes of heap state resident for this array (levels plus the analog
    /// conductance shadow when it has been materialized).
    pub fn state_bytes(&self) -> usize {
        self.levels.len() * core::mem::size_of::<u8>()
            + self
                .conductances
                .as_ref()
                .map_or(0, |g| g.len() * core::mem::size_of::<f64>())
    }

    /// Whether the analog conductance shadow is materialized (it only is
    /// after noisy programming perturbed cells away from their nominal
    /// conductances).
    pub fn conductances_materialized(&self) -> bool {
        self.conductances.is_some()
    }

    fn index(&self, row: usize, col: usize) -> Result<usize, DeviceError> {
        if row >= self.rows || col >= self.cols {
            return Err(DeviceError::IndexOutOfBounds {
                row,
                col,
                rows: self.rows,
                cols: self.cols,
            });
        }
        Ok(row * self.cols + col)
    }

    /// Reads the nominal digital level of a cell.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::IndexOutOfBounds`] for an invalid coordinate.
    pub fn level(&self, row: usize, col: usize) -> Result<u16, DeviceError> {
        Ok(u16::from(self.levels[self.index(row, col)?]))
    }

    /// `level` as a stored cell byte, rejecting levels past the spec.
    fn cell(&self, level: u16) -> Result<u8, DeviceError> {
        self.spec.try_conductance(level)?;
        // `level <= max_level <= 255` (MlcSpec admits at most 8 bits).
        Ok(u8::try_from(level).unwrap_or(u8::MAX))
    }

    /// Programs one cell to `level` with an ideal (noise-free) write.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::IndexOutOfBounds`] or
    /// [`DeviceError::LevelOutOfRange`].
    pub fn program(&mut self, row: usize, col: usize, level: u16) -> Result<(), DeviceError> {
        let idx = self.index(row, col)?;
        self.levels[idx] = self.cell(level)?;
        if let Some(conductances) = &mut self.conductances {
            conductances[idx] = self.spec.conductance(level);
        }
        self.writes += 1;
        Ok(())
    }

    /// Programs the whole array from a row-major level matrix.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::ShapeMismatch`] if `matrix` is not
    /// `rows * cols` long, or [`DeviceError::LevelOutOfRange`] if any level
    /// is unrepresentable (the array is left unmodified in that case).
    pub fn program_matrix(&mut self, matrix: &[u16]) -> Result<(), DeviceError> {
        if matrix.len() != self.rows * self.cols {
            return Err(DeviceError::ShapeMismatch {
                got: (matrix.len(), 1),
                expected: (self.rows, self.cols),
            });
        }
        // Validate before mutating so a failed bulk program is atomic.
        for &level in matrix {
            self.cell(level)?;
        }
        for (cell, &level) in self.levels.iter_mut().zip(matrix) {
            *cell = u8::try_from(level).unwrap_or(u8::MAX);
        }
        if let Some(conductances) = &mut self.conductances {
            for (g, &level) in conductances.iter_mut().zip(matrix) {
                *g = self.spec.conductance(level);
            }
        }
        self.writes += (self.rows * self.cols) as u64;
        Ok(())
    }

    /// Programs a rectangular region in one chunked write: `levels` is a
    /// row-major `(levels.len() / width) x width` block written with its
    /// top-left cell at `(row0, col0)`.
    ///
    /// This is the deploy-path bulk write: one validation sweep, then
    /// per-row slice copies, instead of a bounds/conductance check per cell.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::ShapeMismatch`] if `levels` is not a whole
    /// number of `width`-sized rows, [`DeviceError::IndexOutOfBounds`] if
    /// the region overhangs the array, or [`DeviceError::LevelOutOfRange`]
    /// for an unrepresentable level. The array is unmodified on error.
    pub fn program_region(
        &mut self,
        row0: usize,
        col0: usize,
        width: usize,
        levels: &[u16],
    ) -> Result<(), DeviceError> {
        if width == 0 || !levels.len().is_multiple_of(width) {
            return Err(DeviceError::ShapeMismatch {
                got: (levels.len(), 1),
                expected: (levels.len().div_ceil(width.max(1)), width),
            });
        }
        let height = levels.len() / width;
        if row0 + height > self.rows || col0 + width > self.cols {
            return Err(DeviceError::IndexOutOfBounds {
                row: row0 + height - 1,
                col: col0 + width - 1,
                rows: self.rows,
                cols: self.cols,
            });
        }
        // Validate before mutating so a failed bulk program is atomic.
        for &level in levels {
            self.cell(level)?;
        }
        let spec = self.spec;
        for (r, block_row) in levels.chunks_exact(width).enumerate() {
            let base = (row0 + r) * self.cols + col0;
            for (cell, &level) in self.levels[base..base + width].iter_mut().zip(block_row) {
                *cell = u8::try_from(level).unwrap_or(u8::MAX);
            }
            if let Some(conductances) = &mut self.conductances {
                for (g, &level) in conductances[base..base + width].iter_mut().zip(block_row) {
                    *g = spec.conductance(level);
                }
            }
        }
        self.writes += levels.len() as u64;
        Ok(())
    }

    /// Re-programs every cell to its nominal level through a noisy write,
    /// modelling the feedback tuning precision of real devices.
    ///
    /// Only the analog conductances are perturbed; the nominal levels (and
    /// therefore [`dot`](Self::dot)) are unaffected.
    pub fn apply_program_noise<R: Rng + ?Sized>(&mut self, noise: &NoiseModel, rng: &mut R) {
        let spec = self.spec;
        let levels = &self.levels;
        let conductances = self
            .conductances
            .get_or_insert_with(|| Vec::with_capacity(levels.len()));
        conductances.clear();
        conductances.extend(
            levels
                .iter()
                .map(|&level| noise.perturb_conductance(spec.conductance(level.into()), rng)),
        );
    }

    /// Integer-exact matrix-vector product: `out[j] = sum_i input[i] * level[i][j]`.
    ///
    /// `input` holds digital wordline levels (the DAC codes); the result is
    /// the full-precision accumulation before any sense-amplifier
    /// truncation.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InputLengthMismatch`] if `input.len() != rows`.
    pub fn dot(&self, input: &[u16]) -> Result<Vec<u64>, DeviceError> {
        let mut out = Vec::new();
        self.dot_into(input, &mut out)?;
        Ok(out)
    }

    /// [`dot`](Self::dot) into a caller-owned buffer.
    ///
    /// `out` is cleared and resized to `cols`; once its capacity has grown
    /// to `cols` no further heap allocation occurs on repeated calls (see
    /// the crate-level scratch-buffer contract).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InputLengthMismatch`] if `input.len() != rows`.
    pub fn dot_into(&self, input: &[u16], out: &mut Vec<u64>) -> Result<(), DeviceError> {
        if input.len() != self.rows {
            return Err(DeviceError::InputLengthMismatch {
                got: input.len(),
                expected: self.rows,
            });
        }
        self.dot_span_into(input, self.cols, out)
    }

    /// [`dot_into`](Self::dot_into) restricted to the first `span` bitlines.
    ///
    /// The sense amplifiers only multiplex the bitlines a mat's composing
    /// scheme actually consumes, so a caller that knows how many physical
    /// columns carry programmed weights can skip sensing the unprogrammed
    /// remainder. `span` is clamped to `cols`; `out` is cleared and resized
    /// to the clamped span. `input` may cover only a prefix of the rows:
    /// wordlines past `input.len()` are undriven (grounded) and contribute
    /// nothing to any bitline.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InputLengthMismatch`] if `input.len() > rows`.
    pub fn dot_span_into(
        &self,
        input: &[u16],
        span: usize,
        out: &mut Vec<u64>,
    ) -> Result<(), DeviceError> {
        if input.len() > self.rows {
            return Err(DeviceError::InputLengthMismatch {
                got: input.len(),
                expected: self.rows,
            });
        }
        let span = span.min(self.cols);
        out.clear();
        out.resize(span, 0);
        for (row, &a) in input.iter().enumerate() {
            if a == 0 {
                continue;
            }
            let a = u64::from(a);
            for (o, &w) in out.iter_mut().zip(self.row_levels(row, span)) {
                *o += a * u64::from(w);
            }
        }
        Ok(())
    }

    /// Row `row`'s stored cell levels over the first `span` bitlines.
    fn row_levels(&self, row: usize, span: usize) -> &[u8] {
        let base = row * self.cols;
        &self.levels[base..base + span]
    }

    /// Analog matrix-vector product through the voltage/conductance domain.
    ///
    /// `input` are DAC codes quantized to `input_bits`; the wordline voltage
    /// for code `a` is `READ_VOLTAGE_V * a / (2^input_bits - 1)`. Returns
    /// the raw bitline currents in amperes (optionally read-noise
    /// perturbed).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InputLengthMismatch`] for a wrong-length
    /// input, or [`DeviceError::InputLevelOutOfRange`] if a code exceeds
    /// the DAC resolution.
    pub fn dot_analog<R: Rng + ?Sized>(
        &self,
        input: &[u16],
        input_bits: u8,
        noise: &NoiseModel,
        rng: &mut R,
    ) -> Result<Vec<f64>, DeviceError> {
        let mut currents = Vec::new();
        self.dot_analog_into(input, input_bits, noise, rng, &mut currents)?;
        Ok(currents)
    }

    /// [`dot_analog`](Self::dot_analog) into a caller-owned buffer.
    ///
    /// `currents` is cleared and resized to `cols`; repeated calls at the
    /// same geometry perform no heap allocation.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InputLengthMismatch`] for a wrong-length
    /// input, or [`DeviceError::InputLevelOutOfRange`] if a code exceeds
    /// the DAC resolution.
    pub fn dot_analog_into<R: Rng + ?Sized>(
        &self,
        input: &[u16],
        input_bits: u8,
        noise: &NoiseModel,
        rng: &mut R,
        currents: &mut Vec<f64>,
    ) -> Result<(), DeviceError> {
        if input.len() != self.rows {
            return Err(DeviceError::InputLengthMismatch {
                got: input.len(),
                expected: self.rows,
            });
        }
        self.dot_analog_span_into(input, input_bits, self.cols, noise, rng, currents)
    }

    /// [`dot_analog_into`](Self::dot_analog_into) restricted to the first
    /// `span` bitlines.
    ///
    /// Unsensed bitlines draw no read-noise samples: the RNG advances once
    /// per *sensed* column, so restricting the span changes the stream of
    /// noise draws relative to a full-width read (see the runner's
    /// RNG-order note in DESIGN.md §11). `span` is clamped to `cols`;
    /// `input` may cover only a prefix of the rows (undriven wordlines
    /// are grounded).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InputLengthMismatch`] for an over-length
    /// input, or [`DeviceError::InputLevelOutOfRange`] if a code exceeds
    /// the DAC resolution.
    pub fn dot_analog_span_into<R: Rng + ?Sized>(
        &self,
        input: &[u16],
        input_bits: u8,
        span: usize,
        noise: &NoiseModel,
        rng: &mut R,
        currents: &mut Vec<f64>,
    ) -> Result<(), DeviceError> {
        if input.len() > self.rows {
            return Err(DeviceError::InputLengthMismatch {
                got: input.len(),
                expected: self.rows,
            });
        }
        let max_code = (1u32 << input_bits) - 1;
        for &a in input {
            if u32::from(a) > max_code {
                return Err(DeviceError::InputLevelOutOfRange {
                    requested: a,
                    levels: u16::try_from((max_code + 1).min(u32::from(u16::MAX)))
                        .unwrap_or(u16::MAX),
                });
            }
        }
        let span = span.min(self.cols);
        currents.clear();
        currents.resize(span, 0.0);
        // Unmaterialized shadow: every cell sits at its nominal
        // conductance, looked up per level in a table `spec.conductance`
        // fills, so the products are bit-identical to the materialized
        // path's (and to calling `conductance` per cell).
        let mut nominal = [0.0f64; 256];
        if self.conductances.is_none() {
            for (level, g) in (0..self.spec.levels()).zip(nominal.iter_mut()) {
                *g = self.spec.conductance(level);
            }
        }
        for (row, &a) in input.iter().enumerate() {
            if a == 0 {
                continue;
            }
            let v = READ_VOLTAGE_V * f64::from(a) / f64::from(max_code);
            match &self.conductances {
                Some(conductances) => {
                    let base = row * self.cols;
                    let row_g = &conductances[base..base + span];
                    for (c, &g) in currents.iter_mut().zip(row_g) {
                        *c += v * g;
                    }
                }
                None => {
                    for (c, &l) in currents.iter_mut().zip(self.row_levels(row, span)) {
                        *c += v * nominal[usize::from(l)];
                    }
                }
            }
        }
        for c in currents.iter_mut() {
            *c = noise.perturb_current(*c, rng);
        }
        Ok(())
    }

    /// Recovers the digital dot product from an analog bitline current.
    ///
    /// The HRS conductance is non-zero, so every active input contributes a
    /// weight-independent offset `v_i * g_off`. Real arrays cancel it with a
    /// dummy column of level-0 cells; architecturally the offset equals
    /// `g_off`-scaled input sum, which this decoder subtracts before scaling
    /// by the conductance LSB. `input_sum` is `sum_i input[i]` (the dummy
    /// column's own decoded value).
    pub fn decode_current(&self, current: f64, input_sum: u64, input_bits: u8) -> i64 {
        let max_code = f64::from((1u32 << input_bits) - 1);
        let v_lsb = READ_VOLTAGE_V / max_code;
        let g_span = self.spec.g_on() - self.spec.g_off();
        let g_lsb = g_span / f64::from(self.spec.max_level());
        let offset = v_lsb * self.spec.g_off() * input_sum as f64;
        (((current - offset) / (v_lsb * g_lsb)).round()) as i64
    }

    /// Memory-mode read of a whole row as bits (SLC view of the cells).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::IndexOutOfBounds`] for an invalid row.
    pub fn read_row_bits(&self, row: usize) -> Result<Vec<bool>, DeviceError> {
        self.index(row, 0)?;
        let base = row * self.cols;
        Ok(self.levels[base..base + self.cols]
            .iter()
            .map(|&l| u32::from(l) * 2 > u32::from(self.spec.max_level()))
            .collect())
    }

    /// Memory-mode write of a whole row of bits (cells driven to HRS/LRS).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::IndexOutOfBounds`] for an invalid row or
    /// [`DeviceError::InputLengthMismatch`] for a wrong-length bit vector.
    pub fn write_row_bits(&mut self, row: usize, bits: &[bool]) -> Result<(), DeviceError> {
        self.index(row, 0)?;
        if bits.len() != self.cols {
            return Err(DeviceError::InputLengthMismatch {
                got: bits.len(),
                expected: self.cols,
            });
        }
        let max = self.spec.max_level();
        for (col, &bit) in bits.iter().enumerate() {
            let level = if bit { max } else { 0 };
            self.program(row, col, level)?;
        }
        Ok(())
    }

    /// Morphs every cell to a new MLC spec (memory <-> computation mode),
    /// clamping stored levels to the new range.
    pub fn morph(&mut self, spec: MlcSpec) {
        self.spec = spec;
        let max = u8::try_from(spec.max_level()).unwrap_or(u8::MAX);
        for level in self.levels.iter_mut() {
            *level = (*level).min(max);
        }
        // Re-programming every cell for the new mode resets any perturbed
        // conductances to nominal, so the shadow collapses back to lazy.
        self.conductances = None;
    }
}

/// Reusable per-polarity bitline currents for [`PairedCrossbar`]'s
/// analog dot products.
///
/// Holding one of these across calls makes `dot_signed_analog_into`
/// allocation-free in steady state: each buffer grows to the pair's
/// column count on first use and is then reused.
#[derive(Debug, Default, Clone)]
pub struct PairScratch {
    pos_currents: Vec<f64>,
    neg_currents: Vec<f64>,
}

impl PairScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        PairScratch::default()
    }
}

/// A positive/negative crossbar pair sharing one input port.
///
/// Matrices with signed weights are implemented as two separate arrays —
/// one storing the positive part, one the magnitude of the negative part —
/// whose bitline results are subtracted by the analog subtraction unit
/// (paper §II-B, §III-E).
///
/// # Examples
///
/// ```
/// use prime_device::{MlcSpec, PairedCrossbar};
///
/// let mut pair = PairedCrossbar::new(2, 1, MlcSpec::new(4)?);
/// pair.program_signed(0, 0, 5)?;  // +5
/// pair.program_signed(1, 0, -3)?; // -3
/// assert_eq!(pair.dot_signed(&[1, 2])?, vec![5 - 6]);
/// # Ok::<(), prime_device::DeviceError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PairedCrossbar {
    positive: Crossbar,
    negative: Crossbar,
}

impl PairedCrossbar {
    /// Creates a pair of `rows x cols` arrays with all-zero weights.
    pub fn new(rows: usize, cols: usize, spec: MlcSpec) -> Self {
        PairedCrossbar {
            positive: Crossbar::new(rows, cols, spec),
            negative: Crossbar::new(rows, cols, spec),
        }
    }

    /// Creates a PRIME-sized (256x256) pair with default 4-bit cells.
    pub fn mat() -> Self {
        PairedCrossbar::new(MAT_DIM, MAT_DIM, MlcSpec::default())
    }

    /// Worst-case signed interval one bitline's differential partial sum
    /// can reach when `rows` wordlines drive inputs of magnitude at most
    /// `input_max` into pair cells of magnitude at most `weight_max`.
    /// The static counterpart of `calibrate_output_window`'s dynamic
    /// `2 * max_abs` calibration: the sense path never sees a value
    /// outside this span, so the interval analysis can propagate it
    /// without running a single evaluation. Saturates instead of
    /// wrapping so degenerate shapes stay ordered.
    pub fn sense_interval(rows: usize, input_max: i64, weight_max: i64) -> (i64, i64) {
        let rows = i64::try_from(rows).unwrap_or(i64::MAX);
        let hi = rows
            .saturating_mul(input_max.max(0))
            .saturating_mul(weight_max.max(0));
        (-hi, hi)
    }

    /// Number of wordlines.
    pub fn rows(&self) -> usize {
        self.positive.rows()
    }

    /// Number of bitlines per polarity array.
    pub fn cols(&self) -> usize {
        self.positive.cols()
    }

    /// The positive-weight array.
    pub fn positive(&self) -> &Crossbar {
        &self.positive
    }

    /// The negative-weight array.
    pub fn negative(&self) -> &Crossbar {
        &self.negative
    }

    /// Mutable access to the positive-weight array, for memory-mode writes
    /// and mode morphing where the two arrays act independently.
    pub fn positive_mut(&mut self) -> &mut Crossbar {
        &mut self.positive
    }

    /// Mutable access to the negative-weight array.
    pub fn negative_mut(&mut self) -> &mut Crossbar {
        &mut self.negative
    }

    /// Programs a signed weight: the magnitude goes to the polarity array
    /// matching the sign, zero to the other.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::LevelOutOfRange`] if `|weight|` exceeds the
    /// cell's level range, or [`DeviceError::IndexOutOfBounds`].
    pub fn program_signed(&mut self, row: usize, col: usize, weight: i32) -> Result<(), DeviceError> {
        let magnitude = weight.unsigned_abs();
        let max = u32::from(self.positive.spec().max_level());
        if magnitude > max {
            return Err(DeviceError::LevelOutOfRange {
                requested: u16::try_from(magnitude.min(u32::from(u16::MAX)))
                    .unwrap_or(u16::MAX),
                levels: self.positive.spec().levels(),
            });
        }
        // `magnitude <= max <= u16::MAX` here, so the conversion is exact.
        let level = u16::try_from(magnitude).unwrap_or(u16::MAX);
        if weight >= 0 {
            self.positive.program(row, col, level)?;
            self.negative.program(row, col, 0)?;
        } else {
            self.positive.program(row, col, 0)?;
            self.negative.program(row, col, level)?;
        }
        Ok(())
    }

    /// Programs the whole pair from a row-major signed weight matrix.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::ShapeMismatch`] for a wrong-sized matrix or
    /// [`DeviceError::LevelOutOfRange`] for an unrepresentable magnitude.
    pub fn program_signed_matrix(&mut self, matrix: &[i32]) -> Result<(), DeviceError> {
        if matrix.len() != self.rows() * self.cols() {
            return Err(DeviceError::ShapeMismatch {
                got: (matrix.len(), 1),
                expected: (self.rows(), self.cols()),
            });
        }
        for (idx, &w) in matrix.iter().enumerate() {
            let (row, col) = (idx / self.cols(), idx % self.cols());
            self.program_signed(row, col, w)?;
        }
        Ok(())
    }

    /// Programs a rectangular region of signed weights in one chunked
    /// write per polarity array: `weights` is a row-major
    /// `(weights.len() / width) x width` block with its top-left cell at
    /// `(row0, col0)`. Magnitudes go to the polarity array matching each
    /// sign, zero to the other, exactly as per-cell
    /// [`program_signed`](Self::program_signed) would — but with one
    /// validation sweep and slice copies instead of four bounds-checked
    /// writes per weight.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::ShapeMismatch`], [`DeviceError::IndexOutOfBounds`]
    /// or [`DeviceError::LevelOutOfRange`]; both arrays are unmodified on
    /// error.
    pub fn program_signed_region(
        &mut self,
        row0: usize,
        col0: usize,
        width: usize,
        weights: &[i32],
    ) -> Result<(), DeviceError> {
        if width == 0 || !weights.len().is_multiple_of(width) {
            return Err(DeviceError::ShapeMismatch {
                got: (weights.len(), 1),
                expected: (weights.len().div_ceil(width.max(1)), width),
            });
        }
        let max = u32::from(self.positive.spec().max_level());
        let mut pos = Vec::with_capacity(weights.len());
        let mut neg = Vec::with_capacity(weights.len());
        for &w in weights {
            let magnitude = w.unsigned_abs();
            if magnitude > max {
                return Err(DeviceError::LevelOutOfRange {
                    requested: u16::try_from(magnitude.min(u32::from(u16::MAX)))
                        .unwrap_or(u16::MAX),
                    levels: self.positive.spec().levels(),
                });
            }
            // `magnitude <= max <= u16::MAX` here, so the conversion is exact.
            let level = u16::try_from(magnitude).unwrap_or(u16::MAX);
            if w >= 0 {
                pos.push(level);
                neg.push(0);
            } else {
                pos.push(0);
                neg.push(level);
            }
        }
        self.positive.program_region(row0, col0, width, &pos)?;
        self.negative.program_region(row0, col0, width, &neg)
    }

    /// Bytes of heap state resident across both polarity arrays.
    pub fn state_bytes(&self) -> usize {
        self.positive.state_bytes() + self.negative.state_bytes()
    }

    /// Reads back the effective signed weight of a cell pair.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::IndexOutOfBounds`].
    pub fn signed_weight(&self, row: usize, col: usize) -> Result<i32, DeviceError> {
        let p = i32::from(self.positive.level(row, col)?);
        let n = i32::from(self.negative.level(row, col)?);
        Ok(p - n)
    }

    /// Signed integer-exact matrix-vector product: positive-array result
    /// minus negative-array result, as the subtraction unit produces.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InputLengthMismatch`].
    pub fn dot_signed(&self, input: &[u16]) -> Result<Vec<i64>, DeviceError> {
        let mut out = Vec::new();
        self.dot_signed_into(input, &mut out)?;
        Ok(out)
    }

    /// [`dot_signed`](Self::dot_signed) into a caller-owned buffer.
    ///
    /// One sweep over both polarity arrays accumulates `p - n` per cell,
    /// so no per-polarity intermediate is needed. `out` is cleared and
    /// resized to `cols`; repeated calls at the same geometry perform no
    /// heap allocation.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InputLengthMismatch`].
    pub fn dot_signed_into(&self, input: &[u16], out: &mut Vec<i64>) -> Result<(), DeviceError> {
        if input.len() != self.rows() {
            return Err(DeviceError::InputLengthMismatch {
                got: input.len(),
                expected: self.rows(),
            });
        }
        let cols = self.cols();
        out.clear();
        out.resize(cols, 0);
        for (row, &a) in input.iter().enumerate() {
            if a == 0 {
                continue;
            }
            let a = i64::from(a);
            let pos = self.positive.row_levels(row, cols);
            let neg = self.negative.row_levels(row, cols);
            for ((o, &p), &n) in out.iter_mut().zip(pos).zip(neg) {
                *o += a * (i64::from(p) - i64::from(n));
            }
        }
        Ok(())
    }

    /// The composed `p - n` level of every cell pair in the top-left
    /// `rows x span` region, row-major: the signed weight plane a
    /// digital evaluation sweeps in place of the two polarity arrays.
    /// Each entry fits an `i16`, since a cell holds at most 8 bits
    /// (`|p - n| <= 255`). `rows` and `span` are clamped to the pair.
    pub fn signed_plane(&self, rows: usize, span: usize) -> Vec<i16> {
        let (rows, span) = (rows.min(self.rows()), span.min(self.cols()));
        let mut plane = Vec::with_capacity(rows * span);
        for row in 0..rows {
            let pos = self.positive.row_levels(row, span);
            let neg = self.negative.row_levels(row, span);
            plane.extend(pos.iter().zip(neg).map(|(&p, &n)| i16::from(p) - i16::from(n)));
        }
        plane
    }

    /// Applies programming noise to both polarity arrays.
    pub fn apply_program_noise<R: Rng + ?Sized>(&mut self, noise: &NoiseModel, rng: &mut R) {
        self.positive.apply_program_noise(noise, rng);
        self.negative.apply_program_noise(noise, rng);
    }

    /// Signed analog matrix-vector product: decodes both polarity arrays'
    /// currents and subtracts, returning integer results as sensed by an
    /// ideal (non-truncating) SA.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`Crossbar::dot_analog`].
    pub fn dot_signed_analog<R: Rng + ?Sized>(
        &self,
        input: &[u16],
        input_bits: u8,
        noise: &NoiseModel,
        rng: &mut R,
    ) -> Result<Vec<i64>, DeviceError> {
        let mut scratch = PairScratch::new();
        let mut out = Vec::new();
        self.dot_signed_analog_into(input, input_bits, noise, rng, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// [`dot_signed_analog`](Self::dot_signed_analog) into caller-owned
    /// buffers.
    ///
    /// `out` is cleared and resized to `cols`; with a reused `scratch`,
    /// repeated calls at the same geometry perform no heap allocation.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`Crossbar::dot_analog_into`].
    pub fn dot_signed_analog_into<R: Rng + ?Sized>(
        &self,
        input: &[u16],
        input_bits: u8,
        noise: &NoiseModel,
        rng: &mut R,
        scratch: &mut PairScratch,
        out: &mut Vec<i64>,
    ) -> Result<(), DeviceError> {
        if input.len() != self.positive.rows() {
            return Err(DeviceError::InputLengthMismatch {
                got: input.len(),
                expected: self.positive.rows(),
            });
        }
        self.dot_signed_analog_span_into(
            input,
            input_bits,
            self.positive.cols(),
            noise,
            rng,
            scratch,
            out,
        )
    }

    /// [`dot_signed_analog_into`](Self::dot_signed_analog_into) restricted
    /// to the first `span` bitlines of both polarity arrays.
    ///
    /// Only sensed bitlines draw read-noise samples, so the RNG stream
    /// depends on `span` (see [`Crossbar::dot_analog_span_into`]).
    ///
    /// # Errors
    ///
    /// Propagates errors from [`Crossbar::dot_analog_span_into`].
    #[allow(clippy::too_many_arguments)]
    pub fn dot_signed_analog_span_into<R: Rng + ?Sized>(
        &self,
        input: &[u16],
        input_bits: u8,
        span: usize,
        noise: &NoiseModel,
        rng: &mut R,
        scratch: &mut PairScratch,
        out: &mut Vec<i64>,
    ) -> Result<(), DeviceError> {
        let input_sum: u64 = input.iter().map(|&a| u64::from(a)).sum();
        self.positive.dot_analog_span_into(
            input,
            input_bits,
            span,
            noise,
            rng,
            &mut scratch.pos_currents,
        )?;
        self.negative.dot_analog_span_into(
            input,
            input_bits,
            span,
            noise,
            rng,
            &mut scratch.neg_currents,
        )?;
        out.clear();
        out.extend(scratch.pos_currents.iter().zip(&scratch.neg_currents).map(|(&p, &n)| {
            self.positive.decode_current(p, input_sum, input_bits)
                - self.negative.decode_current(n, input_sum, input_bits)
        }));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn reference_dot(matrix: &[u16], rows: usize, cols: usize, input: &[u16]) -> Vec<u64> {
        let mut out = vec![0u64; cols];
        for r in 0..rows {
            for c in 0..cols {
                out[c] += u64::from(input[r]) * u64::from(matrix[r * cols + c]);
            }
        }
        out
    }

    #[test]
    fn dot_matches_reference_on_small_matrix() {
        let mut xbar = Crossbar::new(3, 2, MlcSpec::new(4).unwrap());
        let m = [1u16, 2, 3, 4, 5, 6];
        xbar.program_matrix(&m).unwrap();
        let input = [7u16, 0, 2];
        assert_eq!(xbar.dot(&input).unwrap(), reference_dot(&m, 3, 2, &input));
    }

    #[test]
    fn dot_rejects_wrong_input_length() {
        let xbar = Crossbar::new(3, 2, MlcSpec::default());
        assert!(matches!(
            xbar.dot(&[1, 2]),
            Err(DeviceError::InputLengthMismatch { got: 2, expected: 3 })
        ));
    }

    #[test]
    fn program_matrix_is_atomic_on_failure() {
        let mut xbar = Crossbar::new(2, 2, MlcSpec::new(2).unwrap());
        xbar.program_matrix(&[1, 1, 1, 1]).unwrap();
        // Level 4 is out of range for 2-bit cells; nothing should change.
        assert!(xbar.program_matrix(&[2, 2, 2, 4]).is_err());
        assert_eq!(xbar.level(0, 0).unwrap(), 1);
        assert_eq!(xbar.level(1, 1).unwrap(), 1);
    }

    #[test]
    fn analog_decode_matches_exact_dot_without_noise() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut xbar = Crossbar::new(16, 8, MlcSpec::new(4).unwrap());
        let matrix: Vec<u16> = (0..16 * 8).map(|i| (i % 16) as u16).collect();
        xbar.program_matrix(&matrix).unwrap();
        let input: Vec<u16> = (0..16).map(|i| (i % 8) as u16).collect();
        let input_sum: u64 = input.iter().map(|&a| u64::from(a)).sum();
        let exact = xbar.dot(&input).unwrap();
        let currents = xbar.dot_analog(&input, 3, &NoiseModel::ideal(), &mut rng).unwrap();
        for (col, current) in currents.iter().enumerate() {
            assert_eq!(xbar.decode_current(*current, input_sum, 3), exact[col] as i64);
        }
    }

    #[test]
    fn analog_with_noise_stays_close_to_exact() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut xbar = Crossbar::new(64, 16, MlcSpec::new(4).unwrap());
        let matrix: Vec<u16> = (0..64 * 16).map(|i| ((i * 7) % 16) as u16).collect();
        xbar.program_matrix(&matrix).unwrap();
        xbar.apply_program_noise(&NoiseModel::crossbar_default(), &mut rng);
        let input: Vec<u16> = (0..64).map(|i| ((i * 3) % 8) as u16).collect();
        let input_sum: u64 = input.iter().map(|&a| u64::from(a)).sum();
        let exact = xbar.dot(&input).unwrap();
        let currents = xbar.dot_analog(&input, 3, &NoiseModel::ideal(), &mut rng).unwrap();
        for (col, current) in currents.iter().enumerate() {
            let decoded = xbar.decode_current(*current, input_sum, 3) as f64;
            let ideal = exact[col] as f64;
            // 3% conductance error over 64 accumulated terms stays within ~10%.
            assert!((decoded - ideal).abs() <= (ideal * 0.1).max(32.0), "col {col}: {decoded} vs {ideal}");
        }
    }

    #[test]
    fn dot_analog_rejects_over_range_code() {
        let xbar = Crossbar::new(2, 2, MlcSpec::default());
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(matches!(
            xbar.dot_analog(&[8, 0], 3, &NoiseModel::ideal(), &mut rng),
            Err(DeviceError::InputLevelOutOfRange { requested: 8, .. })
        ));
    }

    #[test]
    fn memory_mode_row_round_trip() {
        let mut xbar = Crossbar::new(4, 8, MlcSpec::slc());
        let bits = [true, false, true, true, false, false, true, false];
        xbar.write_row_bits(2, &bits).unwrap();
        assert_eq!(xbar.read_row_bits(2).unwrap(), bits.to_vec());
        assert_eq!(xbar.read_row_bits(0).unwrap(), vec![false; 8]);
    }

    #[test]
    fn morph_preserves_bits_between_modes() {
        let mut xbar = Crossbar::new(2, 4, MlcSpec::slc());
        xbar.write_row_bits(0, &[true, false, true, false]).unwrap();
        xbar.morph(MlcSpec::new(4).unwrap());
        xbar.morph(MlcSpec::slc());
        assert_eq!(xbar.read_row_bits(0).unwrap(), vec![true, false, true, false]);
    }

    #[test]
    fn paired_dot_handles_mixed_signs() {
        let mut pair = PairedCrossbar::new(3, 2, MlcSpec::new(4).unwrap());
        pair.program_signed_matrix(&[1, -2, 0, 4, -3, 5]).unwrap();
        let out = pair.dot_signed(&[2, 1, 1]).unwrap();
        // col0: 2*1 + 1*0 + 1*(-3) = -1 ; col1: 2*(-2) + 1*4 + 1*5 = 5
        assert_eq!(out, vec![-1, 5]);
    }

    #[test]
    fn paired_signed_weight_read_back() {
        let mut pair = PairedCrossbar::new(1, 1, MlcSpec::new(4).unwrap());
        pair.program_signed(0, 0, -9).unwrap();
        assert_eq!(pair.signed_weight(0, 0).unwrap(), -9);
        pair.program_signed(0, 0, 15).unwrap();
        assert_eq!(pair.signed_weight(0, 0).unwrap(), 15);
    }

    #[test]
    fn paired_rejects_over_range_magnitude() {
        let mut pair = PairedCrossbar::new(1, 1, MlcSpec::new(4).unwrap());
        assert!(pair.program_signed(0, 0, 16).is_err());
        assert!(pair.program_signed(0, 0, -16).is_err());
    }

    #[test]
    fn paired_analog_matches_exact_without_noise() {
        let mut rng = SmallRng::seed_from_u64(13);
        let mut pair = PairedCrossbar::new(8, 4, MlcSpec::new(4).unwrap());
        let matrix: Vec<i32> = (0..32).map(|i| (i % 21) - 10).collect();
        pair.program_signed_matrix(&matrix).unwrap();
        let input: Vec<u16> = (0..8).map(|i| (i % 8) as u16).collect();
        let exact = pair.dot_signed(&input).unwrap();
        let analog = pair
            .dot_signed_analog(&input, 3, &NoiseModel::ideal(), &mut rng)
            .unwrap();
        assert_eq!(exact, analog);
    }

    #[test]
    fn program_region_matches_per_cell_program() {
        let spec = MlcSpec::new(4).unwrap();
        let mut chunked = Crossbar::new(6, 5, spec);
        let mut reference = Crossbar::new(6, 5, spec);
        let block: Vec<u16> = (0..12).map(|i| (i % 16) as u16).collect();
        chunked.program_region(2, 1, 4, &block).unwrap();
        for (i, &level) in block.iter().enumerate() {
            reference.program(2 + i / 4, 1 + i % 4, level).unwrap();
        }
        assert_eq!(chunked.levels, reference.levels);
        assert_eq!(chunked.writes(), reference.writes());
    }

    #[test]
    fn program_region_is_atomic_on_failure() {
        let mut xbar = Crossbar::new(4, 4, MlcSpec::new(2).unwrap());
        // Overhangs the array.
        assert!(xbar.program_region(3, 0, 4, &[1; 8]).is_err());
        // Ragged block.
        assert!(xbar.program_region(0, 0, 3, &[1; 8]).is_err());
        // Unrepresentable level.
        assert!(xbar.program_region(0, 0, 4, &[1, 1, 1, 4]).is_err());
        assert_eq!(xbar.level(0, 0).unwrap(), 0);
        assert_eq!(xbar.writes(), 0);
    }

    #[test]
    fn conductances_stay_lazy_until_perturbed() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut xbar = Crossbar::new(8, 4, MlcSpec::new(4).unwrap());
        let matrix: Vec<u16> = (0..32).map(|i| (i % 16) as u16).collect();
        xbar.program_matrix(&matrix).unwrap();
        assert!(!xbar.conductances_materialized());
        let lazy_bytes = xbar.state_bytes();

        // Nominal analog reads don't materialize and still decode exactly.
        let input: Vec<u16> = (0..8).map(|i| (i % 8) as u16).collect();
        let input_sum: u64 = input.iter().map(|&a| u64::from(a)).sum();
        let exact = xbar.dot(&input).unwrap();
        let currents = xbar.dot_analog(&input, 3, &NoiseModel::ideal(), &mut rng).unwrap();
        for (col, current) in currents.iter().enumerate() {
            assert_eq!(xbar.decode_current(*current, input_sum, 3), exact[col] as i64);
        }
        assert!(!xbar.conductances_materialized());

        // Noisy programming materializes the shadow; morphing collapses it.
        xbar.apply_program_noise(&NoiseModel::crossbar_default(), &mut rng);
        assert!(xbar.conductances_materialized());
        assert!(xbar.state_bytes() > lazy_bytes);
        xbar.morph(MlcSpec::new(4).unwrap());
        assert!(!xbar.conductances_materialized());
        assert_eq!(xbar.state_bytes(), lazy_bytes);
    }

    #[test]
    fn paired_program_signed_region_matches_per_cell() {
        let spec = MlcSpec::new(4).unwrap();
        let mut chunked = PairedCrossbar::new(5, 4, spec);
        let mut reference = PairedCrossbar::new(5, 4, spec);
        let block: Vec<i32> = (0..12).map(|i| (i % 21) - 10).collect();
        chunked.program_signed_region(1, 1, 3, &block).unwrap();
        for (i, &w) in block.iter().enumerate() {
            reference.program_signed(1 + i / 3, 1 + i % 3, w).unwrap();
        }
        for row in 0..5 {
            for col in 0..4 {
                assert_eq!(
                    chunked.signed_weight(row, col).unwrap(),
                    reference.signed_weight(row, col).unwrap()
                );
            }
        }
        // Out-of-range magnitude leaves both arrays untouched.
        assert!(chunked.program_signed_region(0, 0, 2, &[1, -16]).is_err());
        assert_eq!(chunked.signed_weight(0, 0).unwrap(), 0);
    }

    #[test]
    fn signed_plane_holds_each_pairs_composed_level() {
        let spec = MlcSpec::new(8).unwrap();
        let mut pair = PairedCrossbar::new(4, 6, spec);
        let mut weights: Vec<i32> = (0..24).map(|i| (i * 53 % 511) - 255).collect();
        (weights[0], weights[7]) = (255, -255);
        pair.program_signed_matrix(&weights).unwrap();
        // The region is clamped to the pair and read row-major.
        let plane = pair.signed_plane(9, 5);
        assert_eq!(plane.len(), 4 * 5);
        for row in 0..4 {
            for col in 0..5 {
                let w = pair.signed_weight(row, col).unwrap();
                assert_eq!(i32::from(plane[row * 5 + col]), w);
            }
        }
        assert!(plane.contains(&255) && plane.contains(&-255));
    }

    #[test]
    fn mat_has_prime_dimensions() {
        let xbar = Crossbar::mat();
        assert_eq!((xbar.rows(), xbar.cols()), (256, 256));
        assert_eq!(xbar.spec().bits(), 4);
    }
}
