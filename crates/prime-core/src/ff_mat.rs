//! The full-function (FF) mat: one positive/negative crossbar pair with
//! its modified peripheral circuits, morphable between memory and NN
//! computation (paper §III-A).
//!
//! In computation mode the mat stores composed 8-bit signed weights (two
//! adjacent 4-bit cells per magnitude, sign in the positive/negative
//! array split) and evaluates composed 6-bit inputs through the
//! input-and-synapse composing scheme. In memory mode both crossbars of
//! the pair store plain bits (512 rows x 256 bits = 16 KiB per mat).
//!
//! A programmed tile also keeps one signed plane: the composed `p - n`
//! level of every cell pair of its programmed region, row-major. A
//! digital evaluation sweeps that plane once per input window, with one
//! `i32` accumulator per bitline for each input half, and composes the
//! four part sums in straight-line code; the analog evaluation keeps the
//! two arrays' levels and conductances and drives its two passes.

use std::sync::{Arc, OnceLock};

use serde::{DeError, Deserialize, Serialize, Value};

use prime_circuits::{ComposingScheme, Part, ReluUnit, SigmoidUnit, WordlineDriver};
use prime_device::{MlcSpec, NoiseModel, PairScratch, PairedCrossbar, MAT_DIM};
use prime_mem::MatFunction;

use crate::error::PrimeError;

/// The widest sum one `i32` bitline accumulator of the digital sweep
/// takes: `MAT_DIM` rows of 8-bit input halves against 8-bit cell pairs
/// (`|p - n| <= 255`), the limits `ComposingScheme` (`pin, pw <= 16`) and
/// `MlcSpec` (at most 8 bits) admit.
const _: () = assert!((MAT_DIM as i64) * 255 * 255 <= i32::MAX as i64);

/// Reusable buffers for [`FfMat::compute_into`],
/// [`FfMat::compute_analog_into`] and
/// [`BankController::compute_windows_into`](crate::BankController::compute_windows_into).
///
/// Holds the split input halves, the digital sweep's per-bitline sums,
/// the analog driver passes' bitline sums, and the paired-crossbar
/// scratch. Following the `prime-device` scratch-buffer contract,
/// buffers only grow: after the first compute at a given geometry,
/// repeated calls perform zero heap allocation. One scratch may be
/// shared across mats (buffers are cleared per call).
#[derive(Debug, Default, Clone)]
pub struct MatScratch {
    hi: Vec<u16>,
    lo: Vec<u16>,
    by_hi: Vec<i32>,
    by_lo: Vec<i32>,
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

/// One written tile: the crossbar pair, plus the signed plane digital
/// evaluation sweeps.
#[derive(Debug)]
struct Tile {
    pair: PairedCrossbar,
    /// The pair's composed `p - n` levels over the programmed region
    /// (`weight_rows x 2 * weight_cols`), row-major
    /// ([`PairedCrossbar::signed_plane`]). Derived on the first digital
    /// read and shared by every placement aliasing the tile; every write
    /// to the pair goes through [`FfMat::pair_mut`], which clears it.
    plane: OnceLock<Vec<i16>>,
}

impl Tile {
    fn new(pair: PairedCrossbar) -> Self {
        Tile { pair, plane: OnceLock::new() }
    }

    /// The signed plane of the `rows x span` programmed region.
    fn plane(&self, rows: usize, span: usize) -> &[i16] {
        self.plane.get_or_init(|| self.pair.signed_plane(rows, span))
    }

    fn state_bytes(&self) -> usize {
        let plane = self.plane.get().map_or(0, Vec::len);
        self.pair.state_bytes() + plane * core::mem::size_of::<i16>()
    }
}

/// A tile is copied only to be written (copy-on-write), and the write
/// clears the plane, so the copy starts without one.
impl Clone for Tile {
    fn clone(&self) -> Self {
        Tile::new(self.pair.clone())
    }
}

/// Backing storage of a mat's tile.
///
/// Bank state scales with the weights actually resident: a vacant mat
/// (`None`) carries no pair at all and reads as all-zero; a written mat
/// holds a refcounted tile. Cloning the store clones the handle, so one
/// tile's `Arc` — pair and plane — is aliased by every placement
/// deployed from it, and any write to an alias copies first
/// (`Arc::make_mut`). `Arc` rather than `Rc` because banks cross thread
/// scopes during parallel inference.
#[derive(Debug, Clone)]
struct PairStore(Option<Arc<Tile>>);

impl PairStore {
    fn pair(&self) -> Option<&PairedCrossbar> {
        self.0.as_deref().map(|tile| &tile.pair)
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
/// serialize as a plain snapshot of the pair and deserialize unshared
/// (aliasing is a deploy-time decision, re-established by the next
/// deploy, not a persistent property of the state). The plane is derived
/// state: a deserialized tile derives it again on its first digital read.
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
                .map(|pair| PairStore(Some(Arc::new(Tile::new(pair))))),
        }
    }
}

/// The precision-control accumulation (Eq. 9) at one SA shift, in
/// straight-line form: an included part's contribution to
/// `full >> shift` is `(value << left) >> right` (one of the two shifts
/// is zero), and an excluded part is masked out.
#[derive(Debug, Clone, Copy)]
struct Compose {
    /// Per part, in [`Part::ALL`] order.
    left: [u32; 4],
    right: [u32; 4],
    keep: [i64; 4],
    /// Signed output-register range at Po bits (plus sign from the
    /// subtraction unit).
    sat: i64,
}

impl Compose {
    fn new(scheme: &ComposingScheme, shift: u8) -> Self {
        let mut compose = Compose {
            left: [0; 4],
            right: [0; 4],
            keep: [0; 4],
            sat: scheme.output_code_max(),
        };
        for (k, part) in Part::ALL.into_iter().enumerate() {
            let scale = scheme.part_scale(part);
            compose.left[k] = u32::from(scale.saturating_sub(shift));
            compose.right[k] = u32::from(shift.saturating_sub(scale));
            compose.keep[k] = if scheme.kept_bits(part) > 0 { -1 } else { 0 };
        }
        compose
    }

    /// Appends every weight column's composed, saturated output. Bitline
    /// `2c` holds column `c`'s HIGH weight half and `2c + 1` its LOW
    /// half; `by_hi` are the bitline sums of the HIGH input halves,
    /// `by_lo` those of the LOW ones.
    fn append<T: Copy + Into<i64>>(&self, by_hi: &[T], by_lo: &[T], out: &mut Vec<i64>) {
        for (h, l) in by_hi.chunks_exact(2).zip(by_lo.chunks_exact(2)) {
            let parts: [i64; 4] = [h[0].into(), l[0].into(), h[1].into(), l[1].into()];
            let acc = (parts[0] << self.left[0] >> self.right[0] & self.keep[0])
                + (parts[1] << self.left[1] >> self.right[1] & self.keep[1])
                + (parts[2] << self.left[2] >> self.right[2] & self.keep[2])
                + (parts[3] << self.left[3] >> self.right[3] & self.keep[3]);
            out.push(acc.clamp(-self.sat, self.sat));
        }
    }
}

/// One sweep of a signed plane (`span` bitlines per row) for both input
/// halves at once: row `r` adds `hi[r] * w` to `by_hi` and `lo[r] * w` to
/// `by_lo` on every bitline. The hardware's two driver passes, each
/// sensing the positive and the negative array, in one pass over one
/// array of `i16` levels; the sums fit `i32` (see the bound above).
fn sweep_into(
    plane: &[i16],
    span: usize,
    (hi, lo): (&[u16], &[u16]),
    by_hi: &mut Vec<i32>,
    by_lo: &mut Vec<i32>,
) {
    by_hi.clear();
    by_hi.resize(span, 0);
    by_lo.clear();
    by_lo.resize(span, 0);
    if span == 0 {
        return;
    }
    for ((row, &h), &l) in plane.chunks_exact(span).zip(hi).zip(lo) {
        if h == 0 && l == 0 {
            continue;
        }
        let (h, l) = (i32::from(h), i32::from(l));
        for ((sh, sl), &w) in by_hi.iter_mut().zip(by_lo.iter_mut()).zip(row) {
            let w = i32::from(w);
            *sh += h * w;
            *sl += l * w;
        }
    }
}

/// The width of each of `windows` windows `stride` words apart in a
/// latched block of `len` words: what is left after `windows - 1`
/// strides.
fn window_width(len: usize, windows: usize, stride: usize) -> Result<usize, PrimeError> {
    windows
        .checked_sub(1)
        .and_then(|gaps| gaps.checked_mul(stride))
        .and_then(|skipped| len.checked_sub(skipped))
        .ok_or_else(|| PrimeError::MappingMismatch {
            reason: format!("{len} latched words cannot hold {windows} window(s) {stride} apart"),
        })
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
    /// (aliases must never observe another placement's mutation). The
    /// write may change levels, so the tile's signed plane is cleared;
    /// the next digital read derives it again.
    fn pair_mut(&mut self) -> &mut PairedCrossbar {
        let spec = self.spec_for(self.function);
        let fresh = || Arc::new(Tile::new(PairedCrossbar::new(MAT_DIM, MAT_DIM, spec)));
        let tile = Arc::make_mut(self.pair.0.get_or_insert_with(fresh));
        tile.plane = OnceLock::new();
        &mut tile.pair
    }

    /// The crossbar pair this mat aliases, if other placements currently
    /// reference the same physical tile. Every alias returns the same
    /// pair, so its address identifies the tile.
    pub fn shared_tile(&self) -> Option<&PairedCrossbar> {
        self.pair.0.as_ref().filter(|arc| Arc::strong_count(arc) > 1).map(|tile| &tile.pair)
    }

    /// Resident bytes of this mat's tile: the pair's cell levels (and
    /// any materialized conductances) plus the signed plane once derived.
    /// Aliased tiles report their full size — callers accounting a whole
    /// memory dedup aliases via [`shared_tile`](Self::shared_tile)
    /// identity.
    pub fn tile_state_bytes(&self) -> usize {
        self.pair.0.as_deref().map_or(0, Tile::state_bytes)
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
        if let Some(tile) = &self.pair.0 {
            let same_spec =
                tile.pair.positive().spec() == spec && tile.pair.negative().spec() == spec;
            if Arc::strong_count(tile) == 1 || !same_spec {
                let pair = self.pair_mut();
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
    /// The two driver passes evaluate in one sweep of the tile's signed
    /// plane (the composed `p - n` level of every cell pair): each row
    /// adds its HIGH input half times the level to one `i32` sum per
    /// bitline and its LOW half to another, giving exactly the four part
    /// sums the two passes sense, so the composed outputs are
    /// bit-identical to evaluating the passes array by array. Only the
    /// programmed row prefix and the bitline pairs of the programmed
    /// weight columns are swept.
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
        self.check_compute(inputs.len())?;
        self.split_checked(inputs, scratch)?;
        out.clear();
        let compose = Compose::new(&self.scheme, self.output_shift);
        self.evaluate::<rand::rngs::SmallRng>(None, &compose, scratch, out)
    }

    /// Evaluates the block a mat's latch holds as `windows` input windows
    /// `stride` words apart, in order, leaving window `p`'s
    /// post-output-unit results in `out[p * cols..(p + 1) * cols]` (`out`
    /// is cleared first). A window is as wide as the block left after
    /// `windows - 1` strides, so a single window is the whole block. Each
    /// window's words are clamped to the scheme's input-code range and
    /// split into their halves once, then evaluated digitally as
    /// [`compute_into`](Self::compute_into) does, or, given
    /// `read_noise`, through the analog domain as
    /// [`compute_analog_into`](Self::compute_analog_into) does, drawing
    /// in window order.
    ///
    /// # Errors
    ///
    /// Returns [`PrimeError::MappingMismatch`] if the block cannot hold
    /// `windows` windows `stride` apart or a window is not as wide as the
    /// programmed rows, [`PrimeError::WrongMode`] unless in `Compute`
    /// mode, or device errors.
    pub(crate) fn compute_windows_into<R: rand::Rng + ?Sized>(
        &mut self,
        block: &[i64],
        (windows, stride): (usize, usize),
        mut read_noise: Option<(&NoiseModel, &mut R)>,
        scratch: &mut MatScratch,
        out: &mut Vec<i64>,
    ) -> Result<(), PrimeError> {
        let width = window_width(block.len(), windows, stride)?;
        self.check_compute(width)?;
        out.clear();
        let compose = Compose::new(&self.scheme, self.output_shift);
        let max_code = i64::from(self.scheme.input_code_max());
        for window in (0..windows).map(|p| &block[p * stride..p * stride + width]) {
            self.split(window.iter().map(|&v| v.clamp(0, max_code)), scratch);
            let noise = read_noise.as_mut().map(|(noise, rng)| (*noise, &mut **rng));
            self.evaluate(noise, &compose, scratch, out)?;
        }
        for v in out.iter_mut() {
            *v = self.output_unit(*v);
        }
        Ok(())
    }

    fn check_compute(&self, rows: usize) -> Result<(), PrimeError> {
        if self.function != MatFunction::Compute {
            return Err(PrimeError::WrongMode {
                expected: "compute",
                found: function_name(self.function),
            });
        }
        if rows != self.weight_rows {
            return Err(PrimeError::MappingMismatch {
                reason: format!("{rows} inputs for {} programmed rows", self.weight_rows),
            });
        }
        Ok(())
    }

    /// Splits composed input codes, each already within the scheme's
    /// input-code range, into their HIGH and LOW halves.
    fn split(&self, codes: impl Iterator<Item = i64>, scratch: &mut MatScratch) {
        let half = self.scheme.input_half_bits();
        let mask = (1i64 << half) - 1;
        scratch.hi.clear();
        scratch.lo.clear();
        for code in codes {
            // Both halves are below 2^half <= 2^8.
            scratch.hi.push(u16::try_from(code >> half).unwrap_or(u16::MAX));
            scratch.lo.push(u16::try_from(code & mask).unwrap_or(u16::MAX));
        }
    }

    /// [`split`](Self::split), rejecting a code past the input-code range.
    fn split_checked(&self, inputs: &[u16], scratch: &mut MatScratch) -> Result<(), PrimeError> {
        let max = self.scheme.input_code_max();
        if let Some(&code) = inputs.iter().find(|&&code| code > max) {
            return Err(PrimeError::Circuit(prime_circuits::CircuitError::CodeOutOfRange {
                code: u32::from(code),
                codes: u32::from(max) + 1,
            }));
        }
        self.split(inputs.iter().map(|&code| i64::from(code)), scratch);
        Ok(())
    }

    /// Evaluates the one window whose input halves `scratch` holds and
    /// appends each programmed column's composed result to `out`:
    /// digitally in one sweep of the tile's signed plane, or, given
    /// `read_noise`, through the analog domain's two driver passes. A
    /// vacant mat has no programmed rows and appends nothing.
    fn evaluate<R: rand::Rng + ?Sized>(
        &mut self,
        read_noise: Option<(&NoiseModel, &mut R)>,
        compose: &Compose,
        scratch: &mut MatScratch,
        out: &mut Vec<i64>,
    ) -> Result<(), PrimeError> {
        let Some(tile) = self.pair.0.as_deref() else {
            return Ok(());
        };
        // The composing scheme only reads bitline pairs (2c, 2c+1) for
        // the programmed weight columns; the SA mux skips the
        // unprogrammed rest. Likewise only the programmed row prefix is
        // driven — wordlines past it stay grounded and contribute nothing.
        let (rows, span) = (self.weight_rows, 2 * self.weight_cols);
        let MatScratch { hi, lo, by_hi, by_lo, pass_hi, pass_lo, pair } = scratch;
        match read_noise {
            None => {
                let plane = tile.plane(rows, span);
                sweep_into(plane, span, (hi.as_slice(), lo.as_slice()), by_hi, by_lo);
                compose.append(by_hi.as_slice(), by_lo.as_slice(), out);
            }
            // Only the sensed bitline pairs draw read-noise samples; see
            // DESIGN.md §11 (RNG order).
            Some((noise, rng)) => {
                let bits = self.scheme.input_half_bits();
                for (half, pass) in [(&*hi, &mut *pass_hi), (&*lo, &mut *pass_lo)] {
                    self.driver.latch_prefix(half)?;
                    tile.pair.dot_signed_analog_span_into(
                        &self.driver.driven_codes()[..rows],
                        bits,
                        span,
                        noise,
                        rng,
                        pair,
                        pass,
                    )?;
                }
                compose.append(pass_hi.as_slice(), pass_lo.as_slice(), out);
            }
        }
        Ok(())
    }

    /// The largest full-precision bitline magnitude
    /// `|sum_r inputs[r] * w[r][c]|` over the programmed weight columns,
    /// `w` the composed signed weights as programmed and `inputs` one
    /// (unclamped) word per programmed row: what
    /// [`calibrate_output_window`](Self::calibrate_output_window) sizes
    /// the SA window from. Read from the tile's signed plane in one
    /// unit-stride sweep; `sums` is scratch. A vacant mat reads 0.
    pub(crate) fn full_precision_peak(&self, inputs: &[i64], sums: &mut Vec<i64>) -> i64 {
        let Some(tile) = self.pair.0.as_deref() else {
            return 0;
        };
        let span = 2 * self.weight_cols;
        sums.clear();
        sums.resize(span, 0);
        if span == 0 {
            return 0;
        }
        for (row, &x) in tile.plane(self.weight_rows, span).chunks_exact(span).zip(inputs) {
            for (sum, &w) in sums.iter_mut().zip(row) {
                *sum += x * i64::from(w);
            }
        }
        // Bitline 2c holds column c's HIGH weight half, 2c + 1 its LOW.
        let half = self.scheme.weight_half_bits();
        sums.chunks_exact(2).map(|s| ((s[0] << half) + s[1]).abs()).max().unwrap_or(0)
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
        self.check_compute(inputs.len())?;
        self.split_checked(inputs, scratch)?;
        out.clear();
        let compose = Compose::new(&self.scheme, self.output_shift);
        self.evaluate(Some((noise, rng)), &compose, scratch, out)
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
    use prime_circuits::{part_sums, PartSums};

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

    /// What digital compute must return, built from the mat's own cell
    /// levels without its plane: part sums of the input halves against
    /// each pair's `p - n`, composed part by part at the mat's SA shift
    /// and saturated to the output range.
    fn reference_from_levels(mat: &FfMat, inputs: &[u16]) -> Vec<i64> {
        let pair = mat.pair.pair().expect("a written mat");
        let scheme = mat.scheme();
        let half = scheme.input_half_bits();
        let (rows, cols) = mat.weight_shape();
        let sat = scheme.output_code_max();
        (0..cols)
            .map(|c| {
                let mut parts = PartSums::default();
                for (r, &code) in inputs.iter().enumerate().take(rows) {
                    let (h, l) = (i64::from(code >> half), i64::from(code & ((1 << half) - 1)));
                    let hi_w = i64::from(pair.signed_weight(r, 2 * c).unwrap());
                    let lo_w = i64::from(pair.signed_weight(r, 2 * c + 1).unwrap());
                    parts.hh += h * hi_w;
                    parts.hl += l * hi_w;
                    parts.lh += h * lo_w;
                    parts.ll += l * lo_w;
                }
                let shift = mat.output_shift();
                let composed: i64 = scheme
                    .included_parts()
                    .into_iter()
                    .map(|part| {
                        let value = match part {
                            Part::Hh => parts.hh,
                            Part::Hl => parts.hl,
                            Part::Lh => parts.lh,
                            Part::Ll => parts.ll,
                        };
                        let scale = scheme.part_scale(part);
                        if shift >= scale {
                            value >> (shift - scale)
                        } else {
                            value << (scale - shift)
                        }
                    })
                    .sum();
                composed.clamp(-sat, sat)
            })
            .collect()
    }

    /// The plane a mat's tile currently holds, if derived.
    fn plane_of(mat: &FfMat) -> Option<&Vec<i16>> {
        mat.pair.0.as_deref().and_then(|tile| tile.plane.get())
    }

    /// Digital compute sweeps a plane derived from the levels: after
    /// every write that changes (or may change) the levels, the next
    /// compute equals the reference built from the levels themselves.
    #[test]
    fn digital_compute_follows_the_levels_through_every_state_change() {
        use prime_device::NoiseModel;
        use rand::SeedableRng;
        let (rows, cols) = (40, 6);
        let weights: Vec<i32> = (0..rows * cols)
            .map(|i| ((i * 41) % 511) as i32 - 255)
            .collect();
        let inputs: Vec<u16> = (0..rows).map(|i| ((i * 13) % 64) as u16).collect();
        let check = |mat: &mut FfMat, step: &str| {
            let expected = reference_from_levels(mat, &inputs);
            assert_eq!(mat.compute(&inputs).unwrap(), expected, "after {step}");
        };

        // Program: the first compute derives the plane, which the tile's
        // state bytes then include.
        let mut mat = programmed_mat(&weights, rows, cols);
        let pair_bytes = mat.tile_state_bytes();
        assert!(plane_of(&mat).is_none());
        check(&mut mat, "program");
        assert_eq!(plane_of(&mat).map(Vec::len), Some(rows * 2 * cols));
        assert_eq!(mat.tile_state_bytes(), pair_bytes + rows * 2 * cols * 2);

        // Programming noise moves conductances, not levels.
        let mut rng = rand::rngs::SmallRng::seed_from_u64(9);
        mat.apply_program_noise(&NoiseModel::crossbar_default(), &mut rng);
        check(&mut mat, "program noise");

        // A clone aliases the tile, plane included: one plane, one pair.
        let mut alias = mat.clone();
        check(&mut alias, "clone");
        let (a, b) = (plane_of(&mat).unwrap(), plane_of(&alias).unwrap());
        assert!(std::ptr::eq(a, b), "an alias derived a second plane");
        assert!(std::ptr::eq(mat.shared_tile().unwrap(), alias.shared_tile().unwrap()));

        // A morph to memory splits the alias; the source keeps its plane.
        alias.set_function(MatFunction::Memory);
        assert!(mat.shared_tile().is_none() && plane_of(&alias).is_none());
        check(&mut mat, "the alias's morph to memory");

        // A memory-row write, then the morph back: the SLC-clamped levels
        // and the written row are what compute now reads.
        alias.write_memory_row(3, &[true; 256]).unwrap();
        alias.write_memory_row(256 + 5, &[true; 256]).unwrap();
        alias.set_function(MatFunction::Compute);
        check(&mut alias, "memory write and morph back");
        assert_ne!(alias.compute(&inputs).unwrap(), mat.compute(&inputs).unwrap());

        // Reprogramming replaces the plane.
        alias.set_function(MatFunction::Program);
        let reversed: Vec<i32> = weights.iter().rev().copied().collect();
        alias.program_composed(&reversed, rows, cols).unwrap();
        alias.set_function(MatFunction::Compute);
        check(&mut alias, "reprogram");

        // A deserialized mat derives its plane again on first compute.
        let mut restored = FfMat::from_value(&alias.to_value()).unwrap();
        assert_eq!(restored, alias);
        assert!(plane_of(&restored).is_none());
        check(&mut restored, "serde round trip");
        assert_eq!(restored.compute(&inputs).unwrap(), alias.compute(&inputs).unwrap());
    }

    /// One window-loop call equals one `compute_into` per window, with
    /// the output units applied, and the words clamped to the input
    /// range first.
    #[test]
    fn window_loop_matches_per_window_compute() {
        let (rows, cols) = (9, 3);
        let weights: Vec<i32> = (0..rows * cols)
            .map(|i| ((i * 67) % 511) as i32 - 255)
            .collect();
        let mut mat = programmed_mat(&weights, rows, cols);
        mat.set_datapath(MatDatapath { bypass_sigmoid: true, bypass_sa: false, relu: true });
        // Four windows 5 words apart, with words past both ends of the
        // input range.
        let block: Vec<i64> = (0..24).map(|i| (i * 37 % 90) - 10).collect();
        let mut out = Vec::new();
        mat.compute_windows_into::<rand::rngs::SmallRng>(
            &block,
            (4, 5),
            None,
            &mut MatScratch::new(),
            &mut out,
        )
        .unwrap();
        let mut expected = Vec::new();
        for p in 0..4 {
            let codes: Vec<u16> =
                block[p * 5..p * 5 + rows].iter().map(|&v| v.clamp(0, 63) as u16).collect();
            let raw = mat.compute(&codes).unwrap();
            expected.extend(mat.apply_output_units(&raw));
        }
        assert_eq!(out, expected);
        assert!(matches!(
            mat.compute_windows_into::<rand::rngs::SmallRng>(
                &block,
                (6, 5),
                None,
                &mut MatScratch::new(),
                &mut out,
            ),
            Err(PrimeError::MappingMismatch { .. })
        ));
    }

    /// The calibration peak read from the plane is the exact largest
    /// `|sum_r x[r] * w[r][c]|` over the composed weights, for signed,
    /// unclamped inputs too.
    #[test]
    fn full_precision_peak_is_the_exact_largest_column_sum() {
        let (rows, cols) = (30, 7);
        let weights: Vec<i32> = (0..rows * cols)
            .map(|i| ((i * 97) % 511) as i32 - 255)
            .collect();
        let mat = programmed_mat(&weights, rows, cols);
        let mut sums = Vec::new();
        for seed in 0..4i64 {
            let inputs: Vec<i64> =
                (0..rows as i64).map(|r| (r * 31 + seed * 17) % 151 - 60).collect();
            let exact = (0..cols)
                .map(|c| {
                    let sum: i64 =
                        (0..rows).map(|r| inputs[r] * i64::from(weights[r * cols + c])).sum();
                    sum.abs()
                })
                .max()
                .unwrap();
            assert_eq!(mat.full_precision_peak(&inputs, &mut sums), exact, "inputs {seed}");
        }
        assert_eq!(FfMat::new().full_precision_peak(&[], &mut sums), 0);
    }
}
