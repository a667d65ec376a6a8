//! Command-driven network execution through the bank controller — the
//! one execution engine every functional path runs on.
//!
//! A network is compiled into an integer plan (per-layer quantized
//! weights, SA windows, and buffer addresses), programmed into a
//! [`BankController`]'s mats, and then
//! every inference is driven purely by Table I commands — `load` staging
//! inputs from the Buffer subarray into mat latches, then mat
//! computation — with row-tile merging on the precision-control adder
//! and integer requantization between layers, exactly the dataflow of
//! paper Fig. 5(a). Requantized codes go back to the Buffer subarray as
//! the next layer's staged input; the final layer's merged sums are
//! rescaled to real outputs.
//!
//! Three layer kinds execute on the device:
//!
//! * **Fully-connected** — one crossbar evaluation per inference, the
//!   original FC datapath.
//! * **Convolution** — the kernel matrix (`in_ch * k * k` rows, one
//!   composed column pair per output map) is programmed once; output
//!   pixels gather their im2col windows into chunks staged through the
//!   FF buffer and run one crossbar evaluation each, zero padding
//!   entering as code 0 on the unsigned input drivers.
//! * **Pooling** — no mats: max pooling reduces the staged window with
//!   repeated 4:1 winner-code steps on the [`MaxPoolUnit`] (Fig. 4 C),
//!   and mean pooling is the 1/n-weight dot product of the column-mux
//!   units, `level * sum(codes)` with the quantized reciprocal level.
//!
//! One layer step evaluates every layer, at inference and at deploy
//! time alike: calibration runs it on the representative input to fix
//! each layer's requantization shift (§III-D dynamic fixed point), so a
//! layer is calibrated on exactly the sums it later produces.
//!
//! Activations run on PRIME's output units after the row-tile merge, so
//! split partial sums are never activated separately: the sign-bit ReLU
//! unit, or the column-mux sigmoid unit (Fig. 4 B), whose
//! `input_bits`-bit code output feeds the next layer's drivers directly.
//! Identity layers bypass both.
//!
//! Large-scale networks (paper §IV-B) do not fit one bank: the compiler's
//! [`Mapping::pipeline`](prime_compiler::NetworkMapping) splits them into
//! stages, each assigned to a bank. [`CommandRunner::compile_pipeline`]
//! does not derive the plan itself: [`prime_analyze::lower_layout`], the
//! lowering the static Pass-3 audit checks, maps the network onto that
//! stage list and gives each layer its op, widths, buffer addresses and
//! tiles; the runner places those tiles on the stage's bank, programs
//! and calibrates them, and keeps the lowered layers as its plan. The
//! stage-level execution API ([`quantize_input`](CommandRunner::quantize_input),
//! [`run_stage`](CommandRunner::run_stage),
//! [`stage_transfer_out`](CommandRunner::stage_transfer_out) and
//! [`stage_transfer_in`](CommandRunner::stage_transfer_in)) lets
//! [`PrimeSystem`](crate::PrimeSystem) move activation vectors between
//! banks at stage boundaries and overlap stages across a batch. FC stage
//! boundaries are buffer-resident; conv/pool feature maps stay
//! Mem-resident and stream through the boundary staging regions in bursts
//! of at most [`WINDOW_IO_CHUNK_WORDS`](prime_analyze::WINDOW_IO_CHUNK_WORDS)
//! words, so wide feature maps never require full-width buffer
//! residency.
//!
//! Read noise is bank state, not an argument: every entry point evaluates
//! its tiles the way the bank says. A bank given read noise with
//! [`BankController::set_read_noise`] routes every tile through the
//! analog voltage/conductance domain and draws from its own seeded
//! stream; otherwise tiles evaluate digitally and exactly.

use prime_analyze::{ProgramLayer, ProgramOp, ProgramPlan, ProgramTile};
use prime_circuits::{ComposingScheme, MaxPoolUnit, PrecisionController, SigmoidUnit};
use prime_compiler::{tile_spans, PipelineStage};
use prime_mem::{BufAddr, Command, FfAddr, MatAddr, MatFunction};
use prime_nn::{Activation, Layer, Network};

use crate::controller::BankController;
use crate::ff_mat::MatScratch;
use crate::error::PrimeError;

/// Reusable buffers for [`CommandRunner::infer_into`].
///
/// Bundles everything one inference needs — staged layer codes, the
/// per-output precision-control registers of the tile merge, and the
/// bank-level compute scratch. Buffers only grow, so after the first
/// inference a reused scratch makes the whole forward pass perform zero
/// steady-state heap allocation. One scratch belongs with one bank
/// (thread-per-bank execution keeps them paired).
#[derive(Debug, Default, Clone)]
pub struct InferScratch {
    /// Current layer's input codes.
    codes: Vec<i64>,
    /// Precision-control registers of the merge adder, one per output
    /// of every pixel in the current window chunk (pixel-major).
    acc: Vec<PrecisionController>,
    /// Full-precision merged sums of the current layer, in output order.
    merged: Vec<i64>,
    /// One tile's post-output-unit results for every window of the
    /// current chunk, window-major.
    tile_out: Vec<i64>,
    /// Staged codes of one window chunk (pixel-major im2col windows) or
    /// pooling window.
    window: Vec<i64>,
    /// Mirror of a resident conv layer's buffer row ring (the gather
    /// logic's addressable copy of the staged input rows).
    ring: Vec<i64>,
    /// One staged input row slot read back from the buffer.
    row_slot: Vec<i64>,
    /// Mat-level compute buffers, shared by every mat of the bank.
    bank: MatScratch,
}

impl InferScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        InferScratch::default()
    }
}

/// Wall-clock breakdown of one inference's conv layers, in nanoseconds,
/// accumulated over every conv layer executed. Filled by
/// [`CommandRunner::infer_profiled_into`]; the stopwatches sit outside
/// the datapath, so outputs stay bit-identical to the unprofiled paths.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct ConvPhases {
    /// Staging input rows (resident) and window chunks into the FF
    /// buffer.
    pub stage_ns: f64,
    /// Gathering im2col windows from the staged rows / activation.
    pub gather_ns: f64,
    /// Mat evaluation: latch loads, crossbar passes, merge accumulate.
    pub eval_ns: f64,
    /// Placing merged sums in output order, then requantizing them (or
    /// rescaling the network's final layer).
    pub emit_ns: f64,
}

impl ConvPhases {
    /// Total nanoseconds across the four phases.
    pub fn total_ns(&self) -> f64 {
        self.stage_ns + self.gather_ns + self.eval_ns + self.emit_ns
    }
}

/// Starts a phase stopwatch only when profiling is enabled.
#[inline]
fn phase_mark(enabled: bool) -> Option<std::time::Instant> {
    enabled.then(std::time::Instant::now)
}

/// Credits an elapsed phase stopwatch to one [`ConvPhases`] field.
#[inline]
fn phase_add(
    sink: &mut Option<&mut ConvPhases>,
    started: Option<std::time::Instant>,
    field: impl FnOnce(&mut ConvPhases) -> &mut f64,
) {
    if let (Some(t), Some(ph)) = (started, sink.as_deref_mut()) {
        *field(ph) += t.elapsed().as_secs_f64() * 1e9;
    }
}

/// One mat-sized tile of a planned layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PlannedTile {
    mat: MatAddr,
    /// Row span [start, end) within the layer's input window.
    rows: (usize, usize),
    /// Column span [start, end) within the layer's output features.
    cols: (usize, usize),
    /// The tile's SA shift (read back after programming).
    shift: u8,
}

/// The output unit a planned layer routes its merged sums through.
#[derive(Debug, Clone, Copy, PartialEq)]
enum PlannedActivation {
    /// Both units bypassed.
    Identity,
    /// The sign-bit ReLU unit (Fig. 4 C).
    Relu,
    /// The column-mux sigmoid unit (§III-A1, Fig. 4 B), scaled so one
    /// merged unit is the layer's real pre-activation unit. It emits a
    /// code in `[0, code_max]` directly, so the layer's requantization
    /// shift is 0.
    Sigmoid(SigmoidUnit),
}

impl PlannedActivation {
    /// Applies the output unit to one merged sum (before requantization).
    #[inline]
    fn apply(self, v: i64) -> i64 {
        match self {
            PlannedActivation::Identity => v,
            PlannedActivation::Relu => v.max(0),
            PlannedActivation::Sigmoid(unit) => unit.apply(v) as i64,
        }
    }
}

/// The execution state of one lowered layer: what the runner keeps
/// beyond the [`ProgramLayer`] that says what the layer computes and
/// where it stages.
#[derive(Debug, Clone, PartialEq)]
struct PlannedLayer {
    tiles: Vec<PlannedTile>,
    /// Bias in merged full-precision units.
    bias_units: Vec<i64>,
    activation: PlannedActivation,
}

/// A compiled, programmed, command-driven network.
///
/// # Examples
///
/// ```no_run
/// use prime_core::{BankController, CommandRunner};
/// use prime_nn::{Activation, FullyConnected, Layer, Network};
///
/// let net = Network::new(vec![
///     Layer::Fc(FullyConnected::new(16, 8, Activation::Relu)),
///     Layer::Fc(FullyConnected::new(8, 4, Activation::Identity)),
/// ])?;
/// let mut controller = BankController::new(2, 64, 4096, 8192);
/// let runner = CommandRunner::compile(&net, &mut controller, &[0.5; 16])?;
/// let out = runner.infer(&mut controller, &[0.5; 16])?;
/// assert_eq!(out.len(), 4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CommandRunner {
    /// The lowered program the runner executes
    /// ([`prime_analyze::lower_layout`]): each layer's op, widths and
    /// buffer addresses, and the stage placement (a stage's `bank`
    /// indexes the bank slice handed to
    /// [`compile_pipeline`](Self::compile_pipeline)), with the
    /// requantization shifts, ReLU flags and bias peaks calibration fixed.
    program: ProgramPlan,
    /// Execution state of each lowered layer, in the same order.
    layers: Vec<PlannedLayer>,
    /// Scale of the network-input quantization (codes = value / scale).
    input_scale: f32,
    /// Combined output scale: real value = merged units * this.
    output_scale: f32,
    mats_used: usize,
    /// The composing scheme of the mats the plan was compiled for — the
    /// single source of truth for input/output code bounds.
    scheme: ComposingScheme,
}

impl CommandRunner {
    /// Compiles `net` (FC/conv/pool layers with identity, ReLU or
    /// sigmoid activations) onto the controller's FF mats: quantizes
    /// weights, programs tiles, and calibrates every SA window and
    /// requantization shift with the representative `calibration_input`.
    ///
    /// The whole network is placed as one stage on this bank; use
    /// [`compile_pipeline`](Self::compile_pipeline) for networks that
    /// span banks.
    ///
    /// # Errors
    ///
    /// Returns [`PrimeError::MappingMismatch`] for a wrong-sized
    /// calibration input or if the controller has too few mats, and
    /// buffer errors if the buffer cannot stage a layer.
    pub fn compile(
        net: &Network,
        controller: &mut BankController,
        calibration_input: &[f32],
    ) -> Result<Self, PrimeError> {
        Self::compile_pipeline(net, std::slice::from_mut(controller), &[], calibration_input)
    }

    /// The runtime gate on a caller-supplied [`PipelineStage`] list: the
    /// shared [`prime_analyze::check_pipeline`] pass (banks strictly
    /// increasing and in range, contiguous layer coverage, no empty
    /// stage), the same rules the static deployment verifier applies, so
    /// the runtime and the verifier can never drift apart. An empty
    /// `pipeline` means one stage holding every layer on bank 0.
    fn check_stages(
        pipeline: &[PipelineStage],
        n_layers: usize,
        n_banks: usize,
    ) -> Result<(), PrimeError> {
        if pipeline.is_empty() {
            return Ok(());
        }
        let diags = prime_analyze::check_pipeline(pipeline, n_layers, n_banks, None);
        match diags.iter().find(|d| d.severity == prime_analyze::Severity::Error) {
            Some(err) => Err(PrimeError::MappingMismatch { reason: err.to_string() }),
            None => Ok(()),
        }
    }

    /// Compiles `net` across `banks` following the compiler's
    /// `Mapping::pipeline` stage list (paper §IV-B large-scale mapping).
    /// The layout comes from [`prime_analyze::lower_layout`], the one
    /// lowering the static Pass-3 audit also runs: each layer's op and
    /// widths, its buffer addresses (restarting at every stage), its
    /// stage span and its tile count. This compiles that plan: it
    /// quantizes each weight layer, programs its tiles on the stage's
    /// bank (mats allocated in order, restarting at every bank) and
    /// calibrates. An empty `pipeline` places the whole network on
    /// `banks[0]` (the small/medium-scale case).
    ///
    /// Calibration runs the inference layer step on the calibration
    /// activation, layer by layer: each layer's requantization shift
    /// comes from the peak of its merged sums, and its requantized codes
    /// are the next layer's calibration activation.
    ///
    /// Placement does not change arithmetic: a pipelined plan produces
    /// bit-identical outputs to the same network compiled onto one
    /// sufficiently large bank.
    ///
    /// # Errors
    ///
    /// Returns [`PrimeError::MappingMismatch`] for a wrong-sized
    /// calibration input, a malformed stage list (refused before any
    /// bank state changes), a layer with no in-memory lowering, or a
    /// stage needing more FF mats than its bank provides, and buffer
    /// errors if a bank's buffer cannot stage a layer.
    pub fn compile_pipeline(
        net: &Network,
        banks: &mut [BankController],
        pipeline: &[PipelineStage],
        calibration_input: &[f32],
    ) -> Result<Self, PrimeError> {
        if banks.is_empty() {
            return Err(PrimeError::MappingMismatch {
                reason: "cannot compile onto zero banks".to_string(),
            });
        }
        // The calibration vector stands in for a representative input:
        // SA and requant calibration index it as the first layer's
        // activation, so a wrong-sized one is a caller error.
        if calibration_input.len() != net.inputs() {
            return Err(PrimeError::MappingMismatch {
                reason: format!(
                    "{} calibration values for a {}-input network",
                    calibration_input.len(),
                    net.inputs()
                ),
            });
        }
        Self::check_stages(pipeline, net.layers().len(), banks.len())?;
        // Code bounds come from the mats' composing scheme (Pin/Po), not
        // hard-coded constants — the quantizer and every downstream clamp
        // share this single source of truth. All banks are constructed
        // identically, so the first is representative.
        let first_bank = &banks[0];
        let (scheme, mat) = if first_bank.ff_subarrays() * first_bank.mats_per_subarray() > 0 {
            let mat = first_bank.mat(MatAddr { subarray: 0, mat: 0 });
            (mat.scheme(), (mat.max_rows(), mat.max_cols()))
        } else {
            (ComposingScheme::prime_default(), (256, 128))
        };
        let buffer_words = banks.iter().map(|b| b.buffer().capacity()).min().unwrap_or(0);
        let spec = net.to_spec("compiled")?;
        let mut program = prime_analyze::lower_layout(&spec, pipeline, buffer_words, mat, &scheme)
            .map_err(|reason| PrimeError::MappingMismatch { reason })?;
        let code_max = i64::from(scheme.input_code_max());

        // Input quantization scale from the calibration vector.
        let in_max = calibration_input
            .iter()
            .fold(0.0f32, |m, &v| m.max(v.abs()))
            .max(1e-6);
        let input_scale = in_max / f32::from(scheme.input_code_max());
        let mut codes = Vec::new();
        Self::quantize(calibration_input, input_scale, &scheme, &mut codes);
        let mut value_scale = input_scale; // real value of one input code unit
        let mut scratch = InferScratch::new();
        let mut layers = Vec::with_capacity(program.layers.len());
        let mut mats_used = 0usize;

        for stage in &program.stages {
            let controller = &mut banks[stage.bank];
            let mut next_mat = 0usize;
            let span = stage.layers.0..stage.layers.1;
            for (lowered, layer) in program.layers[span.clone()].iter_mut().zip(&net.layers()[span])
            {
                // A weight layer's weights, bias and activation. Both
                // weight layouts are `[features][rows]` (an FC row is an
                // input, a conv row an `(ic, ky, kx)` tap).
                let weights = match layer {
                    Layer::Fc(fc) => Some((fc.weights().data(), fc.bias(), fc.activation())),
                    Layer::Conv(conv) => {
                        Some((conv.weights().data(), conv.bias(), conv.activation()))
                    }
                    Layer::Pool(_) => None,
                };
                let mut plan = PlannedLayer {
                    tiles: Vec::new(),
                    bias_units: Vec::new(),
                    activation: PlannedActivation::Identity,
                };
                // A weight layer's real value of one merged unit.
                let unit = match (weights, lowered.weight_shape) {
                    (Some((w, bias, _)), Some(shape @ (rows, _))) => {
                        // Quantize weights to composed 8-bit codes; the
                        // crossbar wants `[rows][features]`.
                        let w_max = w.iter().fold(0.0f32, |m, &v| m.max(v.abs())).max(1e-6);
                        let w_scale = w_max / 255.0;
                        let weight_code = |r: usize, c: usize| {
                            ((w[c * rows + r] / w_scale).round().clamp(-255.0, 255.0)) as i32
                        };
                        plan.tiles = Self::program_tiles(
                            controller,
                            &mut next_mat,
                            tile_spans(shape, mat),
                            &weight_code,
                            (&lowered.op, &codes),
                        )?;
                        // Bias in full-precision units:
                        // bias_real / (value_scale * w_scale).
                        let unit = value_scale * w_scale;
                        plan.bias_units = bias.iter().map(|&b| (b / unit).round() as i64).collect();
                        unit
                    }
                    _ => value_scale,
                };
                // Calibrate: the layer step on the calibration activation.
                Self::eval_layer(lowered, &plan, controller, &mut scratch, &codes, &mut None)?;
                let out_max =
                    scratch.merged.iter().map(|&v| v.abs()).max().unwrap_or(1).max(1);
                match (weights, lowered.op) {
                    (Some((.., activation)), _) => {
                        (plan.activation, lowered.requant_shift, value_scale) =
                            Self::plan_activation(activation, unit, out_max, &scheme);
                    }
                    // Winner-code max selects among existing codes, so
                    // only the mean's level-scaled sums need requant.
                    (None, ProgramOp::Pool { mean: true, window, level, .. }) => {
                        lowered.requant_shift = Self::requant_shift(out_max, &scheme);
                        value_scale = value_scale * f32::from(lowered.requant_shift).exp2()
                            / (level * (window * window) as i64) as f32;
                    }
                    (None, _) => {}
                }
                // What Pass 3 reads of the calibrated layer. A sigmoid
                // layer reads as no-ReLU with shift 0: its emitted
                // interval [-code_max, code_max] soundly over-approximates
                // the unit's [0, code_max] codes.
                lowered.relu = plan.activation == PlannedActivation::Relu;
                lowered.bias_peak = plan.bias_units.iter().map(|b| b.abs()).max().unwrap_or(0);
                // Advance the calibration activation.
                codes.clear();
                codes.extend(scratch.merged.iter().map(|&v| {
                    Self::next_code(plan.activation, lowered.requant_shift, code_max, v)
                }));
                layers.push(plan);
            }
            mats_used += next_mat;
        }
        Ok(CommandRunner {
            program,
            layers,
            input_scale,
            output_scale: value_scale,
            mats_used,
            scheme,
        })
    }

    /// Plans a weight layer's output stage from the peak magnitude
    /// `out_max` of its calibration merged sums, where `unit` is the real
    /// value of one merged unit. Returns the output unit, the
    /// requantization shift, and the real value of one next-layer code.
    /// ReLU and identity requantize by the calibrated shift; the sigmoid
    /// unit, built as `SigmoidUnit::new(input_bits, 1 / unit)`, emits
    /// `round(code_max * sigmoid(real pre-activation))` directly, so its
    /// codes are worth `1 / code_max` each and need no shift.
    fn plan_activation(
        activation: Activation,
        unit: f32,
        out_max: i64,
        scheme: &ComposingScheme,
    ) -> (PlannedActivation, u8, f32) {
        let planned = match activation {
            Activation::Identity => PlannedActivation::Identity,
            Activation::Relu => PlannedActivation::Relu,
            Activation::Sigmoid => {
                let sigmoid = SigmoidUnit::new(scheme.input_bits(), 1.0 / f64::from(unit));
                let code_value = 1.0 / f32::from(scheme.input_code_max());
                return (PlannedActivation::Sigmoid(sigmoid), 0, code_value);
            }
        };
        let shift = Self::requant_shift(out_max, scheme);
        (planned, shift, unit * f32::from(shift).exp2())
    }

    /// The next-layer code of one merged sum: the output unit, then the
    /// requantization shift and the scheme clamp. Compile-time
    /// calibration and inference both go through here, so a layer is
    /// calibrated on exactly the codes it emits.
    #[inline]
    fn next_code(activation: PlannedActivation, requant_shift: u8, code_max: i64, v: i64) -> i64 {
        (activation.apply(v) >> requant_shift).clamp(-code_max, code_max)
    }

    /// Right shift taking merged sums with peak magnitude `out_max` down
    /// to the scheme's input precision, so the next layer's codes fit its
    /// Pin-bit drivers.
    fn requant_shift(out_max: i64, scheme: &ComposingScheme) -> u8 {
        let bits = 64 - out_max.leading_zeros() as i64;
        (bits - i64::from(scheme.input_bits())).max(0) as u8
    }

    /// Programs a quantized weight matrix onto the bank's FF mats, one
    /// tile per `(row span, column span)` of `spans`: allocates mats in
    /// order and programs each tile's composed codes. Then it calibrates
    /// every tile's SA window against every window `op` reads from the
    /// calibration activation `codes` (the full input for FC, every
    /// im2col window for conv): each window is gathered once and read by
    /// every tile, whose peak full-precision sum comes from one sweep of
    /// its signed plane.
    fn program_tiles(
        controller: &mut BankController,
        next_mat: &mut usize,
        spans: impl Iterator<Item = ((usize, usize), (usize, usize))>,
        weight_code: &dyn Fn(usize, usize) -> i32,
        (op, codes): (&ProgramOp, &[i64]),
    ) -> Result<Vec<PlannedTile>, PrimeError> {
        let mats_per_subarray = controller.mats_per_subarray();
        let total_mats = controller.ff_subarrays() * mats_per_subarray;
        let mut tiles = Vec::new();
        let mut tile_codes = Vec::new();
        for ((r0, r1), (c0, c1)) in spans {
            if *next_mat >= total_mats {
                return Err(PrimeError::MappingMismatch {
                    reason: "network needs more FF mats than the bank provides".to_string(),
                });
            }
            let mat = MatAddr {
                subarray: *next_mat / mats_per_subarray,
                mat: *next_mat % mats_per_subarray,
            };
            *next_mat += 1;
            tile_codes.clear();
            for r in r0..r1 {
                tile_codes.extend((c0..c1).map(|c| weight_code(r, c)));
            }
            controller.execute(Command::SetFunction {
                mat,
                function: MatFunction::Program,
            })?;
            controller
                .mat_mut(mat)
                .program_composed(&tile_codes, r1 - r0, c1 - c0)?;
            controller.execute(Command::SetFunction {
                mat,
                function: MatFunction::Compute,
            })?;
            tiles.push(PlannedTile { mat, rows: (r0, r1), cols: (c0, c1), shift: 0 });
        }
        // Calibrate the SA windows on the calibration windows.
        let mut peaks = vec![1i64; tiles.len()];
        let (mut window, mut sums) = (Vec::new(), Vec::new());
        let mut sense = |v: &[i64]| {
            for (tile, peak) in tiles.iter().zip(peaks.iter_mut()) {
                let rows = &v[tile.rows.0..tile.rows.1];
                *peak = (*peak).max(controller.mat(tile.mat).full_precision_peak(rows, &mut sums));
            }
        };
        match *op {
            ProgramOp::Conv { out_h, out_w, .. } => {
                for oy in 0..out_h {
                    for ox in 0..out_w {
                        window.clear();
                        Self::gather_window(op, codes, oy, ox, &mut window);
                        sense(&window);
                    }
                }
            }
            _ => sense(codes),
        }
        for (tile, peak) in tiles.iter_mut().zip(peaks) {
            let mat = controller.mat_mut(tile.mat);
            mat.calibrate_output_window(2 * peak);
            tile.shift = mat.output_shift();
        }
        Ok(tiles)
    }

    /// Number of pipeline stages the plan executes (1 for single-bank
    /// plans).
    pub fn stage_count(&self) -> usize {
        self.program.stages.len()
    }

    /// The bank (index into the compile-time bank slice) hosting `stage`.
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range.
    pub fn stage_bank(&self, stage: usize) -> usize {
        self.program.stages[stage].bank
    }

    /// Banks the plan occupies (`last stage bank + 1`).
    pub fn banks_spanned(&self) -> usize {
        self.program.stages.last().map_or(1, |s| s.bank + 1)
    }

    /// Replicates this compiled plan onto `dst`, a geometry-identical
    /// bank group, without recompiling: quantization, SA windows, and
    /// requantization shifts are carried by the plan itself, so a replica
    /// only needs the programmed crossbar pairs. Each placed tile's mat
    /// adopts the source tile by reference (`FfMat::clone` aliases the
    /// refcounted pair), so a replica adds no crossbar state; any later
    /// write to either placement copies first.
    ///
    /// Outputs are bit-identical to an independent compile onto `dst`:
    /// weight programming is deterministic, so an aliased pair is read
    /// through exactly the codes every placement would have programmed.
    ///
    /// # Errors
    ///
    /// Returns [`PrimeError::MappingMismatch`] if either group is
    /// narrower than the banks this plan spans.
    pub fn replicate_onto(
        &self,
        src: &[BankController],
        dst: &mut [BankController],
    ) -> Result<Self, PrimeError> {
        let spanned = self.banks_spanned();
        if src.len() < spanned || dst.len() < spanned {
            return Err(PrimeError::MappingMismatch {
                reason: format!(
                    "plan spans {spanned} bank(s) but the replica groups hold {} -> {}",
                    src.len(),
                    dst.len()
                ),
            });
        }
        for (bank, mat) in self.placements() {
            *dst[bank].mat_mut(mat) = src[bank].mat(mat).clone();
        }
        Ok(self.clone())
    }

    /// Every planned layer's index with the bank (index into the
    /// compile-time bank slice) hosting it, in execution order.
    fn placed_layers(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.program
            .stages
            .iter()
            .flat_map(|stage| (stage.layers.0..stage.layers.1).map(move |i| (stage.bank, i)))
    }

    /// Every mat the plan programs, as (index into the compile-time bank
    /// slice, mat address), in stage, layer, then tile order.
    pub(crate) fn placements(&self) -> impl Iterator<Item = (usize, MatAddr)> + '_ {
        self.placed_layers()
            .flat_map(|(bank, i)| self.layers[i].tiles.iter().map(move |tile| (bank, tile.mat)))
    }

    /// Buffer address of `stage`'s input staging region and the logical
    /// width of its input vector.
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range.
    pub fn stage_input(&self, stage: usize) -> (BufAddr, usize) {
        let layer = &self.program.layers[self.program.stages[stage].layers.0];
        (BufAddr(layer.in_addr), layer.inputs)
    }

    /// Buffer address of `stage`'s output staging region and the logical
    /// width of its output vector (the source of the inter-bank transfer
    /// into the next stage).
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range.
    pub fn stage_output(&self, stage: usize) -> (BufAddr, usize) {
        let layer = &self.program.layers[self.program.stages[stage].layers.1 - 1];
        (BufAddr(layer.out_addr), layer.outputs)
    }

    /// Burst width for streaming a conv/pool boundary activation through
    /// the buffer (shared with the verifier's P019 accounting).
    fn io_chunk(words: usize) -> usize {
        words.clamp(1, prime_analyze::WINDOW_IO_CHUNK_WORDS)
    }

    /// Moves `stage`'s boundary output out of its bank, leaving it in
    /// `codes`. An FC boundary is buffer-resident: the stored vector at
    /// the stage output address is loaded back in full. A conv/pool
    /// boundary's feature map stays Mem-resident — `codes` already holds
    /// it after [`run_stage`](Self::run_stage) — and the transfer streams
    /// through the boundary staging region in bursts.
    ///
    /// # Errors
    ///
    /// Returns buffer errors on an undersized buffer.
    pub fn stage_transfer_out(
        &self,
        stage: usize,
        bank: &mut BankController,
        codes: &mut Vec<i64>,
    ) -> Result<(), PrimeError> {
        let layer = &self.program.layers[self.program.stages[stage].layers.1 - 1];
        let out_addr = BufAddr(layer.out_addr);
        match layer.op {
            ProgramOp::Fc => bank.transfer_out(out_addr, layer.outputs, codes),
            _ => {
                let chunk = Self::io_chunk(layer.outputs);
                for burst in codes.chunks(chunk) {
                    bank.buffer_mut().store(out_addr, burst)?;
                }
                Ok(())
            }
        }
    }

    /// Counterpart of [`stage_transfer_out`](Self::stage_transfer_out):
    /// lands `codes` in `stage`'s bank — the full vector at the stage
    /// input address for an FC boundary, bursts through the staging
    /// region for a conv/pool boundary.
    ///
    /// # Errors
    ///
    /// Returns buffer errors on an undersized buffer.
    pub fn stage_transfer_in(
        &self,
        stage: usize,
        bank: &mut BankController,
        codes: &[i64],
    ) -> Result<(), PrimeError> {
        let layer = &self.program.layers[self.program.stages[stage].layers.0];
        let in_addr = BufAddr(layer.in_addr);
        match layer.op {
            ProgramOp::Fc => bank.transfer_in(in_addr, codes),
            _ => {
                let chunk = Self::io_chunk(layer.inputs);
                for burst in codes.chunks(chunk) {
                    bank.buffer_mut().store(in_addr, burst)?;
                }
                Ok(())
            }
        }
    }

    /// FF mats the plan occupies.
    pub fn mats_used(&self) -> usize {
        self.mats_used
    }

    /// One short label per planned layer, in execution order across all
    /// stages — the row labels for per-layer timing breakdowns from
    /// [`infer_timed_into`](Self::infer_timed_into).
    pub fn layer_labels(&self) -> Vec<String> {
        self.program
            .layers
            .iter()
            .zip(&self.layers)
            .map(|(layer, plan)| {
                let act = match plan.activation {
                    PlannedActivation::Identity => "",
                    PlannedActivation::Relu => " relu",
                    PlannedActivation::Sigmoid(_) => " sigmoid",
                };
                match layer.op {
                    ProgramOp::Fc => format!("fc {}-{}{act}", layer.inputs, layer.outputs),
                    ProgramOp::Conv { in_ch, out_ch, kernel, out_h, out_w, .. } => {
                        format!("conv{kernel}x{kernel} {in_ch}-{out_ch}ch {out_h}x{out_w}{act}")
                    }
                    ProgramOp::Pool { mean, channels, window, .. } => {
                        let kind = if mean { "meanpool" } else { "maxpool" };
                        format!("{kind}{window}x{window} {channels}ch")
                    }
                }
            })
            .collect()
    }

    /// Exports the compiled plan for the Pass-3 abstract interpreter:
    /// the lowered program the runner executes, with its calibrated
    /// shifts, plus the live post-deploy state (alias sharing and mat
    /// function) of every placed tile, read from `banks` — the same bank
    /// slice the plan was compiled against, in stage order. Read-only: no
    /// command is issued and no mat state changes.
    pub fn program_plan(&self, banks: &[BankController]) -> ProgramPlan {
        let mut plan = self.program.clone();
        for (bank, i) in self.placed_layers() {
            let tile_state = |tile: &PlannedTile| {
                let state = banks.get(bank).map(|b| {
                    let mat = b.mat(tile.mat);
                    (mat.shared_tile().is_some(), mat.function() == MatFunction::Program)
                });
                let (aliased, write_armed) = state.unwrap_or((false, false));
                ProgramTile { aliased, write_armed }
            };
            plan.layers[i].tiles = self.layers[i].tiles.iter().map(tile_state).collect();
        }
        plan
    }

    /// The one layer step: evaluates the lowered `layer`, with its
    /// execution state `plan`, on its input activation `codes` — on the
    /// mats for FC and conv layers, on the pooling units for pool layers
    /// — and leaves the layer's merged full-precision sums in
    /// `scratch.merged`, in output order. Inference and deploy-time
    /// calibration both run here.
    ///
    /// An FC layer stages its input at `in_addr` and evaluates as one
    /// window. A conv layer runs one chunk loop: a resident layer stages
    /// its input rows into the ring at `in_addr` (halo rows reused across
    /// output rows) and gathers `chunk_pixels` windows at a time from it;
    /// the per-pixel fallback gathers one-pixel chunks straight from the
    /// activation. Either way each chunk is staged after the ring and
    /// evaluated tile by tile ([`eval_tiles`](Self::eval_tiles)).
    fn eval_layer(
        layer: &ProgramLayer,
        plan: &PlannedLayer,
        bank: &mut BankController,
        scratch: &mut InferScratch,
        codes: &[i64],
        phases: &mut Option<&mut ConvPhases>,
    ) -> Result<(), PrimeError> {
        let InferScratch { acc, merged, tile_out, window, ring, row_slot, bank: bank_scratch, .. } =
            scratch;
        merged.clear();
        let in_addr = layer.in_addr;
        match layer.op {
            ProgramOp::Fc => {
                bank.buffer_mut().store(BufAddr(in_addr), codes)?;
                let staged = (BufAddr(in_addr), 1, codes.len());
                Self::eval_tiles(plan, bank, staged, layer.outputs, acc, bank_scratch, tile_out)?;
                merged.extend(acc.iter().map(PrecisionController::value));
            }
            ProgramOp::Conv {
                in_ch,
                kernel,
                padding,
                in_h,
                in_w,
                out_h,
                out_w,
                resident,
                chunk_pixels,
                ..
            } => {
                let out_ch = layer.outputs / (out_h * out_w);
                let slot_w = in_ch * in_w;
                let ring_words = if resident { kernel * slot_w } else { 0 };
                let chunk_addr = BufAddr(in_addr + ring_words as u64);
                let window_words = in_ch * kernel * kernel;
                ring.clear();
                ring.resize(ring_words, 0);
                merged.resize(layer.outputs, 0);
                let mut staged_rows = 0usize;
                for oy in 0..out_h {
                    // Stage the not-yet-resident input rows this output
                    // row reads; rows staged for earlier output rows are
                    // the reused halo.
                    let need = if resident {
                        (oy + kernel).saturating_sub(padding).min(in_h)
                    } else {
                        0
                    };
                    let t = phase_mark(phases.is_some());
                    while staged_rows < need {
                        let iy = staged_rows;
                        let slot = (iy % kernel) * slot_w;
                        for ic in 0..in_ch {
                            let base = (ic * in_h + iy) * in_w;
                            bank.buffer_mut().store(
                                BufAddr(in_addr + (slot + ic * in_w) as u64),
                                &codes[base..base + in_w],
                            )?;
                        }
                        // Read the slot back: gathers consume the
                        // buffer-resident rows through the scratch mirror.
                        bank.buffer_mut().load_into(
                            BufAddr(in_addr + slot as u64),
                            slot_w,
                            row_slot,
                        )?;
                        ring[slot..slot + slot_w].copy_from_slice(row_slot);
                        staged_rows += 1;
                    }
                    phase_add(phases, t, |ph| &mut ph.stage_ns);
                    for ox0 in (0..out_w).step_by(chunk_pixels) {
                        let pixels = chunk_pixels.min(out_w - ox0);
                        let t = phase_mark(phases.is_some());
                        window.clear();
                        for ox in ox0..ox0 + pixels {
                            if resident {
                                Self::gather_window_from_ring(&layer.op, ring, oy, ox, window);
                            } else {
                                Self::gather_window(&layer.op, codes, oy, ox, window);
                            }
                        }
                        phase_add(phases, t, |ph| &mut ph.gather_ns);
                        let t = phase_mark(phases.is_some());
                        bank.buffer_mut().store(chunk_addr, window)?;
                        phase_add(phases, t, |ph| &mut ph.stage_ns);
                        let t = phase_mark(phases.is_some());
                        let staged = (chunk_addr, pixels, window_words);
                        Self::eval_tiles(plan, bank, staged, out_ch, acc, bank_scratch, tile_out)?;
                        phase_add(phases, t, |ph| &mut ph.eval_ns);
                        let t = phase_mark(phases.is_some());
                        for p in 0..pixels {
                            for oc in 0..out_ch {
                                merged[(oc * out_h + oy) * out_w + ox0 + p] =
                                    acc[p * out_ch + oc].value();
                            }
                        }
                        phase_add(phases, t, |ph| &mut ph.emit_ns);
                    }
                }
            }
            ProgramOp::Pool { channels, in_h, in_w, window: win, .. } => {
                for c in 0..channels {
                    for oy in 0..in_h / win {
                        for ox in 0..in_w / win {
                            Self::gather_pool_window(&layer.op, codes, c, oy, ox, window);
                            // Stage the candidates for the pooling
                            // unit's registers.
                            bank.buffer_mut().store(BufAddr(in_addr), window)?;
                            merged.push(Self::pool_reduce(&layer.op, window)?);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Evaluates every tile of a weight layer on a staged chunk of
    /// windows — `(addr, pixels, stride)`: `pixels` windows staged
    /// `stride` words apart from buffer address `addr` — and leaves pixel
    /// `p`'s merged sums of the layer's `features` outputs in
    /// `acc[p * features..]`. Per tile, one `load` latches the tile's rows
    /// of every window, and the mat evaluates the latched windows in
    /// turn: tiles outer, pixels inner, the order read noise draws in.
    fn eval_tiles(
        plan: &PlannedLayer,
        bank: &mut BankController,
        (addr, pixels, stride): (BufAddr, usize, usize),
        features: usize,
        acc: &mut Vec<PrecisionController>,
        bank_scratch: &mut MatScratch,
        tile_out: &mut Vec<i64>,
    ) -> Result<(), PrimeError> {
        acc.clear();
        acc.resize_with(pixels * features, PrecisionController::new);
        for p in 0..pixels {
            let sums = &mut acc[p * features..(p + 1) * features];
            for (o, &b) in sums.iter_mut().zip(&plan.bias_units) {
                o.accumulate(b, 0);
            }
        }
        for tile in &plan.tiles {
            let ((r0, r1), (c0, c1)) = (tile.rows, tile.cols);
            bank.execute(Command::Load {
                from: BufAddr(addr.0 + r0 as u64),
                to: FfAddr { mat: tile.mat, offset: 0 },
                bytes: (((pixels - 1) * stride + r1 - r0) * 8) as u64,
            })?;
            bank.compute_windows_into(tile.mat, (pixels, stride), bank_scratch, tile_out)?;
            // Expand the tile's truncated codes back to full-precision
            // units before the merge add.
            let cols = c1 - c0;
            for p in 0..pixels {
                let sums = &mut acc[p * features + c0..p * features + c1];
                for (o, &v) in sums.iter_mut().zip(&tile_out[p * cols..(p + 1) * cols]) {
                    o.accumulate(v, tile.shift);
                }
            }
        }
        Ok(())
    }

    /// Appends the im2col window of conv output pixel `(oy, ox)`,
    /// gathered from a `[in_ch, in_h, in_w]` activation, onto `window`
    /// (no clear — chunk gathers append pixel-major). Padded taps push
    /// code 0 — exactly the contribution of a grounded input line on the
    /// unsigned drivers.
    fn gather_window(
        op: &ProgramOp,
        codes: &[i64],
        oy: usize,
        ox: usize,
        window: &mut Vec<i64>,
    ) {
        let ProgramOp::Conv { in_ch, kernel, padding, in_h, in_w, .. } = *op else {
            return;
        };
        for ic in 0..in_ch {
            for ky in 0..kernel {
                for kx in 0..kernel {
                    // Out-of-range taps wrap past in_h/in_w and read 0.
                    let iy = (oy + ky).wrapping_sub(padding);
                    let ix = (ox + kx).wrapping_sub(padding);
                    window.push(if iy < in_h && ix < in_w {
                        codes[(ic * in_h + iy) * in_w + ix]
                    } else {
                        0
                    });
                }
            }
        }
    }

    /// Appends the im2col window of conv output pixel `(oy, ox)` gathered
    /// from the resident row ring onto `out` (no clear — chunk gathers
    /// append pixel-major). The ring keys input rows by `iy % kernel`
    /// with `[slot][in_ch][in_w]` layout; for every row the ring holds,
    /// the result is element-identical to
    /// [`gather_window`](Self::gather_window) on the raw activation.
    fn gather_window_from_ring(
        op: &ProgramOp,
        ring: &[i64],
        oy: usize,
        ox: usize,
        out: &mut Vec<i64>,
    ) {
        let ProgramOp::Conv { in_ch, kernel, padding, in_h, in_w, .. } = *op else {
            return;
        };
        for ic in 0..in_ch {
            for ky in 0..kernel {
                // Out-of-range taps wrap past in_h/in_w and read 0.
                let iy = (oy + ky).wrapping_sub(padding);
                for kx in 0..kernel {
                    let ix = (ox + kx).wrapping_sub(padding);
                    out.push(if iy < in_h && ix < in_w {
                        ring[((iy % kernel) * in_ch + ic) * in_w + ix]
                    } else {
                        0
                    });
                }
            }
        }
    }

    /// Gathers the pooling window of output element `(c, oy, ox)` from a
    /// `[channels, in_h, in_w]` activation into `window`.
    fn gather_pool_window(
        op: &ProgramOp,
        codes: &[i64],
        c: usize,
        oy: usize,
        ox: usize,
        window: &mut Vec<i64>,
    ) {
        window.clear();
        let ProgramOp::Pool { in_h, in_w, window: win, .. } = *op else {
            return;
        };
        for wy in 0..win {
            for wx in 0..win {
                window.push(codes[(c * in_h + oy * win + wy) * in_w + ox * win + wx]);
            }
        }
    }

    /// Reduces one staged pooling window to its merged (pre-requant)
    /// value: the 1/n-weight dot product `level * sum(codes)` for mean
    /// pooling, or the winner-code maximum for max pooling. Mutates
    /// `window` in place (the max reduction reuses it as its register
    /// file), so the inference hot path allocates nothing.
    fn pool_reduce(op: &ProgramOp, window: &mut Vec<i64>) -> Result<i64, PrimeError> {
        let ProgramOp::Pool { mean, level, .. } = *op else {
            return Err(PrimeError::Internal {
                reason: "pool_reduce on a non-pool layer".to_string(),
            });
        };
        if window.is_empty() {
            return Err(PrimeError::Internal {
                reason: "empty pooling window".to_string(),
            });
        }
        if mean {
            return Ok(level * window.iter().sum::<i64>());
        }
        // Repeated 4:1 winner-code steps; short groups are padded with
        // their first element, exactly as MaxPoolUnit::pool does.
        let unit = MaxPoolUnit::new();
        while window.len() > 1 {
            let mut w = 0;
            for g in (0..window.len()).step_by(4) {
                let end = (g + 4).min(window.len());
                let mut group = [window[g]; 4];
                group[..end - g].copy_from_slice(&window[g..end]);
                window[w] = unit.pool4(group);
                w += 1;
            }
            window.truncate(w);
        }
        Ok(window[0])
    }

    /// Runs one inference entirely through controller commands: the input
    /// is quantized, staged into the Buffer subarray, flowed through
    /// every planned layer, and the final merged values are rescaled to
    /// real outputs.
    ///
    /// # Errors
    ///
    /// Returns [`PrimeError::BufferOverflow`] or mat errors on a
    /// mis-sized input.
    pub fn infer(
        &self,
        controller: &mut BankController,
        input: &[f32],
    ) -> Result<Vec<f32>, PrimeError> {
        let mut scratch = InferScratch::new();
        let mut out = Vec::new();
        self.infer_into(controller, input, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// [`infer`](Self::infer) into caller-owned buffers.
    ///
    /// `out` is cleared and refilled with the real-valued outputs. With a
    /// reused `scratch`, every buffer the forward pass touches — layer
    /// codes, mat latches, driver passes, the merge adder's registers —
    /// reuses its storage, so steady-state inference performs zero heap
    /// allocation (the command log is a fixed-capacity ring). Bit-identical to
    /// [`infer`](Self::infer).
    ///
    /// On a bank with [read noise](BankController::set_read_noise), every
    /// tile evaluates through the analog domain and draws from the bank's
    /// stream in plan order — for conv layers, window chunks outer, then
    /// tiles, then the chunk's pixels (the per-pixel fallback's chunks
    /// hold one pixel, so its pixels are outer and tiles inner) — and
    /// only sensed bitlines draw, so a seed reproduces the inference. The
    /// draw order was re-pinned by the weight-stationary conv schedule
    /// (DESIGN.md §11); every engine runs this one loop, so all stay
    /// mutually bit-identical.
    ///
    /// # Errors
    ///
    /// Returns [`PrimeError::BufferOverflow`] or mat errors on a
    /// mis-sized input.
    pub fn infer_into(
        &self,
        controller: &mut BankController,
        input: &[f32],
        scratch: &mut InferScratch,
        out: &mut Vec<f32>,
    ) -> Result<(), PrimeError> {
        self.infer_impl(controller, input, scratch, out, None, None)
    }

    /// [`infer_into`](Self::infer_into) that additionally records the
    /// wall-clock nanoseconds each planned layer took, one entry per
    /// entry of [`layer_labels`](Self::layer_labels) (`layer_ns` is
    /// cleared first). The stopwatch sits outside the layer datapath, so
    /// outputs stay bit-identical to [`infer_into`](Self::infer_into).
    ///
    /// # Errors
    ///
    /// Returns [`PrimeError::BufferOverflow`] or mat errors on a
    /// mis-sized input.
    pub fn infer_timed_into(
        &self,
        controller: &mut BankController,
        input: &[f32],
        scratch: &mut InferScratch,
        out: &mut Vec<f32>,
        layer_ns: &mut Vec<f64>,
    ) -> Result<(), PrimeError> {
        layer_ns.clear();
        self.infer_impl(controller, input, scratch, out, Some(layer_ns), None)
    }

    /// [`infer_timed_into`](Self::infer_timed_into) that additionally
    /// accumulates the per-phase conv breakdown (stage / gather /
    /// evaluate / emit) into `conv_phases` (reset first). The phase
    /// stopwatches only run on conv layers and mark whole rows and
    /// chunks, so the per-layer totals stay representative.
    ///
    /// # Errors
    ///
    /// Returns [`PrimeError::BufferOverflow`] or mat errors on a
    /// mis-sized input.
    #[allow(clippy::too_many_arguments)]
    pub fn infer_profiled_into(
        &self,
        controller: &mut BankController,
        input: &[f32],
        scratch: &mut InferScratch,
        out: &mut Vec<f32>,
        layer_ns: &mut Vec<f64>,
        conv_phases: &mut ConvPhases,
    ) -> Result<(), PrimeError> {
        layer_ns.clear();
        *conv_phases = ConvPhases::default();
        self.infer_impl(controller, input, scratch, out, Some(layer_ns), Some(conv_phases))
    }

    fn infer_impl(
        &self,
        controller: &mut BankController,
        input: &[f32],
        scratch: &mut InferScratch,
        out: &mut Vec<f32>,
        layer_ns: Option<&mut Vec<f64>>,
        conv_phases: Option<&mut ConvPhases>,
    ) -> Result<(), PrimeError> {
        if self.banks_spanned() > 1 {
            return Err(PrimeError::MappingMismatch {
                reason: format!(
                    "plan spans {} banks; drive it stage by stage or via PrimeSystem",
                    self.banks_spanned()
                ),
            });
        }
        // Single-bank plans hold exactly one stage covering every layer;
        // the scratch's resident code vector is the traveling activation.
        let mut codes = std::mem::take(&mut scratch.codes);
        let result = self.quantize_input(input, &mut codes).and_then(|()| {
            self.run_stage_impl(
                0,
                controller,
                scratch,
                &mut codes,
                Some(out),
                layer_ns,
                conv_phases,
            )
        });
        scratch.codes = codes;
        result
    }

    /// Quantizes a real-valued network input into stage-0 input codes
    /// using the plan's calibrated input scale. `codes` is cleared and
    /// refilled (no steady-state allocation when reused).
    ///
    /// # Errors
    ///
    /// Returns [`PrimeError::MappingMismatch`] on a mis-sized input or an
    /// empty plan.
    pub fn quantize_input(&self, input: &[f32], codes: &mut Vec<i64>) -> Result<(), PrimeError> {
        let first = self.program.layers.first().ok_or(PrimeError::MappingMismatch {
            reason: "empty plan".to_string(),
        })?;
        if input.len() != first.inputs {
            return Err(PrimeError::MappingMismatch {
                reason: format!("{} inputs for a {}-input plan", input.len(), first.inputs),
            });
        }
        Self::quantize(input, self.input_scale, &self.scheme, codes);
        Ok(())
    }

    /// Quantizes real network inputs into unsigned input codes:
    /// `value / input_scale`, rounded and clamped to the scheme's driver
    /// range. `codes` is cleared and refilled. Compile-time calibration
    /// and inference both quantize through here, so a plan is calibrated
    /// on exactly the codes it is later driven with.
    fn quantize(input: &[f32], input_scale: f32, scheme: &ComposingScheme, codes: &mut Vec<i64>) {
        let in_code_max = f32::from(scheme.input_code_max());
        codes.clear();
        codes.extend(
            input.iter().map(|&v| ((v / input_scale).round().clamp(0.0, in_code_max)) as i64),
        );
    }

    /// Runs one pipeline stage on its bank: `codes` enters holding the
    /// stage's input activation codes and leaves holding its output codes
    /// (non-final stages). The final stage instead fills `out` with the
    /// real-valued network outputs. Tiles evaluate digitally, or with the
    /// bank's [read noise](BankController::set_read_noise) drawn in the
    /// plan order [`infer_into`](Self::infer_into) describes (one-pixel
    /// chunks for the per-pixel conv fallback); each stage's bank owns its
    /// stream, so overlapped (pipelined) and serial execution consume
    /// identical per-bank sequences.
    ///
    /// # Errors
    ///
    /// Returns [`PrimeError::MappingMismatch`] for a missing `out` on the
    /// final stage, or buffer/mat errors.
    pub fn run_stage(
        &self,
        stage: usize,
        bank: &mut BankController,
        scratch: &mut InferScratch,
        codes: &mut Vec<i64>,
        out: Option<&mut Vec<f32>>,
    ) -> Result<(), PrimeError> {
        self.run_stage_impl(stage, bank, scratch, codes, out, None, None)
    }

    /// [`run_stage`](Self::run_stage) with the optional per-layer and
    /// per-conv-phase stopwatches: the layer step, then one pass that
    /// requantizes its merged sums into the next layer's codes (or
    /// rescales the network's final layer into `out`).
    #[allow(clippy::too_many_arguments)]
    fn run_stage_impl(
        &self,
        stage: usize,
        bank: &mut BankController,
        scratch: &mut InferScratch,
        codes: &mut Vec<i64>,
        mut out: Option<&mut Vec<f32>>,
        mut layer_ns: Option<&mut Vec<f64>>,
        mut conv_phases: Option<&mut ConvPhases>,
    ) -> Result<(), PrimeError> {
        let (start, end) = self.program.stages[stage].layers;
        let code_max = i64::from(self.scheme.input_code_max());
        for index in start..end {
            let (layer, plan) = (&self.program.layers[index], &self.layers[index]);
            let stopwatch = layer_ns.is_some().then(std::time::Instant::now);
            let is_conv = matches!(layer.op, ProgramOp::Conv { .. });
            let mut phases = conv_phases.as_deref_mut().filter(|_| is_conv);
            Self::eval_layer(layer, plan, bank, scratch, codes, &mut phases)?;
            let t = phase_mark(phases.is_some());
            let is_final = index + 1 == self.layers.len();
            if is_final {
                let out = out.as_deref_mut().ok_or(PrimeError::MappingMismatch {
                    reason: "final stage requires an output buffer".to_string(),
                })?;
                let unit = self.output_scale / f32::from(layer.requant_shift).exp2();
                out.clear();
                out.extend(scratch.merged.iter().map(|&v| plan.activation.apply(v) as f32 * unit));
            } else {
                codes.clear();
                codes.extend(scratch.merged.iter().map(|&v| {
                    Self::next_code(plan.activation, layer.requant_shift, code_max, v)
                }));
            }
            phase_add(&mut phases, t, |ph| &mut ph.emit_ns);
            if let (Some(started), Some(sink)) = (stopwatch, layer_ns.as_deref_mut()) {
                sink.push(started.elapsed().as_secs_f64() * 1e9);
            }
            // FC activations are buffer-resident between layers; conv and
            // pool feature maps stay in the Mem subarrays (only windows
            // and boundary bursts touch the buffer).
            if !is_final && matches!(layer.op, ProgramOp::Fc) {
                bank.buffer_mut().store(BufAddr(layer.out_addr), codes)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prime_nn::{Conv2d, FullyConnected, Pool2d, PoolKind};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn relu_net(rng: &mut SmallRng) -> Network {
        let mut net = Network::new(vec![
            Layer::Fc(FullyConnected::new(20, 12, Activation::Relu)),
            Layer::Fc(FullyConnected::new(12, 4, Activation::Identity)),
        ])
        .expect("widths match");
        net.init_random(rng);
        net
    }

    /// A CNN-1-class stack: padded conv, winner-code max pooling,
    /// 1/n-weight mean pooling, and an FC head.
    fn conv_pool_net(rng: &mut SmallRng) -> Network {
        let mut net = Network::new(vec![
            Layer::Conv(Conv2d::new(1, 3, 3, 8, 8, 1, Activation::Relu)),
            Layer::Pool(Pool2d::new(PoolKind::Max, 3, 8, 8, 2)),
            Layer::Pool(Pool2d::new(PoolKind::Mean, 3, 4, 4, 2)),
            Layer::Fc(FullyConnected::new(12, 4, Activation::Identity)),
        ])
        .expect("widths match");
        net.init_random(rng);
        net
    }

    fn image_input(len: usize, seed: usize) -> Vec<f32> {
        (0..len)
            .map(|i| (((i * 7 + seed * 5) % 13) as f32) / 13.0)
            .collect()
    }

    #[test]
    fn command_runner_tracks_software_outputs() {
        let mut rng = SmallRng::seed_from_u64(21);
        let net = relu_net(&mut rng);
        let input: Vec<f32> = (0..20).map(|i| ((i * 7 % 13) as f32) / 13.0).collect();
        let mut controller = BankController::new(2, 8, 4096, 8192);
        let runner = CommandRunner::compile(&net, &mut controller, &input).unwrap();
        let hw = runner.infer(&mut controller, &input).unwrap();
        let sw = net.forward(&input).unwrap();
        let max = sw.iter().fold(0.0f32, |m, &v| m.max(v.abs())).max(0.2);
        for (a, b) in hw.iter().zip(&sw) {
            assert!((a - b).abs() / max < 0.25, "hw {a} vs sw {b}");
        }
        assert!(runner.mats_used() >= 2);
    }

    #[test]
    fn conv_pool_runner_tracks_software_outputs() {
        let mut rng = SmallRng::seed_from_u64(31);
        let net = conv_pool_net(&mut rng);
        let input = image_input(64, 1);
        let mut controller = BankController::new(2, 8, 4096, 8192);
        let runner = CommandRunner::compile(&net, &mut controller, &input).unwrap();
        // Conv needs one mat, the FC head another; pooling needs none.
        assert_eq!(runner.mats_used(), 2);
        let hw = runner.infer(&mut controller, &input).unwrap();
        let sw = net.forward(&input).unwrap();
        assert_eq!(hw.len(), sw.len());
        let max = sw.iter().fold(0.0f32, |m, &v| m.max(v.abs())).max(0.2);
        for (a, b) in hw.iter().zip(&sw) {
            assert!((a - b).abs() / max < 0.3, "hw {a} vs sw {b}");
        }
    }

    #[test]
    fn conv_runner_agrees_on_argmax_across_inputs() {
        let mut rng = SmallRng::seed_from_u64(32);
        let net = conv_pool_net(&mut rng);
        let calib = image_input(64, 0);
        let mut controller = BankController::new(2, 8, 4096, 8192);
        let runner = CommandRunner::compile(&net, &mut controller, &calib).unwrap();
        let mut agree = 0;
        let trials = 10;
        for t in 0..trials {
            let input = image_input(64, t + 1);
            let hw = runner.infer(&mut controller, &input).unwrap();
            let sw = net.forward(&input).unwrap();
            if argmax(&hw) == argmax(&sw) {
                agree += 1;
            }
        }
        assert!(agree >= trials - 2, "only {agree}/{trials} argmax agreements");
    }

    #[test]
    fn large_mean_pool_windows_compile_after_rounding() {
        // A 4x4 mean-pool window (n = 16) used to collapse to a zero
        // conductance level under floor quantization; round-to-nearest
        // keeps it programmable.
        let mut rng = SmallRng::seed_from_u64(33);
        let mut net = Network::new(vec![
            Layer::Conv(Conv2d::new(1, 2, 3, 8, 8, 1, Activation::Relu)),
            Layer::Pool(Pool2d::new(PoolKind::Mean, 2, 8, 8, 4)),
            Layer::Fc(FullyConnected::new(8, 3, Activation::Identity)),
        ])
        .expect("widths match");
        net.init_random(&mut rng);
        let input = image_input(64, 2);
        let mut controller = BankController::new(2, 8, 4096, 8192);
        let runner = CommandRunner::compile(&net, &mut controller, &input).unwrap();
        let hw = runner.infer(&mut controller, &input).unwrap();
        let sw = net.forward(&input).unwrap();
        let max = sw.iter().fold(0.0f32, |m, &v| m.max(v.abs())).max(0.2);
        for (a, b) in hw.iter().zip(&sw) {
            assert!((a - b).abs() / max < 0.3, "hw {a} vs sw {b}");
        }
    }

    #[test]
    fn command_runner_agrees_on_argmax_across_inputs() {
        let mut rng = SmallRng::seed_from_u64(22);
        let net = relu_net(&mut rng);
        let calib: Vec<f32> = vec![0.5; 20];
        let mut controller = BankController::new(2, 8, 4096, 8192);
        let runner = CommandRunner::compile(&net, &mut controller, &calib).unwrap();
        let mut agree = 0;
        let trials = 10;
        for t in 0..trials {
            let input: Vec<f32> = (0..20)
                .map(|i| (((i + t) * 11 % 17) as f32) / 17.0)
                .collect();
            let hw = runner.infer(&mut controller, &input).unwrap();
            let sw = net.forward(&input).unwrap();
            if argmax(&hw) == argmax(&sw) {
                agree += 1;
            }
        }
        assert!(
            agree >= trials - 2,
            "only {agree}/{trials} argmax agreements"
        );
    }

    /// Sigmoid conv and FC layers run on the column-mux unit after the
    /// merge and track the software sigmoid network.
    #[test]
    fn sigmoid_runner_tracks_software_outputs() {
        let mut rng = SmallRng::seed_from_u64(27);
        let mut net = Network::new(vec![
            Layer::Conv(Conv2d::new(1, 3, 3, 8, 8, 1, Activation::Sigmoid)),
            Layer::Pool(Pool2d::new(PoolKind::Max, 3, 8, 8, 2)),
            Layer::Fc(FullyConnected::new(48, 12, Activation::Sigmoid)),
            Layer::Fc(FullyConnected::new(12, 4, Activation::Identity)),
        ])
        .expect("widths match");
        net.init_random(&mut rng);
        let input = image_input(64, 4);
        let mut controller = BankController::new(2, 8, 4096, 8192);
        let runner = CommandRunner::compile(&net, &mut controller, &input).unwrap();
        assert_eq!(
            runner.layer_labels(),
            vec!["conv3x3 1-3ch 8x8 sigmoid", "maxpool2x2 3ch", "fc 48-12 sigmoid", "fc 12-4"]
        );
        let hw = runner.infer(&mut controller, &input).unwrap();
        let sw = net.forward(&input).unwrap();
        let max = sw.iter().fold(0.0f32, |m, &v| m.max(v.abs())).max(0.2);
        for (a, b) in hw.iter().zip(&sw) {
            assert!((a - b).abs() / max < 0.3, "hw {a} vs sw {b}");
        }
    }

    #[test]
    fn timed_inference_matches_plain_and_labels_layers() {
        let mut rng = SmallRng::seed_from_u64(31);
        let net = conv_pool_net(&mut rng);
        let mut controller = BankController::new(2, 8, 4096, 8192);
        let runner =
            CommandRunner::compile(&net, &mut controller, &[0.5; 64]).expect("fits one bank");
        let input = image_input(64, 3);
        let mut scratch = InferScratch::new();
        let (mut timed, mut plain, mut ns) = (Vec::new(), Vec::new(), Vec::new());
        runner
            .infer_timed_into(&mut controller, &input, &mut scratch, &mut timed, &mut ns)
            .expect("runs");
        runner
            .infer_into(&mut controller, &input, &mut scratch, &mut plain)
            .expect("runs");
        assert_eq!(timed, plain, "the stopwatch must not perturb the datapath");
        let labels = runner.layer_labels();
        assert_eq!(ns.len(), labels.len(), "one timing entry per planned layer");
        assert_eq!(
            labels,
            vec![
                "conv3x3 1-3ch 8x8 relu",
                "maxpool2x2 3ch",
                "meanpool2x2 3ch",
                "fc 12-4",
            ]
        );
        assert!(ns.iter().all(|&t| t >= 0.0));
    }

    #[test]
    fn command_runner_rejects_wrong_sized_calibration() {
        let mut rng = SmallRng::seed_from_u64(29);
        let mut net = Network::new(vec![
            Layer::Conv(Conv2d::new(1, 2, 3, 6, 6, 1, Activation::Relu)),
            Layer::Fc(FullyConnected::new(72, 4, Activation::Identity)),
        ])
        .expect("widths match");
        net.init_random(&mut rng);
        let mut controller = BankController::new(2, 8, 4096, 8192);
        // 3 calibration values for a 36-input network: a typed error,
        // not an out-of-bounds index in window gathering.
        let err = CommandRunner::compile(&net, &mut controller, &[0.5; 3]);
        assert!(matches!(err, Err(PrimeError::MappingMismatch { .. })));
        // A wrong-sized inference input is the same typed error.
        let runner = CommandRunner::compile(&net, &mut controller, &[0.5; 36]).unwrap();
        let err = runner.infer(&mut controller, &[0.5; 10]);
        assert!(
            matches!(err, Err(PrimeError::MappingMismatch { .. })),
            "wrong-sized input must error, not panic: {err:?}"
        );
    }

    /// The runtime stage gate: a malformed caller-supplied stage list is
    /// a typed error, refused before any command reaches a bank.
    #[test]
    fn compile_pipeline_rejects_malformed_stage_lists() {
        let mut rng = SmallRng::seed_from_u64(26);
        let mut net = Network::new(vec![
            Layer::Fc(FullyConnected::new(20, 12, Activation::Relu)),
            Layer::Fc(FullyConnected::new(12, 8, Activation::Relu)),
            Layer::Fc(FullyConnected::new(8, 4, Activation::Identity)),
        ])
        .expect("widths match");
        net.init_random(&mut rng);
        let stage = |bank: usize, layers: &[usize]| PipelineStage {
            bank,
            layers: layers.to_vec(),
            mats: 1,
        };
        let fresh = || -> Vec<BankController> {
            (0..3).map(|_| BankController::new(1, 4, 1024, 256)).collect()
        };
        let cases = [
            ("non-increasing banks", vec![stage(1, &[0]), stage(1, &[1]), stage(2, &[2])]),
            ("a gap in layer coverage", vec![stage(0, &[0]), stage(1, &[2])]),
            ("a bank past the end of the slice", vec![stage(0, &[0, 1]), stage(3, &[2])]),
            ("an empty stage", vec![stage(0, &[0, 1]), stage(1, &[]), stage(2, &[2])]),
            ("coverage short of the last layer", vec![stage(0, &[0]), stage(1, &[1])]),
        ];
        for (what, pipeline) in cases {
            let mut banks = fresh();
            let result = CommandRunner::compile_pipeline(&net, &mut banks, &pipeline, &[0.5; 20]);
            assert!(
                matches!(result, Err(PrimeError::MappingMismatch { .. })),
                "{what}: {result:?}"
            );
            assert!(banks == fresh(), "{what}: a refused stage list must leave every bank new");
        }
        // The same banks take a legal three-stage list.
        let legal = [stage(0, &[0]), stage(1, &[1]), stage(2, &[2])];
        CommandRunner::compile_pipeline(&net, &mut fresh(), &legal, &[0.5; 20]).expect("legal");
    }

    #[test]
    fn command_runner_respects_mat_budget() {
        let mut rng = SmallRng::seed_from_u64(24);
        // 600-input layer needs 3 row tiles; give the controller only 2 mats.
        let mut net = Network::new(vec![Layer::Fc(FullyConnected::new(
            600,
            4,
            Activation::Identity,
        ))])
        .expect("widths match");
        net.init_random(&mut rng);
        let mut controller = BankController::new(1, 2, 2048, 1024);
        let err = CommandRunner::compile(&net, &mut controller, &vec![0.5; 600]);
        assert!(matches!(err, Err(PrimeError::MappingMismatch { .. })));
    }

    #[test]
    fn inference_is_driven_by_commands() {
        let mut rng = SmallRng::seed_from_u64(25);
        let net = relu_net(&mut rng);
        let input: Vec<f32> = vec![0.4; 20];
        let mut controller = BankController::new(2, 8, 4096, 8192);
        let runner = CommandRunner::compile(&net, &mut controller, &input).unwrap();
        let before = controller.commands_issued();
        let written = controller.buffer().words_written();
        runner.infer(&mut controller, &input).unwrap();
        // One `load` per FC tile: the tile count is the command stream.
        assert_eq!(controller.commands_issued() - before, runner.mats_used() as u64);
        // Buffer writes: the 20 input codes staged, the 12 hidden codes
        // stored as layer 0's output and staged as layer 1's input. Tiles
        // load their row slices from the staged input; nothing else is
        // written.
        assert_eq!(controller.buffer().words_written() - written, 20 + 12 + 12);
        assert!(controller
            .log()
            .iter()
            .rev()
            .take(runner.mats_used())
            .all(|c| matches!(c, Command::Load { .. })));
    }

    /// A long-running bank keeps only its most recent commands, while the
    /// issued total stays exact.
    #[test]
    fn command_log_stays_bounded_over_many_inferences() {
        let mut rng = SmallRng::seed_from_u64(28);
        let net = relu_net(&mut rng);
        let input: Vec<f32> = vec![0.4; 20];
        let mut controller = BankController::new(2, 8, 4096, 8192);
        let runner = CommandRunner::compile(&net, &mut controller, &input).unwrap();
        let before = controller.commands_issued();
        let (mut scratch, mut out) = (InferScratch::new(), Vec::new());
        for _ in 0..10_000 {
            runner.infer_into(&mut controller, &input, &mut scratch, &mut out).unwrap();
        }
        assert!(controller.log().len() <= crate::controller::COMMAND_LOG_CAPACITY);
        assert_eq!(controller.commands_issued() - before, 10_000 * runner.mats_used() as u64);
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Row-ring gathering is element-identical to the naive im2col
        /// gather for every output pixel, across padded shapes. The test
        /// stages rows into the ring exactly as the resident executor
        /// does: slot `iy % kernel`, layout `[slot][in_ch][in_w]`,
        /// staging up to `need` rows before each output row.
        #[test]
        fn ring_gather_matches_naive_window(
            in_ch in 1usize..4,
            kernel in 1usize..5,
            pad in 0usize..3,
            in_h in 5usize..11,
            in_w in 5usize..11,
            seed in proptest::prelude::any::<u64>(),
        ) {
            use rand::Rng;
            let padding = pad.min(kernel.saturating_sub(1));
            let out_h = in_h + 2 * padding - kernel + 1;
            let out_w = in_w + 2 * padding - kernel + 1;
            let op = ProgramOp::Conv {
                in_ch,
                out_ch: 1,
                kernel,
                padding,
                in_h,
                in_w,
                out_h,
                out_w,
                resident: true,
                chunk_pixels: 1,
            };
            let mut rng = SmallRng::seed_from_u64(seed);
            let codes: Vec<i64> =
                (0..in_ch * in_h * in_w).map(|_| rng.gen_range(0..64)).collect();
            let mut ring = vec![0i64; kernel * in_ch * in_w];
            let mut staged_rows = 0usize;
            let (mut from_ring, mut naive) = (Vec::new(), Vec::new());
            for oy in 0..out_h {
                let need = (oy + kernel).saturating_sub(padding).min(in_h);
                while staged_rows < need {
                    let iy = staged_rows;
                    let slot = iy % kernel;
                    for ic in 0..in_ch {
                        let src = (ic * in_h + iy) * in_w;
                        let dst = (slot * in_ch + ic) * in_w;
                        ring[dst..dst + in_w].copy_from_slice(&codes[src..src + in_w]);
                    }
                    staged_rows += 1;
                }
                for ox in 0..out_w {
                    from_ring.clear();
                    naive.clear();
                    CommandRunner::gather_window_from_ring(&op, &ring, oy, ox, &mut from_ring);
                    CommandRunner::gather_window(&op, &codes, oy, ox, &mut naive);
                    proptest::prop_assert_eq!(
                        &from_ring, &naive,
                        "pixel ({}, {}) k{} p{} {}x{}", oy, ox, kernel, padding, in_h, in_w
                    );
                }
            }
        }
    }

    /// The chunked weight-stationary path (row ring resident) and the
    /// per-pixel fallback produce bit-identical quantized outputs on a
    /// CNN-1-shaped stack. The fallback is forced by a buffer too small
    /// for the residency budget, not by a code switch, so this also pins
    /// the `conv_staging` decision for both controller geometries.
    #[test]
    fn chunked_and_per_pixel_conv_paths_are_bit_identical() {
        let mut rng = SmallRng::seed_from_u64(41);
        let mut net = Network::new(vec![
            Layer::Conv(Conv2d::new(1, 5, 5, 28, 28, 0, Activation::Relu)),
            Layer::Pool(Pool2d::new(PoolKind::Max, 5, 24, 24, 2)),
            Layer::Fc(FullyConnected::new(720, 10, Activation::Identity)),
        ])
        .expect("widths match");
        net.init_random(&mut rng);
        let input = image_input(28 * 28, 5);

        // Ring 5*28 + chunk 10*25 = 390 words: inside 4096/4, outside 1024/4.
        let mut resident_ctl = BankController::new(2, 8, 4096, 8192);
        let resident_runner =
            CommandRunner::compile(&net, &mut resident_ctl, &input).expect("compiles");
        let mut fallback_ctl = BankController::new(2, 8, 1024, 8192);
        let fallback_runner =
            CommandRunner::compile(&net, &mut fallback_ctl, &input).expect("compiles");
        assert!(
            matches!(
                resident_runner.program.layers[0].op,
                ProgramOp::Conv { resident: true, chunk_pixels: 10, .. }
            ),
            "4096-word buffer must take the weight-stationary schedule"
        );
        assert!(
            matches!(
                fallback_runner.program.layers[0].op,
                ProgramOp::Conv { resident: false, chunk_pixels: 1, .. }
            ),
            "1024-word buffer must fall back to per-pixel staging"
        );

        let mut scratch = InferScratch::new();
        let (mut chunked, mut per_pixel) = (Vec::new(), Vec::new());
        resident_runner
            .infer_into(&mut resident_ctl, &input, &mut scratch, &mut chunked)
            .expect("runs");
        fallback_runner
            .infer_into(&mut fallback_ctl, &input, &mut scratch, &mut per_pixel)
            .expect("runs");
        assert_eq!(
            chunked, per_pixel,
            "chunked and per-pixel conv paths must be digitally bit-identical"
        );
    }
}
