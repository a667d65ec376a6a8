//! Pass 3 — abstract interpretation of the lowered command program.
//!
//! Pass 1 ([`analyze`](crate::analyze)) verifies the *mapping*; nothing
//! there sees the program the runner actually executes — the planned-op
//! stream with its row-ring staging, chunked window evaluation,
//! shared-tile aliasing, and stage-channel topology. This pass closes
//! that gap: [`analyze_program`] interprets a [`ProgramPlan`] (either
//! exported from a compiled `CommandRunner` or lowered statically by
//! [`lower_program`]) over four abstract domains:
//!
//! * **FF-buffer region dataflow** — the buffer is a word-granular
//!   region lattice; every op's staged definitions must cover its uses
//!   ([`Code::P024`]), live regions must not overlap or spill past the
//!   buffer ([`Code::P025`]), and a resident conv's row ring must never
//!   clobber a halo row the current output row still reads
//!   ([`Code::P026`]).
//! * **Interval precision propagation** (module
//!   [`intervals`](crate::intervals)) — per-layer value intervals prove
//!   the merged sums fit the precision-control register before the
//!   §III-D clamp ([`Code::P027`]) and that the declared requantization
//!   budget is not vacuous ([`Code::P028`]).
//! * **Shared-tile aliasing** — no tile reachable through a shared
//!   `PairStore` alias may still be write-armed after deploy: a
//!   program/calibrate through the alias would mutate every placement
//!   unless copy-on-write triggered ([`Code::P029`]).
//! * **Stage-channel graph** — the thread-per-stage pipeline engine is
//!   a linear chain of forward channels closed by a credit-bearing
//!   recycle edge; the chain must be exactly linear and the credits
//!   nonzero for the engine to be deadlock-free at every batch size
//!   ([`Code::P030`]).
//!
//! `PrimeSystem::deploy` gates on this pass exactly like Pass 1, and
//! `analyze_workloads --program` runs it statically over every MlBench
//! workload.

use prime_circuits::{mean_pool_weights, ComposingScheme};
use prime_compiler::{pipeline_credits, tile_spans, weight_matrix, NetworkMapping, PipelineStage};
use prime_nn::{LayerSpec, NetworkSpec, PoolKind};

use crate::diag::{sort_diagnostics, Code, Diagnostic, Span};
use crate::intervals::{static_shift, Interval};
use crate::verify::{conv_staging, Target, WINDOW_IO_CHUNK_WORDS};

/// What one planned layer computes per crossbar evaluation, as
/// [`lower_layout`] derives it for the runner and the static audit
/// alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgramOp {
    /// Fully-connected: one evaluation over the whole input vector.
    Fc,
    /// Convolution over im2col windows.
    Conv {
        /// Input channels.
        in_ch: usize,
        /// Output channels.
        out_ch: usize,
        /// Square kernel edge.
        kernel: usize,
        /// Zero padding on each side.
        padding: usize,
        /// Input height.
        in_h: usize,
        /// Input width.
        in_w: usize,
        /// Output height.
        out_h: usize,
        /// Output width.
        out_w: usize,
        /// Weight-stationary row-reuse schedule (ring + chunk resident).
        resident: bool,
        /// Output pixels evaluated per staged window chunk.
        chunk_pixels: usize,
    },
    /// Pooling on the column-mux hardware.
    Pool {
        /// Mean pooling instead of winner-code max.
        mean: bool,
        /// Channels.
        channels: usize,
        /// Input height.
        in_h: usize,
        /// Input width.
        in_w: usize,
        /// Window edge (stride = window).
        window: usize,
        /// Quantized 1/n reciprocal conductance level (mean only).
        level: i64,
    },
}

impl ProgramOp {
    /// Words of FF buffer the op's input staging region occupies — the
    /// accounting [`lower_layout`] lays out each stage's buffer by: the
    /// full input vector for FC, the row ring plus window chunk for a
    /// resident conv, one im2col / pooling window otherwise.
    pub fn staging_words(&self, inputs: usize) -> usize {
        match *self {
            ProgramOp::Fc => inputs,
            ProgramOp::Conv { in_ch, kernel, in_w, resident, chunk_pixels, .. } => {
                if resident {
                    kernel * in_ch * in_w + chunk_pixels * in_ch * kernel * kernel
                } else {
                    in_ch * kernel * kernel
                }
            }
            ProgramOp::Pool { window, .. } => window * window,
        }
    }

    /// Short human-readable form for diagnostic spans.
    pub fn describe(&self) -> String {
        match *self {
            ProgramOp::Fc => "fc".to_string(),
            ProgramOp::Conv { in_ch, out_ch, kernel, .. } => {
                format!("conv{kernel}x{kernel} {in_ch}-{out_ch}ch")
            }
            ProgramOp::Pool { mean, window, .. } => {
                format!("{}pool{window}x{window}", if mean { "mean" } else { "max" })
            }
        }
    }
}

/// Post-deploy state of one placed tile, as far as the alias analysis
/// needs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgramTile {
    /// The tile's crossbar pair is reachable through a shared
    /// `PairStore` alias (its `Arc` has more than one owner).
    pub aliased: bool,
    /// The tile's mat was left in `Program` function — the next
    /// program/calibrate command would write its cells.
    pub write_armed: bool,
}

/// One layer of the lowered program.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramLayer {
    /// The op the layer executes.
    pub op: ProgramOp,
    /// Logical input vector width.
    pub inputs: usize,
    /// Logical output vector width.
    pub outputs: usize,
    /// Buffer address of the layer's staging region.
    pub in_addr: u64,
    /// Buffer address where the layer's output codes are staged (the
    /// end of its staging region).
    pub out_addr: u64,
    /// Right shift taking merged sums to next-layer codes.
    pub requant_shift: u8,
    /// ReLU before requantization.
    pub relu: bool,
    /// Largest bias magnitude, in merged full-precision units.
    pub bias_peak: i64,
    /// The `(rows, features)` weight matrix the layer programs onto its
    /// tiles ([`weight_matrix`]), or `None` for pooling, which uses no
    /// mats.
    pub weight_shape: Option<(usize, usize)>,
    /// Post-deploy state of the layer's placed tiles.
    pub tiles: Vec<ProgramTile>,
}

/// One pipeline stage of the plan: a contiguous layer span on one bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgramStage {
    /// Bank index within the plan's bank group.
    pub bank: usize,
    /// Layer span `[start, end)`.
    pub layers: (usize, usize),
}

/// The lowered command program, as the abstract interpreter sees it.
/// [`lower_layout`] derives its layout; a compiled `CommandRunner`
/// exports it with calibrated shifts and live tile states (deploy-time
/// gating), and [`lower_program`] with worst-case shifts (workload
/// auditing without touching a bank).
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramPlan {
    /// Planned layers, in execution order across all stages.
    pub layers: Vec<ProgramLayer>,
    /// Stage placement.
    pub stages: Vec<ProgramStage>,
    /// Capacity of each bank's FF buffer subarray, in words.
    pub buffer_words: usize,
    /// Initial credits on the pipeline engine's recycle edge.
    pub recycle_credits: usize,
}

/// The one lowering of a network onto a bank group: maps `spec` onto
/// the stage spans of `pipeline` (one stage on bank 0 when it is empty)
/// and gives every layer its op, widths, buffer addresses (the cursor
/// restarts at every stage, which owns its bank's Buffer subarray) and
/// one tile per [`tile_spans`] entry of its [`weight_matrix`] on
/// `mat`-sized mats. Conv staging follows [`conv_staging`] for
/// `buffer_words`. `CommandRunner` compiles exactly this plan and
/// calibrates its shifts, ReLU flags and bias peaks; [`lower_program`]
/// bounds them statically instead. The stage list is taken as given:
/// [`check_pipeline`](crate::check_pipeline) gates it at runtime,
/// [`analyze_program`]'s stage-graph check statically.
///
/// # Errors
///
/// Returns a human-readable reason for a layer with no in-memory
/// lowering: LRN falls back to the host ([`Code::P015`] territory, not
/// this pass's), and a mean pool too wide for a nonzero 1/n level has
/// no mux programming.
pub fn lower_layout(
    spec: &NetworkSpec,
    pipeline: &[PipelineStage],
    buffer_words: usize,
    mat: (usize, usize),
    scheme: &ComposingScheme,
) -> Result<ProgramPlan, String> {
    let n_layers = spec.layers().len();
    let stages: Vec<ProgramStage> = if pipeline.is_empty() {
        vec![ProgramStage { bank: 0, layers: (0, n_layers) }]
    } else {
        let mut next = 0usize;
        pipeline
            .iter()
            .map(|ps| {
                let start = next;
                next += ps.layers.len();
                ProgramStage { bank: ps.bank, layers: (start, next) }
            })
            .collect()
    };
    let mut layers = Vec::with_capacity(n_layers);
    for stage in &stages {
        let mut buf_cursor = 0u64;
        for index in stage.layers.0..stage.layers.1 {
            let Some(layer_spec) = spec.layers().get(index) else {
                break; // A malformed stage span; the stage-graph check reports it.
            };
            let op = match *layer_spec {
                LayerSpec::FullyConnected { .. } => ProgramOp::Fc,
                LayerSpec::Conv { in_ch, out_ch, kernel, in_h, in_w, padding } => {
                    let (out_h, out_w) = layer_spec
                        .conv_out_dims()
                        .unwrap_or((1, 1));
                    let staging = conv_staging(in_ch, kernel, in_w, out_w, buffer_words);
                    ProgramOp::Conv {
                        in_ch,
                        out_ch,
                        kernel,
                        padding,
                        in_h,
                        in_w,
                        out_h,
                        out_w,
                        resident: staging.resident,
                        chunk_pixels: staging.chunk_pixels,
                    }
                }
                LayerSpec::Pool { kind, channels, in_h, in_w, window } => {
                    let mean = kind == PoolKind::Mean;
                    // The quantized 1/n reciprocal the mux cells program;
                    // rescaling divides it back out.
                    let level = if mean {
                        mean_pool_weights(window * window, scheme.weight_half_bits())
                            .map(|w| i64::from(w[0]))
                            .map_err(|e| format!("layer {index}: {e}"))?
                    } else {
                        0
                    };
                    ProgramOp::Pool { mean, channels, in_h, in_w, window, level }
                }
                LayerSpec::Lrn { .. } => {
                    return Err(format!(
                        "layer {index}: LRN has no in-memory lowering (host fallback)"
                    ));
                }
            };
            let inputs = layer_spec.inputs();
            let weight_shape = weight_matrix(layer_spec);
            let tiles = weight_shape.map_or(0, |shape| tile_spans(shape, mat).count());
            let layer = ProgramLayer {
                op,
                inputs,
                outputs: layer_spec.outputs(),
                in_addr: buf_cursor,
                out_addr: buf_cursor + op.staging_words(inputs) as u64,
                requant_shift: 0,
                relu: false,
                bias_peak: 0,
                weight_shape,
                tiles: vec![ProgramTile { aliased: false, write_armed: false }; tiles],
            };
            buf_cursor = layer.out_addr;
            layers.push(layer);
        }
    }
    let recycle_credits = pipeline_credits(stages.len());
    Ok(ProgramPlan { layers, stages, buffer_words, recycle_credits })
}

/// Statically lowers `(spec, mapping)` into the [`ProgramPlan`] the
/// runner compiles, without programming a single mat: the layout is
/// [`lower_layout`]'s, and requantization shifts come from the interval
/// analysis's own worst-case bounds instead of a calibration pass. Bias
/// magnitudes are modeled at the dot-span bound (§III-D assumes bias
/// never dominates the dot product), and no layer is taken to apply
/// ReLU (activations are unknown at spec level; the wider interval is
/// the sound one). Tile counts are the runner's and the mapping's alike,
/// since both cut [`weight_matrix`] with [`tile_spans`].
///
/// # Errors
///
/// As [`lower_layout`].
pub fn lower_program(
    spec: &NetworkSpec,
    target: &Target,
    mapping: &NetworkMapping,
) -> Result<ProgramPlan, String> {
    let scheme = &target.scheme;
    let mat = (target.hw.mat_rows, target.hw.mat_cols);
    let mut plan = lower_layout(spec, &mapping.pipeline, target.buffer_words, mat, scheme)?;
    let code_max = i128::from(scheme.input_code_max());
    let w_max = crate::intervals::weight_magnitude(target);
    let mut act = Interval { lo: 0, hi: code_max };
    for layer in &mut plan.layers {
        // Bias bound at the dot span, then the shift the runner's
        // `bits - Pin` calibration would pick for the worst case.
        let dot = crate::intervals::merged_interval(layer, act, w_max);
        layer.bias_peak = i64::try_from(dot.abs_max()).unwrap_or(i64::MAX);
        let merged = crate::intervals::merged_interval(layer, act, w_max);
        if !matches!(layer.op, ProgramOp::Pool { mean: false, .. }) {
            layer.requant_shift = static_shift(merged.abs_max(), scheme);
        }
        act = merged
            .shift_right(u32::from(layer.requant_shift).min(63))
            .clamp(-code_max, code_max);
    }
    Ok(plan)
}

/// Pass 3(a): word-granular FF-buffer region dataflow.
fn check_regions(plan: &ProgramPlan) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let cap = plan.buffer_words as u64;
    for stage in &plan.stages {
        let span_end = stage.layers.1.min(plan.layers.len());
        let layers = &plan.layers[stage.layers.0.min(span_end)..span_end];
        // (start, end, layer index) of every staging window in the stage.
        let mut windows: Vec<(u64, u64, usize)> = Vec::with_capacity(layers.len());
        for (off, layer) in layers.iter().enumerate() {
            let index = stage.layers.0 + off;
            let span = Span::Layer { index, entity: layer.op.describe() };
            let required = layer.op.staging_words(layer.inputs) as u64;
            let declared = layer.out_addr.saturating_sub(layer.in_addr);
            if layer.out_addr < layer.in_addr || declared < required {
                diags.push(Diagnostic::new(
                    Code::P024,
                    span.clone(),
                    format!(
                        "op reads {required} staged words at {} but only {declared} \
                         are defined before use",
                        layer.in_addr
                    ),
                ));
            }
            if layer.in_addr + required > cap {
                diags.push(Diagnostic::new(
                    Code::P025,
                    span.clone(),
                    format!(
                        "staging region [{}, {}) spills past the {cap}-word FF buffer",
                        layer.in_addr,
                        layer.in_addr + required
                    ),
                ));
            }
            // Live output writes: FC stores its full output vector at
            // out_addr after every evaluation; conv/pool feature maps
            // stay Mem-resident and only the stage-boundary bursts
            // touch the buffer.
            let is_stage_last = off + 1 == layers.len();
            let out_words = match layer.op {
                ProgramOp::Fc => layer.outputs as u64,
                _ if is_stage_last => {
                    layer.outputs.clamp(1, WINDOW_IO_CHUNK_WORDS) as u64
                }
                _ => 0,
            };
            if out_words > 0 && layer.out_addr + out_words > cap {
                diags.push(Diagnostic::new(
                    Code::P025,
                    span.clone(),
                    format!(
                        "live output write [{}, {}) spills past the {cap}-word FF buffer",
                        layer.out_addr,
                        layer.out_addr + out_words
                    ),
                ));
            }
            // Overlap against every earlier staging window in the stage:
            // the cursor invariant makes them pairwise disjoint, so any
            // intersection means two live regions share words.
            let start = layer.in_addr;
            let end = layer.in_addr + required;
            for &(s0, e0, other) in &windows {
                if start < e0 && s0 < end {
                    diags.push(Diagnostic::new(
                        Code::P025,
                        span.clone(),
                        format!(
                            "staging region [{start}, {end}) overlaps layer {other}'s \
                             live region [{s0}, {e0})"
                        ),
                    ));
                }
            }
            windows.push((start, end, index));
            // Resident-conv ring schedule: must match the shared
            // `conv_staging` contract, or staging row `iy` into slot
            // `iy % kernel` clobbers a halo row the current output row
            // still gathers from.
            if let ProgramOp::Conv {
                in_ch,
                kernel,
                in_w,
                out_w,
                resident,
                chunk_pixels,
                ..
            } = layer.op
            {
                let cs = conv_staging(in_ch, kernel, in_w, out_w, plan.buffer_words);
                let contract_chunk = if cs.resident { cs.chunk_pixels } else { 1 };
                if resident != cs.resident || chunk_pixels != contract_chunk {
                    diags.push(Diagnostic::new(
                        Code::P026,
                        span.clone(),
                        format!(
                            "ring schedule (resident={resident}, chunk_pixels=\
                             {chunk_pixels}) deviates from the conv_staging contract \
                             (resident={}, chunk_pixels={contract_chunk}): a halo row \
                             still read by the current output row would be clobbered \
                             or the ring overruns its residency budget",
                            cs.resident
                        ),
                    ));
                }
                if resident {
                    let slot_w = (in_ch * in_w) as u64;
                    let chunk_words = (chunk_pixels * in_ch * kernel * kernel) as u64;
                    let ring_avail = declared.saturating_sub(chunk_words);
                    let slots = ring_avail.checked_div(slot_w).unwrap_or(0);
                    if chunk_pixels == 0 || slots < kernel as u64 {
                        diags.push(Diagnostic::new(
                            Code::P026,
                            span,
                            format!(
                                "declared staging window holds {slots} ring slot(s) \
                                 but the schedule keys rows by `iy % {kernel}`: a \
                                 still-live halo row shares a slot with a newer row"
                            ),
                        ));
                    }
                }
            }
        }
    }
    diags
}

/// Pass 3(c): shared-tile write-after-alias proof.
fn check_aliasing(plan: &ProgramPlan, mapping: &NetworkMapping) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (index, layer) in plan.layers.iter().enumerate() {
        let armed_aliased =
            layer.tiles.iter().filter(|t| t.aliased && t.write_armed).count();
        if armed_aliased > 0 {
            let refs = mapping.layers.get(index).map_or(1, |l| l.tile_refs.max(1));
            diags.push(Diagnostic::new(
                Code::P029,
                Span::Layer { index, entity: layer.op.describe() },
                format!(
                    "{armed_aliased} tile(s) left write-armed (Program function) while \
                     their pair is shared ({refs} placement(s) per tile): a \
                     program/calibrate would write through the alias — copy-on-write \
                     has not triggered"
                ),
            ));
        }
    }
    diags
}

/// Pass 3(d): stage-channel graph deadlock/stall check. The engine's
/// channel graph is a linear chain of forward edges (one per stage
/// boundary, unbounded) closed by a recycle edge carrying
/// `recycle_credits` initial tokens from the final stage back to stage
/// 0. That graph is deadlock-free for every batch size iff the chain is
/// exactly linear — contiguous layer spans on strictly increasing banks
/// (a duplicate bank leaves a stage with no thread, so its channel
/// never drains) — and at least one credit exists to admit the first
/// packet.
fn check_stage_graph(plan: &ProgramPlan) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if plan.stages.is_empty() {
        diags.push(Diagnostic::new(
            Code::P030,
            Span::Network,
            "plan has no stages: the channel chain is empty and no packet can flow",
        ));
        return diags;
    }
    let mut expected = 0usize;
    let mut prev_bank: Option<usize> = None;
    for (index, stage) in plan.stages.iter().enumerate() {
        let span = Span::Stage { index, bank: stage.bank };
        if stage.layers.1 <= stage.layers.0 {
            diags.push(Diagnostic::new(
                Code::P030,
                span.clone(),
                format!(
                    "empty layer span [{}, {}): the stage thread would forward \
                     nothing and the chain stalls",
                    stage.layers.0, stage.layers.1
                ),
            ));
        }
        if stage.layers.0 != expected {
            diags.push(Diagnostic::new(
                Code::P030,
                span.clone(),
                format!(
                    "layer span starts at {} but the previous stage ended at \
                     {expected}: the forward channel chain is broken",
                    stage.layers.0
                ),
            ));
        }
        expected = stage.layers.1.max(expected);
        if let Some(prev) = prev_bank {
            if stage.bank <= prev {
                diags.push(Diagnostic::new(
                    Code::P030,
                    span,
                    format!(
                        "bank {} does not increase over the previous stage's bank \
                         {prev}: the duplicate stage gets no thread and its channel \
                         never drains",
                        stage.bank
                    ),
                ));
            }
        }
        prev_bank = Some(stage.bank);
    }
    if expected != plan.layers.len() {
        diags.push(Diagnostic::new(
            Code::P030,
            Span::Network,
            format!(
                "stages cover {expected} of {} layers: packets reaching the final \
                 stage would carry an unfinished activation",
                plan.layers.len()
            ),
        ));
    }
    if plan.stages.len() > 1 && plan.recycle_credits == 0 {
        diags.push(Diagnostic::new(
            Code::P030,
            Span::Network,
            "recycle edge carries zero credits: stage 0 blocks on recv before the \
             final stage can ever feed the recycle channel — deadlock on the first \
             packet",
        ));
    }
    diags
}

/// Pass 3 entry point: abstractly interprets the lowered command
/// program `plan` against the `spec`/`target`/`mapping` it was compiled
/// from, running the four sub-analyses (region dataflow, interval
/// precision, shared-tile aliasing, stage-graph deadlock freedom).
/// Diagnostics come back in the canonical deterministic order.
pub fn analyze_program(
    spec: &NetworkSpec,
    target: &Target,
    mapping: &NetworkMapping,
    plan: &ProgramPlan,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if plan.layers.len() != spec.layers().len() {
        diags.push(Diagnostic::new(
            Code::P001,
            Span::Network,
            format!(
                "plan has {} layers but the spec has {}",
                plan.layers.len(),
                spec.layers().len()
            ),
        ));
    }
    diags.extend(check_regions(plan));
    diags.extend(crate::intervals::check_intervals(target, plan));
    diags.extend(check_aliasing(plan, mapping));
    diags.extend(check_stage_graph(plan));
    sort_diagnostics(&mut diags);
    diags
}
