//! Pass 1 — the static deployment verifier.
//!
//! [`analyze`] checks every invariant the runtime used to trust, before a
//! single cycle is simulated: crossbar tiling arithmetic, pair-array and
//! precision budgets (paper §III-D), bank and FF-buffer capacity,
//! pipeline-stage legality (§IV-B), and morphing-state legality (§IV-C —
//! no mat may be both memory-mapped and compute-mapped).
//!
//! The function is pure: it inspects a [`NetworkSpec`], a [`Target`], and
//! a [`NetworkMapping`] and returns diagnostics. `PrimeSystem::deploy`
//! refuses to deploy when any diagnostic is `Error`-severity.

use prime_circuits::ComposingScheme;
use prime_compiler::{lower_layer, HwTarget, LayerMapping, NetworkMapping, NnScale, PipelineStage};
use prime_mem::MemGeometry;
use prime_nn::{LayerSpec, NetworkSpec};

use crate::diag::{Code, Diagnostic, Span};

/// Utilization below this fraction of the allocated FF cells triggers the
/// advisory [`Code::P013`] warning.
pub const LOW_UTILIZATION_THRESHOLD: f64 = 0.02;

/// Burst width (in 64-bit words) used when a stage-boundary activation
/// belongs to a conv/pool layer: those feature maps stay resident in the
/// Mem subarrays and stream through the FF buffer in bursts of at most
/// this many words, so the buffer never needs to hold a full feature
/// map. The runtime (`CommandRunner` stage transfers in `prime-core`)
/// and the verifier's [`Code::P019`] staging accounting share this
/// constant.
pub const WINDOW_IO_CHUNK_WORDS: usize = 256;

/// A single conv layer's row ring + window chunk may occupy at most
/// `buffer_words / CONV_RESIDENT_BUDGET_DIVISOR` of the FF buffer to run
/// the weight-stationary row-reuse schedule; beyond that the runner falls
/// back to per-pixel window staging ([`Code::P020`]). The divisor leaves
/// the rest of the buffer for FC staging, boundary bursts, and the other
/// layers sharing the stage.
pub const CONV_RESIDENT_BUDGET_DIVISOR: usize = 4;

/// Buffer-staging plan for one conv layer, shared by the runtime
/// (`CommandRunner` compile in `prime-core`) and the verifier's
/// [`Code::P019`]/[`Code::P020`] accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvStaging {
    /// Whether the layer runs the weight-stationary row-reuse schedule
    /// (row ring + chunk region resident in the FF buffer).
    pub resident: bool,
    /// Words occupied by the `kernel`-row input ring (resident only).
    pub ring_words: usize,
    /// Output pixels evaluated per staged window chunk (1 when falling
    /// back to per-pixel staging).
    pub chunk_pixels: usize,
    /// Total buffer words the layer's staging occupies: ring + chunk when
    /// resident, a single im2col window otherwise.
    pub words: usize,
}

/// Computes the conv staging plan for a layer shape and buffer capacity.
///
/// The row ring keeps the `kernel` input rows a row of output pixels
/// reads (`kernel * in_ch * in_w` words, halo rows reused across output
/// rows); the chunk region batches up to [`WINDOW_IO_CHUNK_WORDS`] of
/// gathered windows so tile traversal amortizes over
/// `chunk_pixels` output pixels. A layer is resident iff both fit the
/// [`CONV_RESIDENT_BUDGET_DIVISOR`] budget.
pub fn conv_staging(
    in_ch: usize,
    kernel: usize,
    in_w: usize,
    out_w: usize,
    buffer_words: usize,
) -> ConvStaging {
    let window_rows = in_ch * kernel * kernel;
    let ring_words = kernel * in_ch * in_w;
    let chunk_pixels = WINDOW_IO_CHUNK_WORDS
        .checked_div(window_rows)
        .map_or(1, |p| p.clamp(1, out_w.max(1)));
    let chunk_words = chunk_pixels * window_rows;
    let resident =
        ring_words + chunk_words <= buffer_words / CONV_RESIDENT_BUDGET_DIVISOR;
    if resident {
        ConvStaging { resident, ring_words, chunk_pixels, words: ring_words + chunk_words }
    } else {
        ConvStaging { resident, ring_words, chunk_pixels: 1, words: window_rows }
    }
}

/// Everything the verifier needs to know about the deployment target.
#[derive(Debug, Clone, PartialEq)]
pub struct Target {
    /// Composed-weight mat geometry (rows x composed columns, mats, banks).
    pub hw: HwTarget,
    /// The input/weight composing scheme in effect.
    pub scheme: ComposingScheme,
    /// Capacity of each bank's FF buffer subarray, in 64-bit words.
    pub buffer_words: usize,
    /// Bits one physical ReRAM cell can hold in compute mode (MLC budget).
    pub cell_bits: u8,
    /// Bits one physical input driver can encode per signal.
    pub input_signal_bits: u8,
    /// Physical (uncomposed) bitlines per mat; must be twice the composed
    /// column count because weights pair two adjacent cells.
    pub phys_mat_cols: usize,
    /// Width of the per-mat reference counter in the controller's mat
    /// table. Every placement of a tile bumps the owning mat's counter,
    /// so a layer's reference count must fit in this many bits.
    pub tile_ref_bits: u8,
}

impl Target {
    /// Builds a target from a memory geometry and a composing scheme,
    /// using the paper's device assumptions (4-bit MLC compute cells,
    /// 3-bit input drivers).
    ///
    /// # Errors
    ///
    /// Propagates [`prime_compiler::CompileError`] for degenerate
    /// geometries.
    pub fn from_geometry(
        geometry: &MemGeometry,
        scheme: ComposingScheme,
    ) -> Result<Self, prime_compiler::CompileError> {
        let hw = HwTarget::from_geometry(geometry)?;
        Ok(Target {
            hw,
            scheme,
            buffer_words: (geometry.subarray_bytes() / 8) as usize,
            cell_bits: 4,
            input_signal_bits: 3,
            phys_mat_cols: geometry.mat_cols,
            tile_ref_bits: 16,
        })
    }

    /// The paper's default target: 16 GB geometry, `Pin=6 Pw=8 Po=6 PN=8`
    /// composing scheme, 4-bit MLC cells, 3-bit input signals.
    pub fn prime_default() -> Self {
        let geometry = MemGeometry::prime_default();
        Target {
            hw: HwTarget::prime_default(),
            scheme: ComposingScheme::prime_default(),
            buffer_words: (geometry.subarray_bytes() / 8) as usize,
            cell_bits: 4,
            input_signal_bits: 3,
            phys_mat_cols: geometry.mat_cols,
            tile_ref_bits: 16,
        }
    }

    /// Largest reference count the mat table can record for one shared
    /// tile (`2^tile_ref_bits - 1`, saturating at `usize::MAX`).
    pub fn max_tile_refs(&self) -> usize {
        if u32::from(self.tile_ref_bits) >= usize::BITS {
            usize::MAX
        } else {
            (1usize << self.tile_ref_bits) - 1
        }
    }
}

fn ceil_log2(n: usize) -> u32 {
    if n <= 1 { 0 } else { usize::BITS - (n - 1).leading_zeros() }
}

fn layer_span(index: usize, layer: &LayerSpec) -> Span {
    Span::Layer { index, entity: layer.describe() }
}

/// Checks pipeline-stage legality shared by the verifier and the runtime:
/// no empty stage, banks strictly increasing, contiguous layer coverage of
/// exactly `n_layers` layers, stages within the first `n_banks` banks, and
/// — when `mats_per_bank` is known — no bank-span overlap between
/// consecutive stages (the morphing-state conflict) and no multi-layer
/// stage overflowing a bank.
pub fn check_pipeline(
    pipeline: &[PipelineStage],
    n_layers: usize,
    n_banks: usize,
    mats_per_bank: Option<usize>,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut next_layer = 0usize;
    let mut prev: Option<(usize, usize)> = None; // (bank, banks spanned)
    for (index, stage) in pipeline.iter().enumerate() {
        let span = Span::Stage { index, bank: stage.bank };
        if stage.layers.is_empty() {
            diags.push(Diagnostic::new(
                Code::P006,
                span.clone(),
                "pipeline stage maps no layers".to_string(),
            ));
        }
        if let Some((prev_bank, prev_span)) = prev {
            if stage.bank <= prev_bank {
                diags.push(Diagnostic::new(
                    Code::P005,
                    span.clone(),
                    format!(
                        "stage {index} targets bank {} but the previous stage already \
                         occupies bank {prev_bank}; stage banks must strictly increase",
                        stage.bank
                    ),
                ));
            } else if stage.bank < prev_bank + prev_span {
                diags.push(Diagnostic::new(
                    Code::P008,
                    span.clone(),
                    format!(
                        "stage {index} starts at bank {} inside the {prev_span}-bank span \
                         of the previous stage (banks {prev_bank}..{}); a mat cannot be \
                         compute-mapped by two stages at once",
                        stage.bank,
                        prev_bank + prev_span
                    ),
                ));
            }
        }
        if stage.bank >= n_banks {
            diags.push(Diagnostic::new(
                Code::P004,
                span.clone(),
                format!(
                    "stage {index} targets bank {} but only {n_banks} bank(s) exist",
                    stage.bank
                ),
            ));
        }
        let mut spanned = 1usize;
        if let Some(capacity) = mats_per_bank {
            spanned = stage.mats.div_ceil(capacity).max(1);
            if stage.mats > capacity && stage.layers.len() > 1 {
                diags.push(Diagnostic::new(
                    Code::P004,
                    span.clone(),
                    format!(
                        "stage {index} packs {} layers into {} mats but a bank holds \
                         {capacity}; only a single oversized layer may span banks",
                        stage.layers.len(),
                        stage.mats
                    ),
                ));
            }
            if stage.bank + spanned > n_banks {
                diags.push(Diagnostic::new(
                    Code::P003,
                    span.clone(),
                    format!(
                        "stage {index} spans banks {}..{} but only {n_banks} bank(s) exist",
                        stage.bank,
                        stage.bank + spanned
                    ),
                ));
            }
        }
        for &layer in &stage.layers {
            if layer != next_layer {
                diags.push(Diagnostic::new(
                    Code::P006,
                    span.clone(),
                    format!(
                        "stage {index} maps layer {layer} but layer {next_layer} is the \
                         next uncovered layer; coverage must be contiguous and in order"
                    ),
                ));
                return diags;
            }
            next_layer += 1;
        }
        prev = Some((stage.bank, spanned));
    }
    if !pipeline.is_empty() && next_layer != n_layers {
        diags.push(Diagnostic::new(
            Code::P006,
            Span::Network,
            format!("pipeline covers {next_layer} of {n_layers} layers"),
        ));
    }
    diags
}

/// The aliased weight tiles of one layer: every placement of the
/// layer's tiles — in-mat replicas, spare-mat replicas, whole-network
/// copies — references the same unique tiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedTileGroup {
    /// Index of the layer whose weights the tiles hold.
    pub layer: usize,
    /// Unique physical tiles in the group.
    pub tiles: usize,
    /// Placements referencing each tile (the mat-table refcount).
    pub refs: usize,
}

/// Derives the shared-tile groups a mapping implies: one group per
/// weight layer, referenced [`LayerMapping::tile_refs`] times.
///
/// [`LayerMapping::tile_refs`]: prime_compiler::LayerMapping::tile_refs
pub fn shared_layout(mapping: &NetworkMapping) -> Vec<SharedTileGroup> {
    mapping
        .layers
        .iter()
        .enumerate()
        .filter(|(_, layer)| layer.base_mats > 0)
        .map(|(index, layer)| SharedTileGroup {
            layer: index,
            tiles: layer.base_mats,
            refs: layer.tile_refs,
        })
        .collect()
}

/// Checks that every group's reference count fits the mat table's
/// per-mat counter (P022). Pure over the groups so fixtures can probe
/// violating layouts directly.
pub fn check_shared_layout(groups: &[SharedTileGroup], target: &Target) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for group in groups {
        let span = Span::Layer {
            index: group.layer,
            entity: format!("shared tile group ({} tile(s), {} refs)", group.tiles, group.refs),
        };
        if group.refs == 0 {
            diags.push(Diagnostic::new(
                Code::P022,
                span,
                "shared tile group records zero references; an unreferenced tile \
                 would be reclaimed while still mapped"
                    .to_string(),
            ));
        } else if group.refs > target.max_tile_refs() {
            diags.push(Diagnostic::new(
                Code::P022,
                span,
                format!(
                    "shared tile referenced by {} placements but the {}-bit mat-table \
                     counter saturates at {}",
                    group.refs,
                    target.tile_ref_bits,
                    target.max_tile_refs()
                ),
            ));
        }
    }
    diags
}

/// Statically verifies a mapping against the spec it claims to implement
/// and the target it will deploy on. Returns every finding; the caller
/// decides what blocks (deployment refuses on `Error` severity).
pub fn analyze(spec: &NetworkSpec, target: &Target, mapping: &NetworkMapping) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let hw = &target.hw;
    let capacity = hw.mats_per_bank();
    let scheme = &target.scheme;

    // Pair-array accounting (§III-B): signed weights need a positive and a
    // negative physical column, so composed columns are half the bitlines.
    if target.phys_mat_cols != 2 * hw.mat_cols {
        diags.push(Diagnostic::new(
            Code::P012,
            Span::Network,
            format!(
                "target exposes {} composed columns over {} physical bitlines; the \
                 positive/negative pair split requires exactly 2 bitlines per composed weight",
                hw.mat_cols, target.phys_mat_cols
            ),
        ));
    }

    // Precision budgets (§III-D): the scheme's physical halves must fit the
    // MLC cell and the input driver.
    if scheme.weight_half_bits() > target.cell_bits {
        diags.push(Diagnostic::new(
            Code::P010,
            Span::Network,
            format!(
                "composing scheme needs {}-bit cells but the MLC budget is {} bits",
                scheme.weight_half_bits(),
                target.cell_bits
            ),
        ));
    }
    if scheme.input_half_bits() > target.input_signal_bits {
        diags.push(Diagnostic::new(
            Code::P010,
            Span::Network,
            format!(
                "composing scheme needs {}-bit input signals but the driver budget is {} bits",
                scheme.input_half_bits(),
                target.input_signal_bits
            ),
        ));
    }

    if mapping.layers.is_empty() {
        diags.push(Diagnostic::new(Code::P016, Span::Network, "mapping maps no layers"));
        return diags;
    }
    if mapping.layers.len() != spec.layers().len() {
        diags.push(Diagnostic::new(
            Code::P001,
            Span::Network,
            format!(
                "spec `{}` has {} layers but the mapping carries {}",
                spec.name(),
                spec.layers().len(),
                mapping.layers.len()
            ),
        ));
        return diags;
    }

    // Per-layer checks: spec drift, tiling arithmetic, truncation loss.
    for (index, (lm, ls)) in mapping.layers.iter().zip(spec.layers()).enumerate() {
        let span = layer_span(index, ls);
        if lm.layer != *ls {
            diags.push(Diagnostic::new(
                Code::P001,
                span.clone(),
                format!(
                    "mapping layer {index} is `{}` but the spec says `{}`",
                    lm.layer.describe(),
                    ls.describe()
                ),
            ));
            continue;
        }
        // The mapping must tile the layer as the compiler's own lowering
        // of the spec layer does. The text carries all five counts.
        let tiling = |m: &LayerMapping| {
            format!(
                "{}x{} cells = {}x{} tiles ({} mats)",
                m.rows_needed, m.cols_needed, m.row_tiles, m.col_tiles, m.base_mats
            )
        };
        let rows = match lower_layer(ls, hw) {
            Ok(want) => {
                let (need, got) = (tiling(&want), tiling(lm));
                if need != got {
                    diags.push(Diagnostic::new(
                        Code::P002,
                        span.clone(),
                        format!(
                            "layer needs {need} on {}x{} mats, but the mapping records {got}",
                            hw.mat_rows, hw.mat_cols
                        ),
                    ));
                }
                want.rows_needed
            }
            Err(e) => {
                diags.push(Diagnostic::new(Code::P002, span.clone(), e.to_string()));
                0
            }
        };
        if lm.in_mat_replication == 0 {
            diags.push(Diagnostic::new(
                Code::P002,
                span.clone(),
                "in-mat replication factor must be at least 1",
            ));
        }
        // Kernel replication legality (§IV-B): replicas pack diagonally
        // inside a single mat, so a replicated layer must tile to one mat
        // and every copy's rows and columns must fit the mat edge.
        if lm.in_mat_replication > 1 {
            if lm.base_mats != 1 {
                diags.push(Diagnostic::new(
                    Code::P018,
                    span.clone(),
                    format!(
                        "in-mat replication x{} on a layer tiling to {} mats; only \
                         single-mat kernels may replicate inside a mat",
                        lm.in_mat_replication, lm.base_mats
                    ),
                ));
            } else if lm.in_mat_replication * lm.rows_needed > hw.mat_rows
                || lm.in_mat_replication * lm.cols_needed > hw.mat_cols
            {
                diags.push(Diagnostic::new(
                    Code::P018,
                    span.clone(),
                    format!(
                        "{} diagonal copies of a {}x{} kernel exceed the {}x{} mat",
                        lm.in_mat_replication,
                        lm.rows_needed,
                        lm.cols_needed,
                        hw.mat_rows,
                        hw.mat_cols
                    ),
                ));
            }
        }
        if ls.needs_cpu_fallback() {
            diags.push(Diagnostic::new(
                Code::P015,
                span.clone(),
                "LRN has no in-memory implementation and will run on the host CPU (§III-E)",
            ));
        }
        // Po truncation (Eq. 3): a full-accuracy result of a `rows`-input
        // dot product carries pin + pw + ceil(log2(rows)) bits; keeping
        // only the highest Po bits discards the remainder.
        if ls.is_weight_layer() && rows > 0 {
            let full_bits =
                u32::from(scheme.input_bits()) + u32::from(scheme.weight_bits()) + ceil_log2(rows);
            let po = u32::from(scheme.output_bits());
            if po < full_bits {
                diags.push(Diagnostic::new(
                    Code::P011,
                    span,
                    format!(
                        "a {rows}-input dot product carries up to {full_bits} result bits; \
                         Po={po} keeps the highest {po} and truncates {} (§III-D, lossy \
                         by design — verify accuracy targets)",
                        full_bits - po
                    ),
                ));
            }
        }
    }

    // Whole-network capacity accounting.
    let base_mats: usize = mapping.layers.iter().map(|l| l.base_mats).sum();
    if mapping.base_mats != base_mats {
        diags.push(Diagnostic::new(
            Code::P003,
            Span::Network,
            format!(
                "mapping claims {} base mats but its layers sum to {base_mats}",
                mapping.base_mats
            ),
        ));
    }
    if base_mats > hw.total_mats() {
        diags.push(Diagnostic::new(
            Code::P003,
            Span::Network,
            format!(
                "network needs {base_mats} mats but the memory has {} FF mats in total",
                hw.total_mats()
            ),
        ));
    }
    let total_with_replicas: usize = mapping.layers.iter().map(|l| l.total_mats()).sum();
    if total_with_replicas > mapping.allocated_mats && mapping.allocated_mats > 0 {
        diags.push(Diagnostic::new(
            Code::P003,
            Span::Network,
            format!(
                "replication inflates the network to {total_with_replicas} mats but only \
                 {} are allocated",
                mapping.allocated_mats
            ),
        ));
    }

    // Utilization sanity.
    for (label, value) in [
        ("utilization_before", mapping.utilization_before),
        ("utilization_after", mapping.utilization_after),
    ] {
        if !(0.0..=1.0).contains(&value) || value.is_nan() {
            diags.push(Diagnostic::new(
                Code::P014,
                Span::Network,
                format!("{label} = {value} is outside [0, 1]"),
            ));
        }
    }
    if mapping.utilization_after >= 0.0
        && mapping.utilization_after < mapping.utilization_before
    {
        diags.push(Diagnostic::new(
            Code::P014,
            Span::Network,
            format!(
                "replication cannot lower utilization ({} -> {})",
                mapping.utilization_before, mapping.utilization_after
            ),
        ));
    } else if mapping.utilization_after < LOW_UTILIZATION_THRESHOLD {
        diags.push(Diagnostic::new(
            Code::P013,
            Span::Network,
            format!(
                "FF utilization after replication is {:.4}; most allocated compute mats \
                 would sit idle",
                mapping.utilization_after
            ),
        ));
    }

    // Scale class vs pipeline shape (§IV-B).
    if mapping.pipeline.is_empty() {
        if mapping.scale == NnScale::Large {
            diags.push(Diagnostic::new(
                Code::P007,
                Span::Network,
                "large-scale mapping carries no inter-bank pipeline",
            ));
        }
        if mapping.banks_per_copy > 1 {
            diags.push(Diagnostic::new(
                Code::P007,
                Span::Network,
                format!(
                    "mapping spans {} banks per copy but has no pipeline stages",
                    mapping.banks_per_copy
                ),
            ));
        }
        if base_mats > capacity {
            diags.push(Diagnostic::new(
                Code::P004,
                Span::Network,
                format!(
                    "single-bank mapping needs {base_mats} mats but a bank holds {capacity}"
                ),
            ));
        }
        // Morphing legality for replicated single-bank copies: each copy
        // morphs `banks_per_copy` banks to compute; copies must not share.
        if mapping.copies_across_memory * mapping.banks_per_copy.max(1) > hw.banks {
            diags.push(Diagnostic::new(
                Code::P008,
                Span::Network,
                format!(
                    "{} copies x {} bank(s) each exceed the memory's {} banks; copies \
                     would compute-map the same mats",
                    mapping.copies_across_memory,
                    mapping.banks_per_copy.max(1),
                    hw.banks
                ),
            ));
        }
    } else {
        if mapping.scale != NnScale::Large {
            diags.push(Diagnostic::new(
                Code::P007,
                Span::Network,
                format!(
                    "{:?}-scale mapping carries a {}-stage pipeline; only large-scale \
                     mappings pipeline across banks",
                    mapping.scale,
                    mapping.pipeline.len()
                ),
            ));
        }
        diags.extend(check_pipeline(
            &mapping.pipeline,
            mapping.layers.len(),
            hw.banks,
            Some(capacity),
        ));
        // Stage mat accounting must agree with the layers it hosts.
        for (index, stage) in mapping.pipeline.iter().enumerate() {
            let expected: usize = stage
                .layers
                .iter()
                .filter_map(|&l| mapping.layers.get(l))
                .map(|l| l.total_mats())
                .sum();
            if stage.mats != expected {
                diags.push(Diagnostic::new(
                    Code::P004,
                    Span::Stage { index, bank: stage.bank },
                    format!(
                        "stage records {} mats but its layers occupy {expected}",
                        stage.mats
                    ),
                ));
            }
        }
    }

    // FF-buffer capacity (§III-C): each stage stages its FC input vectors
    // and final outputs in the bank's buffer subarray, plus one im2col /
    // pooling window per conv/pool layer (the feature maps themselves stay
    // Mem-resident and stream through in bursts).
    let stage_layer_sets: Vec<Vec<usize>> = if mapping.pipeline.is_empty() {
        vec![(0..mapping.layers.len()).collect()]
    } else {
        mapping.pipeline.iter().map(|s| s.layers.clone()).collect()
    };
    for (index, layer_set) in stage_layer_sets.iter().enumerate() {
        let stage_span = || {
            if mapping.pipeline.is_empty() {
                Span::Network
            } else {
                Span::Stage { index, bank: mapping.pipeline[index].bank }
            }
        };
        let mut words = 0usize;
        let mut last_fc_outputs = 0usize;
        // Conv/pool feature maps stay Mem-resident; only their im2col /
        // pooling windows are staged, plus the boundary transfer bursts.
        let mut window_words = 0usize;
        for &l in layer_set {
            match mapping.layers.get(l).map(|m| m.layer) {
                Some(LayerSpec::FullyConnected { inputs, outputs }) => {
                    words += inputs;
                    last_fc_outputs = outputs;
                }
                Some(spec @ LayerSpec::Conv { in_ch, kernel, in_w, .. }) => {
                    let out_w = spec.conv_out_dims().map_or(0, |(_, w)| w);
                    let staging =
                        conv_staging(in_ch, kernel, in_w, out_w, target.buffer_words);
                    window_words += staging.words + 1;
                    if !staging.resident {
                        diags.push(Diagnostic::new(
                            Code::P020,
                            Span::Layer { index: l, entity: spec.describe() },
                            format!(
                                "row ring ({} words) + window chunk exceeds the \
                                 residency budget ({} of {} buffer words); the \
                                 runner stages windows per pixel for this layer",
                                staging.ring_words,
                                target.buffer_words / CONV_RESIDENT_BUDGET_DIVISOR,
                                target.buffer_words
                            ),
                        ));
                    }
                }
                Some(LayerSpec::Pool { window, .. }) => {
                    window_words += window * window;
                }
                _ => {}
            }
        }
        words += last_fc_outputs + window_words;
        if words > target.buffer_words {
            diags.push(Diagnostic::new(
                Code::P009,
                stage_span(),
                format!(
                    "stage working set needs {words} buffer words but the FF buffer \
                     holds {}",
                    target.buffer_words
                ),
            ));
        }
        if window_words > 0 && window_words + 2 * WINDOW_IO_CHUNK_WORDS > target.buffer_words {
            diags.push(Diagnostic::new(
                Code::P019,
                stage_span(),
                format!(
                    "staging the stage's conv/pool windows needs {window_words} buffer \
                     words (+{} for boundary bursts) but the FF buffer holds {}",
                    2 * WINDOW_IO_CHUNK_WORDS,
                    target.buffer_words
                ),
            ));
        }
    }

    // Every placement of a tile aliases it: the per-tile reference
    // count must fit the mat table (P022).
    diags.extend(check_shared_layout(&shared_layout(mapping), target));

    crate::diag::sort_diagnostics(&mut diags);
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use prime_compiler::{map_network, CompileOptions};
    use prime_nn::MlBench;

    use crate::diag::{has_errors, Severity};

    /// Deployment options: `PrimeSystem::deploy` maps without replication
    /// (replicas are placed physically at deploy time); the replicated
    /// mapping is an analytic utilization model, not a placement, so the
    /// verifier's placement rules apply to the former.
    const DEPLOY_OPTIONS: CompileOptions =
        CompileOptions { replicate: false, stage_mats_cap: 0 };

    fn default_analyze(bench: MlBench) -> Vec<Diagnostic> {
        let spec = bench.spec();
        let target = Target::prime_default();
        let mapping = map_network(&spec, &target.hw, DEPLOY_OPTIONS).unwrap();
        analyze(&spec, &target, &mapping)
    }

    #[test]
    fn every_mlbench_workload_is_accepted() {
        for bench in MlBench::ALL {
            let diags = default_analyze(bench);
            assert!(
                !has_errors(&diags),
                "{}: unexpected errors:\n{}",
                bench.name(),
                crate::diag::render_human(&diags)
            );
        }
    }

    #[test]
    fn replicated_small_and_medium_mappings_are_accepted() {
        let target = Target::prime_default();
        for bench in [MlBench::Cnn1, MlBench::Cnn2, MlBench::MlpS, MlBench::MlpM, MlBench::MlpL] {
            let spec = bench.spec();
            let mapping = map_network(&spec, &target.hw, CompileOptions::default()).unwrap();
            let diags = analyze(&spec, &target, &mapping);
            assert!(
                !has_errors(&diags),
                "{}: unexpected errors:\n{}",
                bench.name(),
                crate::diag::render_human(&diags)
            );
        }
    }

    #[test]
    fn po_truncation_is_reported_as_warning() {
        let diags = default_analyze(MlBench::MlpS);
        assert!(diags
            .iter()
            .any(|d| d.code == Code::P011 && d.severity == Severity::Warning));
    }

    #[test]
    fn ceil_log2_matches_definition() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(256), 8);
        assert_eq!(ceil_log2(257), 9);
    }

    #[test]
    fn precision_overflow_is_p010() {
        let spec = MlBench::MlpS.spec();
        let mut target = Target::prime_default();
        let mapping = map_network(&spec, &target.hw, DEPLOY_OPTIONS).unwrap();
        target.cell_bits = 2; // scheme needs 4-bit cells
        let diags = analyze(&spec, &target, &mapping);
        assert!(diags.iter().any(|d| d.code == Code::P010), "{diags:?}");
    }

    #[test]
    fn pair_array_mismatch_is_p012() {
        let spec = MlBench::MlpS.spec();
        let mut target = Target::prime_default();
        let mapping = map_network(&spec, &target.hw, DEPLOY_OPTIONS).unwrap();
        target.phys_mat_cols = target.hw.mat_cols; // no room for the negative array
        let diags = analyze(&spec, &target, &mapping);
        assert!(diags.iter().any(|d| d.code == Code::P012), "{diags:?}");
    }

    #[test]
    fn illegal_kernel_replication_is_p018() {
        let spec = MlBench::Cnn1.spec();
        let target = Target::prime_default();
        let mut mapping = map_network(&spec, &target.hw, CompileOptions::default()).unwrap();
        // Inflate the first conv layer's replication past what fits a mat.
        let lm = &mut mapping.layers[0];
        assert!(lm.rows_needed > 0, "expected a weight layer first");
        lm.in_mat_replication = target.hw.mat_rows / lm.rows_needed + 1;
        let diags = analyze(&spec, &target, &mapping);
        assert!(diags.iter().any(|d| d.code == Code::P018), "{diags:?}");
    }

    #[test]
    fn conv_window_staging_overflow_is_p019() {
        let spec = MlBench::Cnn1.spec();
        let mut target = Target::prime_default();
        let mapping = map_network(&spec, &target.hw, DEPLOY_OPTIONS).unwrap();
        // A buffer smaller than one im2col window cannot stage conv inputs.
        target.buffer_words = 16;
        let diags = analyze(&spec, &target, &mapping);
        assert!(diags.iter().any(|d| d.code == Code::P019), "{diags:?}");
    }

    #[test]
    fn conv_workload_stage_accounting_includes_windows_only() {
        // VGG-D's conv feature maps are far larger than the FF buffer; the
        // stage accounting must charge only window-sized staging so the
        // paper's own workload still deploys (the gap this PR closes).
        let diags = default_analyze(MlBench::VggD);
        assert!(
            !diags.iter().any(|d| d.code == Code::P009 || d.code == Code::P019),
            "{diags:?}"
        );
    }

    #[test]
    fn check_pipeline_accepts_compiler_output() {
        let target = Target::prime_default();
        let mapping =
            map_network(&MlBench::VggD.spec(), &target.hw, DEPLOY_OPTIONS).unwrap();
        let diags = check_pipeline(
            &mapping.pipeline,
            mapping.layers.len(),
            target.hw.banks,
            Some(target.hw.mats_per_bank()),
        );
        assert!(!has_errors(&diags), "{diags:?}");
    }

    #[test]
    fn derived_shared_layout_is_always_legal() {
        let target = Target::prime_default();
        let mapping =
            map_network(&MlBench::Cnn1.spec(), &target.hw, CompileOptions::default()).unwrap();
        let groups = shared_layout(&mapping);
        assert!(!groups.is_empty(), "CNN-1 replicates, so sharing must engage");
        assert!(groups.iter().any(|g| g.refs > 1));
        assert!(check_shared_layout(&groups, &target).is_empty());
    }

    #[test]
    fn refcount_overflow_is_p022() {
        let mut target = Target::prime_default();
        target.tile_ref_bits = 2; // counter saturates at 3
        let group = SharedTileGroup { layer: 0, tiles: 1, refs: 4 };
        let diags = check_shared_layout(&[group], &target);
        assert!(diags.iter().any(|d| d.code == Code::P022), "{diags:?}");
        let zero = SharedTileGroup { refs: 0, ..group };
        let diags = check_shared_layout(&[zero], &target);
        assert!(diags.iter().any(|d| d.code == Code::P022), "{diags:?}");
    }
}
