//! Compile-time NN mapping optimization (paper §IV-B1).
//!
//! The compiler lowers a [`NetworkSpec`] onto FF mats:
//!
//! * **Small-scale NNs** (fit one mat) are *replicated* within the mat —
//!   and onto spare mats — so the peripheral-circuit latency is amortized
//!   over several inputs processed simultaneously;
//! * **medium-scale NNs** (fit one bank's FF subarrays) are *split* into
//!   mat-sized tiles whose partial results are *merged* with adds;
//! * **large-scale NNs** use multiple banks with *inter-bank
//!   communication*, running stages as a pipeline.
//!
//! Convolution layers are lowered the way §III-E describes: all elements
//! of the kernels `g_{i,j}` for one output map are pre-programmed down a
//! bitline (`in_ch * k * k` rows, one column per output map), and the
//! layer is evaluated once per output pixel. No layer programs a bias
//! row: the runner adds each bias in the precision-control merge
//! register. [`weight_matrix`] and [`tile_spans`] are the one tiling the
//! mapping, Pass 1 and the runner's placement all read.

use serde::{Deserialize, Serialize};

use prime_nn::{LayerSpec, NetworkSpec};

use crate::error::CompileError;
use crate::target::HwTarget;

/// The paper's three mapping scales.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NnScale {
    /// Fits a single FF mat: replication applies.
    Small,
    /// Fits the FF subarrays of one bank: split-merge applies.
    Medium,
    /// Needs multiple banks: inter-bank pipelining applies.
    Large,
}

/// What the mapping search optimizes for.
///
/// The search enumerates pipeline-split candidates, keeps only those the
/// Pass 1–3 verifiers accept, scores each with a `MappingCostModel`
/// implementation (`prime-core`), and deploys the argmin. Candidates are
/// ordered fixed-default-first and the argmin keeps the first of any
/// tie, so a search that finds nothing better than the paper's default
/// placement deploys it byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Objective {
    /// Minimize the pipeline-interval / per-image latency estimate.
    Latency,
}

impl Objective {
    /// Stable lowercase name, for reports and CLI flags.
    pub fn name(&self) -> &'static str {
        match self {
            Objective::Latency => "latency",
        }
    }
}

/// Compiler knobs. [`map_network`] never searches; the search driver in
/// `prime-core` enumerates concrete candidates via
/// [`enumerate_candidates`] and scores them under an [`Objective`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompileOptions {
    /// Enable the replication optimization (paper enables it; disabling
    /// reproduces the "before replication" utilization numbers).
    pub replicate: bool,
    /// Cap on the FF mats one inter-bank pipeline stage may hold
    /// (large-scale NNs only). `0` means a full bank — the paper's
    /// heuristic. A smaller cap splits the network into more, shorter
    /// stages, trading banks for a shorter bottleneck stage.
    pub stage_mats_cap: usize,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions { replicate: true, stage_mats_cap: 0 }
    }
}

/// How one layer is laid onto FF mats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerMapping {
    /// The layer's shape.
    pub layer: LayerSpec,
    /// Crossbar rows the layer occupies (its [`weight_matrix`] rows; 0
    /// for pooling layers, which use the pooling hardware instead of mats).
    pub rows_needed: usize,
    /// Composed weight columns the layer occupies.
    pub cols_needed: usize,
    /// Number of row tiles after splitting (partial sums to merge).
    pub row_tiles: usize,
    /// Number of column tiles after splitting.
    pub col_tiles: usize,
    /// Mats holding one copy of the layer (`row_tiles * col_tiles`).
    pub base_mats: usize,
    /// Copies packed inside each mat (small layers only).
    pub in_mat_replication: usize,
    /// Additional whole-layer copies on spare mats.
    pub extra_replicas: usize,
    /// Input vectors the layer consumes per inference (1 for FC; one per
    /// output pixel for conv; one per pooled output for pooling).
    pub vectors_per_inference: usize,
    /// Scalar adds needed to merge row-tile partial sums, per inference.
    pub merge_adds: u64,
    /// Placements that reference each unique weight tile of this layer
    /// (in-mat replication x replica mats x whole-network copies; 1 when
    /// nothing is replicated).
    pub tile_refs: usize,
}

impl LayerMapping {
    /// Crossbar evaluation passes per inference, after replication: the
    /// layer's input vectors are distributed over all copies.
    pub fn passes_per_inference(&self) -> u64 {
        if self.base_mats == 0 {
            return 0;
        }
        let copies = (self.in_mat_replication * (1 + self.extra_replicas)).max(1);
        (self.vectors_per_inference as u64).div_ceil(copies as u64)
    }

    /// Cells occupied by the layer's weights (one copy).
    pub fn used_cells(&self) -> u64 {
        (self.rows_needed * self.cols_needed) as u64
    }

    /// Total mats consumed including replicas.
    pub fn total_mats(&self) -> usize {
        self.base_mats * (1 + self.extra_replicas)
    }

    /// Deploy-footprint estimate for this layer: unique weight cells vs.
    /// the physical cells all its placements occupy.
    pub fn footprint(&self) -> LayoutFootprint {
        let refs = self.tile_refs.max(1) as u64;
        LayoutFootprint {
            unique_tiles: self.base_mats,
            placements: self.base_mats * self.tile_refs.max(1),
            unique_cells: self.used_cells(),
            placed_cells: self.used_cells() * refs,
        }
    }
}

/// Estimated deploy footprint of a layer or network: unique weight
/// cells against the physical cells every placement — in-mat
/// replication, spare-mat replicas, whole-network copies — occupies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayoutFootprint {
    /// Unique weight tiles (mats holding distinct codes).
    pub unique_tiles: usize,
    /// Tile placements across all replication dimensions.
    pub placements: usize,
    /// Composed weight cells holding distinct codes.
    pub unique_cells: u64,
    /// Composed weight cells occupied across every placement: the
    /// physical crossbar use, which host-side aliasing does not shrink.
    pub placed_cells: u64,
}

impl LayoutFootprint {
    fn accumulate(&mut self, other: LayoutFootprint) {
        self.unique_tiles += other.unique_tiles;
        self.placements += other.placements;
        self.unique_cells += other.unique_cells;
        self.placed_cells += other.placed_cells;
    }
}

/// In-flight packet budget of the §IV-B thread-per-stage pipeline
/// engine: how many activation vectors may circulate before stage 0
/// blocks on the recycle channel. Two per stage keeps every stage busy
/// (one packet in flight, one queued) while bounding steady-state
/// allocation; the floor of 1 guarantees the recycle loop can always
/// admit the first packet, which the stage-graph deadlock check (P030)
/// relies on. Single source of truth for the runtime engine, the plan
/// metadata the runner exports, and the static verifier.
pub fn pipeline_credits(stages: usize) -> usize {
    (2 * stages).max(1)
}

/// One stage of an inter-bank pipeline (large-scale NNs).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineStage {
    /// Bank (relative to the NN's first bank) hosting the stage.
    pub bank: usize,
    /// Indices into the mapping's layer list.
    pub layers: Vec<usize>,
    /// Mats the stage occupies.
    pub mats: usize,
}

/// The complete mapping of a network onto PRIME.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkMapping {
    /// Workload name.
    pub name: String,
    /// Per-layer mappings.
    pub layers: Vec<LayerMapping>,
    /// Mapping scale class.
    pub scale: NnScale,
    /// Mats for one copy of the network.
    pub base_mats: usize,
    /// Banks one copy of the network occupies.
    pub banks_per_copy: usize,
    /// Mats reserved (bank granularity: all FF mats of every used bank).
    pub allocated_mats: usize,
    /// FF utilization before replication (used cells / allocated cells).
    pub utilization_before: f64,
    /// FF utilization after replication.
    pub utilization_after: f64,
    /// Independent copies of the whole NN across the memory's banks
    /// (bank-level parallelism: images processed concurrently).
    pub copies_across_memory: usize,
    /// Inter-bank pipeline stages (empty unless large-scale).
    pub pipeline: Vec<PipelineStage>,
}

impl NetworkMapping {
    /// Total crossbar passes per inference (sum over weight layers).
    pub fn passes_per_inference(&self) -> u64 {
        self.layers.iter().map(LayerMapping::passes_per_inference).sum()
    }

    /// Total merge adds per inference.
    pub fn merge_adds_per_inference(&self) -> u64 {
        self.layers.iter().map(|l| l.merge_adds).sum()
    }

    /// Whole-network deploy-footprint estimate (sum of layer footprints).
    pub fn footprint(&self) -> LayoutFootprint {
        let mut total = LayoutFootprint::default();
        for layer in &self.layers {
            total.accumulate(layer.footprint());
        }
        total
    }

}

/// The `(rows, features)` weight matrix a layer programs onto FF mats:
/// `inputs × outputs` for FC, one im2col window by the output maps
/// (`in_ch·k² × out_ch`) for conv, and `None` for pooling and LRN, which
/// use no weight mats. There is no bias row.
pub fn weight_matrix(layer: &LayerSpec) -> Option<(usize, usize)> {
    match *layer {
        LayerSpec::FullyConnected { inputs, outputs } => Some((inputs, outputs)),
        LayerSpec::Conv { in_ch, out_ch, kernel, .. } => Some((in_ch * kernel * kernel, out_ch)),
        LayerSpec::Pool { .. } | LayerSpec::Lrn { .. } => None,
    }
}

/// One axis of the mat cut: the `[start, end)` spans `len` cells fill
/// on `edge`-cell mats, the last span holding the remainder.
fn cut(len: usize, edge: usize) -> impl Iterator<Item = (usize, usize)> + Clone {
    let edge = edge.max(1);
    (0..len).step_by(edge).map(move |start| (start, (start + edge).min(len)))
}

/// The mat tiles a `(rows, features)` weight matrix occupies on
/// `(mat_rows, mat_cols)` mats, as `(row span, column span)` pairs of
/// `[start, end)` ranges, row tiles outer: the order the runner
/// allocates mats in.
pub fn tile_spans(
    (rows, features): (usize, usize),
    (mat_rows, mat_cols): (usize, usize),
) -> impl Iterator<Item = ((usize, usize), (usize, usize))> {
    let cols = cut(features, mat_cols);
    cut(rows, mat_rows).flat_map(move |r| cols.clone().map(move |c| (r, c)))
}

/// Lowers one layer onto `hw`'s mats without replication: its
/// [`weight_matrix`] cut as [`tile_spans`] cuts it, its input vectors per
/// inference, and the adds merging its row tiles' partial sums. Pass 1
/// checks every mapped layer against this.
///
/// # Errors
///
/// Returns [`CompileError::LayerTooLarge`] if the tile count overflows.
pub fn lower_layer(spec: &LayerSpec, hw: &HwTarget) -> Result<LayerMapping, CompileError> {
    // Pooling runs on the dedicated pooling hardware and LRN falls back
    // to the CPU (paper §III-E): no weight matrix, so no mats.
    let (rows_needed, cols_needed) = weight_matrix(spec).unwrap_or((0, 0));
    let vectors = match *spec {
        LayerSpec::FullyConnected { .. } => 1,
        LayerSpec::Conv { .. } => spec.conv_out_dims().map_or(0, |(out_h, out_w)| out_h * out_w),
        LayerSpec::Pool { .. } | LayerSpec::Lrn { .. } => spec.outputs(),
    };
    let row_tiles = cut(rows_needed, hw.mat_rows).count();
    let col_tiles = cut(cols_needed, hw.mat_cols).count();
    let base_mats = row_tiles
        .checked_mul(col_tiles)
        .ok_or(CompileError::LayerTooLarge { layer: spec.describe() })?;
    // Split-merge cost: merging R row tiles takes R-1 adds per output.
    let merge_adds =
        (row_tiles as u64).saturating_sub(1) * cols_needed as u64 * vectors as u64;
    Ok(LayerMapping {
        layer: *spec,
        rows_needed,
        cols_needed,
        row_tiles,
        col_tiles,
        base_mats,
        in_mat_replication: 1,
        extra_replicas: 0,
        vectors_per_inference: vectors,
        merge_adds,
        tile_refs: 1,
    })
}

/// Applies the small-scale in-mat replication rule: a layer occupying at
/// most half the rows or columns of a mat is duplicated into the unused
/// portion (paper's `128-1 -> 256-2` example).
fn apply_in_mat_replication(layer: &mut LayerMapping, hw: &HwTarget) {
    if layer.base_mats != 1 {
        return;
    }
    let by_rows = hw.mat_rows / layer.rows_needed.max(1);
    let by_cols = hw.mat_cols / layer.cols_needed.max(1);
    layer.in_mat_replication = by_rows.min(by_cols).max(1);
}

/// Greedily fills spare allocated mats with extra copies of the layer
/// whose pass count currently bottlenecks the inference.
fn apply_mat_replication(layers: &mut [LayerMapping], mut spare: usize) {
    while let Some((idx, _)) = layers
        .iter()
        .enumerate()
        .filter(|(_, l)| l.base_mats > 0 && l.base_mats <= spare && l.passes_per_inference() > 1)
        .max_by_key(|(_, l)| l.passes_per_inference())
    {
        layers[idx].extra_replicas += 1;
        spare -= layers[idx].base_mats;
    }
}

/// Maps a network spec onto the hardware target.
///
/// # Errors
///
/// Returns [`CompileError::InvalidTarget`] for a degenerate `hw`, and
/// [`CompileError::CapacityExceeded`] if the network does not fit the
/// memory's FF mats even without replication.
///
/// # Examples
///
/// ```
/// use prime_compiler::{map_network, CompileOptions, HwTarget, NnScale};
/// use prime_nn::MlBench;
///
/// let hw = HwTarget::prime_default();
/// let mapping = map_network(&MlBench::MlpS.spec(), &hw, CompileOptions::default())?;
/// assert_eq!(mapping.scale, NnScale::Medium);
/// assert_eq!(mapping.copies_across_memory, 64); // bank-level parallelism
/// # Ok::<(), prime_compiler::CompileError>(())
/// ```
pub fn map_network(
    spec: &NetworkSpec,
    hw: &HwTarget,
    options: CompileOptions,
) -> Result<NetworkMapping, CompileError> {
    hw.validate()?;
    let mut layers = spec
        .layers()
        .iter()
        .map(|l| lower_layer(l, hw))
        .collect::<Result<Vec<_>, _>>()?;
    let base_mats: usize = layers.iter().map(|l| l.base_mats).sum();
    if base_mats > hw.total_mats() {
        return Err(CompileError::CapacityExceeded {
            required: base_mats,
            available: hw.total_mats(),
        });
    }
    let banks_per_copy = base_mats.div_ceil(hw.mats_per_bank()).max(1);
    let scale = if base_mats <= 1 {
        NnScale::Small
    } else if banks_per_copy == 1 {
        NnScale::Medium
    } else {
        NnScale::Large
    };
    // Banks that cannot host a whole extra copy still contribute their FF
    // mats as replication space, shared evenly among the copies (paper
    // §IV-B2: spare banks host replicas of large NNs).
    let copies = (hw.banks / banks_per_copy).max(1);
    let leftover_banks = hw.banks - copies * banks_per_copy;
    let allocated_mats =
        banks_per_copy * hw.mats_per_bank() + leftover_banks * hw.mats_per_bank() / copies;
    let allocated_cells = allocated_mats as u64 * hw.synapses_per_mat();
    let used_cells: u64 = layers.iter().map(LayerMapping::used_cells).sum();
    let utilization_before = used_cells as f64 / allocated_cells as f64;

    if options.replicate {
        for layer in &mut layers {
            apply_in_mat_replication(layer, hw);
        }
        let spare = allocated_mats - base_mats;
        apply_mat_replication(&mut layers, spare);
    }
    let used_after: u64 = layers
        .iter()
        .map(|l| l.used_cells() * (l.in_mat_replication as u64) * (1 + l.extra_replicas as u64))
        .sum();
    let utilization_after =
        (used_after as f64 / allocated_cells as f64).min(1.0).max(utilization_before);

    let pipeline = if scale == NnScale::Large {
        assign_pipeline(&layers, hw, options.stage_mats_cap)
    } else {
        Vec::new()
    };
    // A stage cap splits the pipeline over more banks than the packed
    // estimate assumed; recompute the per-copy span (and the copy count
    // that depends on it) from the stages actually laid out.
    let (banks_per_copy, copies) = if let (true, Some(last)) =
        (options.stage_mats_cap > 0, pipeline.last())
    {
        let spanned = last.bank + last.mats.div_ceil(hw.mats_per_bank()).max(1);
        if spanned > hw.banks {
            return Err(CompileError::CapacityExceeded {
                required: spanned * hw.mats_per_bank(),
                available: hw.total_mats(),
            });
        }
        (spanned, (hw.banks / spanned).max(1))
    } else {
        (banks_per_copy, copies)
    };
    let copies_across_memory = copies;

    // How many placements hold each unique tile of the layer.
    for layer in &mut layers {
        layer.tile_refs = (layer.in_mat_replication
            * (1 + layer.extra_replicas)
            * copies_across_memory)
            .max(1);
    }

    Ok(NetworkMapping {
        name: spec.name().to_string(),
        layers,
        scale,
        base_mats,
        banks_per_copy,
        allocated_mats,
        utilization_before,
        utilization_after,
        copies_across_memory,
        pipeline,
    })
}

/// Enumerates the candidate mapping space the search driver scores: the
/// fixed default plus, for large-scale NNs, halved and quartered
/// pipeline-split caps. Every candidate compiles with `replicate: false`
/// (deploy semantics).
///
/// The fixed-default candidate (paper knobs) comes first so a
/// strict-argmin search that finds no strictly better candidate keeps
/// the bit-compatible placement. Copy count is not a knob: fewer copies
/// only ever raise the interval the search minimizes.
pub fn enumerate_candidates(spec: &NetworkSpec, hw: &HwTarget) -> Vec<CompileOptions> {
    fn deploy_opts(stage_mats_cap: usize) -> CompileOptions {
        CompileOptions { replicate: false, stage_mats_cap }
    }
    let mut out = vec![deploy_opts(0)];
    // An unmappable network leaves only the fixed candidate, which the
    // search driver will prune with the same compile error the fixed
    // path reports.
    if map_network(spec, hw, deploy_opts(0)).is_ok_and(|base| base.scale == NnScale::Large) {
        let mpb = hw.mats_per_bank();
        for cap in [mpb / 2, mpb / 4] {
            if cap >= 1 && cap < mpb {
                out.push(deploy_opts(cap));
            }
        }
    }
    out
}

/// Greedy in-order bin packing of layers into banks for the inter-bank
/// pipeline: consecutive layers share a bank until its FF mats run out.
/// A nonzero `stage_mats_cap` shrinks the per-stage budget below a full
/// bank, splitting the network into more, shorter stages; stage banks
/// still advance one physical bank per stage.
fn assign_pipeline(
    layers: &[LayerMapping],
    hw: &HwTarget,
    stage_mats_cap: usize,
) -> Vec<PipelineStage> {
    let bank_mats = hw.mats_per_bank();
    let capacity = if stage_mats_cap > 0 { stage_mats_cap.min(bank_mats) } else { bank_mats }
        .max(1);
    let mut stages: Vec<PipelineStage> = Vec::new();
    let mut current = PipelineStage { bank: 0, layers: Vec::new(), mats: 0 };
    for (idx, layer) in layers.iter().enumerate() {
        // Replicated copies occupy real mats and must be placed too.
        let need = layer.total_mats();
        if need > capacity {
            // A single layer larger than the stage budget gets its own
            // stage; when it outgrows a physical bank it spans several.
            if !current.layers.is_empty() {
                let bank = current.bank;
                stages.push(std::mem::replace(
                    &mut current,
                    PipelineStage { bank: bank + 1, layers: Vec::new(), mats: 0 },
                ));
            }
            let banks_spanned = need.div_ceil(bank_mats).max(1);
            stages.push(PipelineStage { bank: current.bank, layers: vec![idx], mats: need });
            current.bank += banks_spanned;
            continue;
        }
        if current.mats + need > capacity {
            let bank = current.bank;
            stages.push(std::mem::replace(
                &mut current,
                PipelineStage { bank: bank + 1, layers: Vec::new(), mats: 0 },
            ));
        }
        current.layers.push(idx);
        current.mats += need;
    }
    if !current.layers.is_empty() {
        stages.push(current);
    }
    stages
}

#[cfg(test)]
mod tests {
    use super::*;
    use prime_nn::MlBench;

    fn hw() -> HwTarget {
        HwTarget::prime_default()
    }

    fn opts(replicate: bool) -> CompileOptions {
        CompileOptions { replicate, ..CompileOptions::default() }
    }

    #[test]
    fn mlp_s_is_medium_scale() {
        let m = map_network(&MlBench::MlpS.spec(), &hw(), CompileOptions::default()).unwrap();
        assert_eq!(m.scale, NnScale::Medium);
        assert_eq!(m.banks_per_copy, 1);
        assert_eq!(m.copies_across_memory, 64);
        assert!(m.pipeline.is_empty());
    }

    #[test]
    fn split_merge_arithmetic_mlp_s() {
        // 784-500: rows 784 -> 4 row tiles; cols 500 -> 4 col tiles.
        let m = map_network(&MlBench::MlpS.spec(), &hw(), CompileOptions::default()).unwrap();
        let l0 = &m.layers[0];
        assert_eq!(l0.row_tiles, 4);
        assert_eq!(l0.col_tiles, 4);
        assert_eq!(l0.base_mats, 16);
        assert_eq!(l0.merge_adds, 3 * 500);
    }

    #[test]
    fn conv_is_lowered_to_kernel_matrix() {
        let m = map_network(&MlBench::Cnn1.spec(), &hw(), CompileOptions::default()).unwrap();
        let conv = &m.layers[0];
        // 1 channel x 5x5 kernel = 25 rows (no bias row), 5 output maps.
        assert_eq!(conv.rows_needed, 25);
        assert_eq!(conv.cols_needed, 5);
        assert_eq!(conv.base_mats, 1);
        assert_eq!(conv.vectors_per_inference, 24 * 24);
        // Small layer in one mat: 256 / 25 = 10 diagonal copies.
        assert_eq!(conv.in_mat_replication, 10);
    }

    #[test]
    fn tile_spans_cut_the_weight_matrix_into_mats() {
        // 300 x 130 on 256 x 128 mats: 2 x 2 tiles, remainders last.
        let spans: Vec<_> = tile_spans((300, 130), (256, 128)).collect();
        assert_eq!(
            spans,
            vec![
                ((0, 256), (0, 128)),
                ((0, 256), (128, 130)),
                ((256, 300), (0, 128)),
                ((256, 300), (128, 130)),
            ]
        );
        // Rows that exactly fill a mat take one row tile.
        let full = LayerSpec::FullyConnected { inputs: 256, outputs: 128 };
        let l = lower_layer(&full, &hw()).unwrap();
        assert_eq!((l.rows_needed, l.row_tiles, l.col_tiles, l.base_mats), (256, 1, 1, 1));
        assert_eq!(l.base_mats, tile_spans(weight_matrix(&full).unwrap(), (256, 128)).count());
    }

    #[test]
    fn zero_mat_dimension_is_an_invalid_target() {
        let target = HwTarget { mat_rows: 0, ..hw() };
        let err = map_network(&MlBench::MlpS.spec(), &target, CompileOptions::default());
        assert!(matches!(err, Err(CompileError::InvalidTarget { .. })), "{err:?}");
    }

    #[test]
    fn pooling_consumes_no_mats() {
        let m = map_network(&MlBench::Cnn1.spec(), &hw(), CompileOptions::default()).unwrap();
        let pool = &m.layers[1];
        assert_eq!(pool.base_mats, 0);
        assert_eq!(pool.passes_per_inference(), 0);
    }

    #[test]
    fn replication_reduces_passes_and_raises_utilization() {
        let spec = MlBench::Cnn1.spec();
        let without =
            map_network(&spec, &hw(), opts(false)).unwrap();
        let with = map_network(&spec, &hw(), opts(true)).unwrap();
        assert!(with.passes_per_inference() < without.passes_per_inference());
        assert!(with.utilization_after > without.utilization_before);
    }

    #[test]
    fn vgg_d_is_large_scale_with_pipeline() {
        let m = map_network(&MlBench::VggD.spec(), &hw(), CompileOptions::default()).unwrap();
        assert_eq!(m.scale, NnScale::Large);
        assert!(m.banks_per_copy > 1, "VGG-D must span banks: {}", m.banks_per_copy);
        assert!(!m.pipeline.is_empty());
        assert!(m.copies_across_memory >= 1);
        // Every layer appears in exactly one stage, in order.
        let staged: Vec<usize> =
            m.pipeline.iter().flat_map(|s| s.layers.iter().copied()).collect();
        assert_eq!(staged, (0..m.layers.len()).collect::<Vec<_>>());
        // No stage exceeds one bank unless a single layer forced it.
        for stage in &m.pipeline {
            assert!(
                stage.mats <= hw().mats_per_bank() || stage.layers.len() == 1,
                "stage overflow: {stage:?}"
            );
        }
    }

    #[test]
    fn oversized_layer_gets_its_own_multibank_stage() {
        // Two-mat banks; a 1000x500 FC layer tiles to 4x4 = 16 mats —
        // eight banks on its own — followed by a two-mat layer.
        let target = HwTarget {
            mat_rows: 256,
            mat_cols: 128,
            mats_per_ff_subarray: 1,
            ff_subarrays_per_bank: 2,
            banks: 16,
        };
        let spec = prime_nn::NetworkSpec::new(
            "oversized",
            vec![
                LayerSpec::FullyConnected { inputs: 1000, outputs: 500 },
                LayerSpec::FullyConnected { inputs: 500, outputs: 10 },
            ],
        )
        .unwrap();
        let m = map_network(&spec, &target, opts(false)).unwrap();
        assert_eq!(m.scale, NnScale::Large);
        assert_eq!(m.layers[0].base_mats, 16);
        assert_eq!(m.pipeline.len(), 2);
        assert_eq!(m.pipeline[0].bank, 0);
        assert_eq!(m.pipeline[0].layers, vec![0]);
        assert_eq!(m.pipeline[0].mats, 16);
        // The next stage's bank skips every bank the oversized stage
        // spans (16 mats / 2 mats per bank = 8 banks).
        assert_eq!(m.pipeline[1].bank, 8);
        assert_eq!(m.pipeline[1].layers, vec![1]);
    }

    #[test]
    fn pipeline_banks_strictly_increase_with_contiguous_coverage() {
        for options in [opts(false), CompileOptions::default()] {
            let m = map_network(&MlBench::VggD.spec(), &hw(), options).unwrap();
            assert!(!m.pipeline.is_empty());
            let mut next_layer = 0usize;
            let mut prev_bank: Option<usize> = None;
            for stage in &m.pipeline {
                assert!(
                    prev_bank.is_none_or(|p| stage.bank > p),
                    "stage banks must strictly increase: {:?}",
                    m.pipeline
                );
                prev_bank = Some(stage.bank);
                assert!(!stage.layers.is_empty(), "empty stage");
                for &l in &stage.layers {
                    assert_eq!(l, next_layer, "layer coverage must be contiguous in order");
                    next_layer += 1;
                }
            }
            assert_eq!(next_layer, m.layers.len(), "pipeline must cover every layer");
        }
    }

    #[test]
    fn tile_refs_count_every_placement_of_a_tile() {
        let m = map_network(&MlBench::Cnn1.spec(), &hw(), CompileOptions::default()).unwrap();
        let conv = &m.layers[0];
        // The heavily replicated conv kernel is placed many times over.
        assert_eq!(
            conv.tile_refs,
            conv.in_mat_replication * (1 + conv.extra_replicas) * m.copies_across_memory
        );
        assert!(conv.tile_refs > 1, "got {}", conv.tile_refs);
        // Footprint arithmetic: placed cells grow with placements.
        let f = conv.footprint();
        assert_eq!(f.placed_cells, f.unique_cells * conv.tile_refs as u64);
        assert_eq!(f.placements, conv.base_mats * conv.tile_refs);
        assert!(m.footprint().unique_cells < m.footprint().placed_cells);
    }

    #[test]
    fn single_copy_layers_place_each_tile_once() {
        // VGG-D spans 64 banks with one copy and no replication: every
        // tile has exactly one placement.
        let m = map_network(&MlBench::VggD.spec(), &hw(), opts(false)).unwrap();
        for layer in &m.layers {
            assert_eq!(layer.tile_refs, 1);
        }
        assert_eq!(m.footprint().unique_cells, m.footprint().placed_cells);
    }

    #[test]
    fn capacity_errors_on_impossible_networks() {
        let tiny = HwTarget {
            mat_rows: 16,
            mat_cols: 8,
            mats_per_ff_subarray: 1,
            ff_subarrays_per_bank: 1,
            banks: 1,
        };
        let err = map_network(&MlBench::MlpL.spec(), &tiny, CompileOptions::default());
        assert!(matches!(err, Err(CompileError::CapacityExceeded { .. })));
    }

    #[test]
    fn all_mlbench_networks_fit_prime() {
        for bench in MlBench::ALL {
            let m = map_network(&bench.spec(), &hw(), CompileOptions::default()).unwrap();
            assert!(m.base_mats <= hw().total_mats(), "{} does not fit", bench.name());
        }
    }

    #[test]
    fn stage_cap_splits_the_pipeline_into_more_stages() {
        let spec = MlBench::VggD.spec();
        let base = map_network(&spec, &hw(), CompileOptions { replicate: false, ..CompileOptions::default() }).unwrap();
        let capped_opts =
            CompileOptions { replicate: false, stage_mats_cap: hw().mats_per_bank() / 2 };
        let capped = map_network(&spec, &hw(), capped_opts).unwrap();
        assert!(
            capped.pipeline.len() > base.pipeline.len(),
            "cap {} did not split: {} vs {} stages",
            capped_opts.stage_mats_cap,
            capped.pipeline.len(),
            base.pipeline.len()
        );
        // Every capped stage respects the budget unless one layer forced it.
        for stage in &capped.pipeline {
            assert!(
                stage.mats <= capped_opts.stage_mats_cap || stage.layers.len() == 1,
                "stage over budget: {stage:?}"
            );
        }
        // The per-copy span is derived from the stages actually laid out.
        let last = capped.pipeline.last().unwrap();
        let spanned = last.bank + last.mats.div_ceil(hw().mats_per_bank()).max(1);
        assert_eq!(capped.banks_per_copy, spanned);
        assert_eq!(capped.copies_across_memory, (hw().banks / spanned).max(1));
        // A zero cap is byte-for-byte the uncapped mapping.
        let zero =
            map_network(&spec, &hw(), CompileOptions { replicate: false, stage_mats_cap: 0 })
                .unwrap();
        assert_eq!(zero, base);
    }

    #[test]
    fn candidate_space_leads_with_the_fixed_default() {
        for bench in MlBench::ALL {
            let candidates = enumerate_candidates(&bench.spec(), &hw());
            let first = candidates.first().expect("at least the fixed candidate");
            assert_eq!(
                *first,
                CompileOptions { replicate: false, ..CompileOptions::default() },
                "{}: fixed default must come first for tie bit-compat",
                bench.name()
            );
            // Deploy semantics, no duplicates.
            for (i, c) in candidates.iter().enumerate() {
                assert!(!c.replicate, "{}: candidate {i} replicates", bench.name());
                assert!(!candidates[..i].contains(c), "{}: duplicate candidate", bench.name());
            }
            assert!((1..=3).contains(&candidates.len()));
            // Every candidate either maps or reports a typed compile error.
            for c in &candidates {
                let _ = map_network(&bench.spec(), &hw(), *c);
            }
        }
    }

    #[test]
    fn candidate_space_scales_with_the_network() {
        // Large-scale VGG-D gets pipeline-split candidates.
        let vgg = enumerate_candidates(&MlBench::VggD.spec(), &hw());
        assert!(
            vgg.iter().any(|c| c.stage_mats_cap > 0),
            "large-scale nets must offer pipeline splits: {vgg:?}"
        );
        // Medium-scale MLP-S gets only the fixed default.
        let mlp = enumerate_candidates(&MlBench::MlpS.spec(), &hw());
        assert_eq!(mlp, vec![CompileOptions { replicate: false, ..CompileOptions::default() }]);
    }

    #[test]
    fn objective_names_are_stable() {
        assert_eq!(Objective::Latency.name(), "latency");
    }
}
