//! The full PRIME system: every bank's controller behind one façade,
//! with the OS runtime (morph policy, page-miss tracking, reservations)
//! and reconfiguration wear leveling — the whole §III/§IV machinery in
//! one object.
//!
//! Deployment runs the network through the mapping compiler
//! ([`map_network`]) and treats the resulting [`Mapping`'s pipeline
//! stages](prime_compiler::NetworkMapping) as the single source of truth
//! for *where* layers run: small networks place one [`CommandRunner`]
//! copy per bank (bank-level parallelism, §IV-B2), while large-scale
//! networks split into inter-bank pipeline stages (§IV-B) whose
//! activations move between banks through the runner's stage transfer
//! protocol ([`CommandRunner::stage_transfer_out`] /
//! [`stage_transfer_in`](CommandRunner::stage_transfer_in)).
//! Batches round-robin over the copies; the parallel engine overlaps
//! pipeline stages across the batch (image *i+1* enters stage 0 while
//! image *i* runs in stage 1). The OS hooks decide at run time whether
//! FF capacity should be released back to memory under page-miss
//! pressure (§IV-C).

use std::collections::HashSet;
use std::iter::StepBy;
use std::ops::Range;
use std::sync::mpsc;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use prime_compiler::{map_network, CompileOptions, HwTarget, Objective};
use prime_device::NoiseModel;
use prime_mem::{FfReservationMap, MatAddr, MorphDecision, MorphPolicy, PageMissTracker, WearLeveler};
use prime_nn::Network;

use crate::controller::BankController;
use crate::error::PrimeError;
use crate::ff_mat::FfMat;
use crate::runner::{CommandRunner, InferScratch};
use crate::search::{search_mapping, MappingCostModel, MappingSearch};

/// Per-copy outcome of a batched run: the (input index, output) pairs the
/// copy completed, or the first (input index, error) it hit.
type CopyBatch = Result<Vec<(usize, Vec<f32>)>, (usize, PrimeError)>;

/// (input index, activation codes) forwarded between pipeline stages.
type StagePacket = (usize, Vec<i64>);

/// Where a stage worker takes its packets from.
enum Upstream {
    /// Stage 0: the batch indices of the copy's inputs, each quantized
    /// into a code vector the final stage recycles back on `recycled`.
    Inputs { order: StepBy<Range<usize>>, recycled: mpsc::Receiver<Vec<i64>> },
    /// Any later stage: the previous stage's packets.
    Stage(mpsc::Receiver<StagePacket>),
}

/// Where a stage worker sends its packets.
enum Downstream {
    /// Any earlier stage: the next stage.
    Stage(mpsc::Sender<StagePacket>),
    /// The final stage: outputs are kept, and spent code vectors go back
    /// to stage 0 (in a one-stage pipe, to the worker itself).
    Recycle(mpsc::Sender<Vec<i64>>),
}

/// Aggregate statistics of a PRIME system.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SystemStats {
    /// NN deployments (reconfigurations) performed.
    pub reconfigurations: u64,
    /// Inferences served.
    pub inferences: u64,
    /// FF mats currently reserved for computation.
    pub reserved_mats: usize,
    /// Wear imbalance across the FF-mat pool (1.0 = even).
    pub wear_imbalance: f64,
}

/// Cost report of the most recent deployment: how long programming took
/// and how much crossbar state the deployment keeps resident once every
/// replica aliases copy 0's tiles. Auto-selected deployments
/// ([`PrimeSystem::deploy_auto`]) additionally carry the full
/// [`MappingSearch`] report — the chosen candidate and every rejected
/// alternative.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeployStats {
    /// Deploy wall-time (map + verify + program + calibrate + replicate),
    /// milliseconds.
    pub wall_ms: f64,
    /// NN copies placed across the memory.
    pub copies: usize,
    /// Distinct programmed crossbar pairs resident in the memory.
    pub unique_tiles: usize,
    /// Mat placements that alias a shared tile instead of owning bytes
    /// (every placement of a tile except the one counted as its owner).
    pub aliased_placements: usize,
    /// Bank state resident after deployment, counting each shared tile
    /// once (bytes).
    pub resident_bytes: usize,
    /// What the same placements would hold if every one owned its bytes,
    /// for the dedup ratio `resident_bytes / dense_bytes`.
    pub dense_bytes: usize,
    /// The mapping-search report when the deployment auto-selected its
    /// mapping ([`PrimeSystem::deploy_auto`]): the chosen candidate and
    /// every rejected alternative with scores and pruning reasons.
    /// `None` for fixed deployments.
    pub search: Option<MappingSearch>,
}

/// A multi-bank PRIME system with its OS runtime.
///
/// # Examples
///
/// ```no_run
/// use prime_core::PrimeSystem;
/// use prime_nn::{Activation, FullyConnected, Layer, Network};
///
/// let net = Network::new(vec![
///     Layer::Fc(FullyConnected::new(16, 8, Activation::Relu)),
///     Layer::Fc(FullyConnected::new(8, 4, Activation::Identity)),
/// ])?;
/// let mut system = PrimeSystem::new(4, 2, 8, 4096);
/// system.deploy(&net, &[0.5; 16])?;
/// let outputs = system.infer_batch(&[vec![0.2; 16], vec![0.8; 16]])?;
/// assert_eq!(outputs.len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct PrimeSystem {
    banks: Vec<BankController>,
    /// One compiled runner per deployed NN copy. A copy occupies the
    /// consecutive bank group `[c * banks_per_copy, (c+1) *
    /// banks_per_copy)`; within the group the runner's stage list says
    /// which bank hosts which layers.
    runners: Vec<CommandRunner>,
    /// Banks one copy spans (1 for small/medium-scale networks, the
    /// pipeline depth for large-scale ones).
    banks_per_copy: usize,
    /// One reusable inference scratch per bank (paired with its thread in
    /// parallel execution; buffers only grow, so steady-state batches
    /// allocate nothing inside the compute kernels).
    scratches: Vec<InferScratch>,
    /// Reusable traveling activation vector for the serial engine.
    carry: Vec<i64>,
    /// Drive the copies concurrently (one thread per stage bank).
    /// Bit-identical to serial execution; see
    /// [`set_parallel`](Self::set_parallel).
    parallel: bool,
    reservations: FfReservationMap,
    policy: MorphPolicy,
    tracker: PageMissTracker,
    wear: WearLeveler,
    mats_per_bank: usize,
    stats: SystemStats,
    /// Cost report of the most recent deployment (`None` before any).
    deploy_stats: Option<DeployStats>,
}

impl PrimeSystem {
    /// Creates a system of `banks` banks, each with `ff_subarrays` FF
    /// subarrays of `mats_per_subarray` mats and a `buffer_words` Buffer
    /// subarray.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(
        banks: usize,
        ff_subarrays: usize,
        mats_per_subarray: usize,
        buffer_words: usize,
    ) -> Self {
        assert!(banks > 0 && ff_subarrays > 0 && mats_per_subarray > 0);
        let mats_per_bank = ff_subarrays * mats_per_subarray;
        let total_mats = banks * mats_per_bank;
        PrimeSystem {
            banks: (0..banks)
                .map(|_| BankController::new(ff_subarrays, mats_per_subarray, buffer_words, 4096))
                .collect(),
            runners: Vec::new(),
            banks_per_copy: 1,
            scratches: (0..banks).map(|_| InferScratch::new()).collect(),
            carry: Vec::new(),
            parallel: true,
            reservations: FfReservationMap::new(total_mats),
            policy: MorphPolicy::prime_default(),
            tracker: PageMissTracker::new(256),
            wear: WearLeveler::for_logical_mats(total_mats),
            mats_per_bank,
            deploy_stats: None,
            stats: SystemStats {
                reconfigurations: 0,
                inferences: 0,
                reserved_mats: 0,
                wear_imbalance: 1.0,
            },
        }
    }

    /// Number of banks.
    pub fn banks(&self) -> usize {
        self.banks.len()
    }

    /// Independent NN copies after deployment (0 before any deploy).
    pub fn copies(&self) -> usize {
        self.runners.len()
    }

    /// Banks one deployed copy spans: 1 for networks that fit a bank,
    /// the inter-bank pipeline depth for large-scale ones (`None` before
    /// any deploy).
    pub fn banks_per_copy(&self) -> Option<usize> {
        (!self.runners.is_empty()).then_some(self.banks_per_copy)
    }

    /// Pipeline stages the deployed plan executes per inference (`None`
    /// before any deploy). This is the stage count the analytical
    /// simulator's pipeline latency term must agree with.
    pub fn deployed_stages(&self) -> Option<usize> {
        self.runners.first().map(CommandRunner::stage_count)
    }

    /// The compiler target equivalent to this system's geometry.
    fn hw_target(&self) -> HwTarget {
        let mat = self.banks[0].mat(MatAddr { subarray: 0, mat: 0 });
        HwTarget {
            mat_rows: mat.max_rows(),
            mat_cols: mat.max_cols(),
            mats_per_ff_subarray: self.banks[0].mats_per_subarray(),
            ff_subarrays_per_bank: self.banks[0].ff_subarrays(),
            banks: self.banks.len(),
        }
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> SystemStats {
        SystemStats {
            reserved_mats: self.reservations.reserved_count(),
            wear_imbalance: self.wear.imbalance(),
            ..self.stats
        }
    }

    /// Deploys `net`: maps it with the compiler to decide stage
    /// placement, compiles and programs one [`CommandRunner`] copy per
    /// consecutive bank group, reserves the FF mats with the OS, and
    /// charges the wear leveler for the reconfiguration.
    ///
    /// Networks that fit one bank deploy one copy per bank (the §IV-B2
    /// bank-parallel case, `Mapping::pipeline` empty). Large-scale
    /// networks follow `Mapping::pipeline`: each copy spans
    /// `banks_per_copy` consecutive banks, one stage per bank (§IV-B).
    ///
    /// Copy 0 is programmed (and calibrated) once; every other copy
    /// aliases its tiles copy-on-write, so deploy wall-time and resident
    /// bank state scale with unique weights rather than copies, while
    /// every bank still executes its own placement. The cost report
    /// lands in [`deploy_stats`](Self::deploy_stats).
    ///
    /// # Errors
    ///
    /// Returns [`PrimeError::Rejected`] carrying the verifier diagnostics
    /// if the mapping breaks a deployment invariant (the network does not
    /// fit the memory's FF mats, a pipeline stage is illegal, the
    /// precision budgets overflow, ...), or another [`PrimeError`] if the
    /// network cannot be compiled onto the banks.
    pub fn deploy(&mut self, net: &Network, calibration: &[f32]) -> Result<(), PrimeError> {
        let options = CompileOptions { replicate: false, ..CompileOptions::default() };
        self.deploy_compiled(net, calibration, options, None)
    }

    /// [`deploy`](Self::deploy) with cost-model-driven mapping search:
    /// enumerates pipeline-split candidates, keeps those the Pass 1–3
    /// verifiers accept, scores each with `model`, and deploys the
    /// latency argmin.
    /// Illegal candidates are pruned, not errors. The full search report
    /// — chosen candidate plus rejected alternatives — lands in
    /// [`DeployStats::search`]. The paper-default mapping
    /// [`deploy`](Self::deploy) uses is the first candidate and wins
    /// every tie, so a search that finds nothing strictly better deploys
    /// it bit-identically.
    ///
    /// # Errors
    ///
    /// As [`deploy`](Self::deploy); additionally returns
    /// [`PrimeError::MappingMismatch`] when every candidate was pruned.
    pub fn deploy_auto(
        &mut self,
        net: &Network,
        calibration: &[f32],
        objective: Objective,
        model: &dyn MappingCostModel,
    ) -> Result<(), PrimeError> {
        let spec = net.to_spec("deployed").map_err(PrimeError::Nn)?;
        let target = self.analysis_target();
        let search = search_mapping(&spec, &target, objective, model);
        let Some(chosen) = search.chosen() else {
            return Err(PrimeError::MappingMismatch {
                reason: format!(
                    "mapping search (objective={}) pruned every candidate:\n{}",
                    objective.name(),
                    search.describe()
                ),
            });
        };
        let options = chosen.options;
        self.deploy_compiled(net, calibration, options, Some(search))
    }

    /// The `prime-analyze` target equivalent to this system: the
    /// compiler geometry plus the physical precision budgets the static
    /// verifiers check against.
    fn analysis_target(&self) -> prime_analyze::Target {
        let scheme = self.banks[0].mat(MatAddr { subarray: 0, mat: 0 }).scheme();
        prime_analyze::Target {
            scheme,
            buffer_words: self.banks[0].buffer().capacity(),
            // The mats program MLC cells and encode input signals exactly
            // per the scheme, so the physical budgets equal its halves.
            cell_bits: scheme.weight_half_bits(),
            input_signal_bits: scheme.input_half_bits(),
            phys_mat_cols: 2 * self.banks[0].mat(MatAddr { subarray: 0, mat: 0 }).max_cols(),
            tile_ref_bits: 16,
            hw: self.hw_target(),
        }
    }

    /// The shared deployment path: compile `net` under `options`, verify
    /// (Pass 1 before any bank state changes, Pass 3 after replication
    /// but before install), tear down the previous deployment, program,
    /// replicate, and account.
    fn deploy_compiled(
        &mut self,
        net: &Network,
        calibration: &[f32],
        options: CompileOptions,
        search: Option<MappingSearch>,
    ) -> Result<(), PrimeError> {
        let started = Instant::now();
        let spec = net.to_spec("deployed").map_err(PrimeError::Nn)?;
        let target = self.analysis_target();
        let mapping = map_network(&spec, &target.hw, options)
            .map_err(|e| PrimeError::MappingMismatch { reason: e.to_string() })?;
        // Static verification (prime-analyze pass 1): refuse before any
        // bank state changes if the mapping breaks a deployment
        // invariant. This replaces the ad-hoc capacity/pipeline checks
        // that used to live here and in the runner.
        let diagnostics: Vec<_> = prime_analyze::analyze(&spec, &target, &mapping)
            .into_iter()
            .filter(|d| d.severity == prime_analyze::Severity::Error)
            .collect();
        if !diagnostics.is_empty() {
            return Err(PrimeError::Rejected { diagnostics });
        }
        // The mapping is legal: retire the previous deployment so none of
        // its tiles outlive it. From here on a failure leaves the system
        // undeployed.
        self.undeploy();
        // Compile every copy first (failure leaves no partial state
        // visible to the OS bookkeeping). The bank group is sized by the
        // stage list itself, not `mapping.banks_per_copy`: greedy packing
        // can fragment and span more banks than the capacity bound. The
        // verifier has already bounded every stage span to the memory, so
        // at least one copy fits.
        let bpc = mapping.pipeline.last().map_or(1, |s| {
            s.bank + s.mats.div_ceil(self.mats_per_bank).max(1)
        });
        // Copy-capped candidates deliberately place fewer copies than
        // the memory could hold, leaving the other banks as plain
        // memory; uncapped mappings always allow at least banks/bpc.
        let copies = (self.banks.len() / bpc).min(mapping.copies_across_memory).max(1);
        // Compile (quantize + program + calibrate) copy 0 only, then
        // replicate the programmed plan onto every other bank group:
        // stage banks are group-relative and programming is
        // deterministic, so a replicated copy is byte-identical to a
        // recompiled one — at the cost of a mat clone per tile instead
        // of a full program/calibrate pass. Replicas alias copy 0's tiles
        // outright, so they add no bank state.
        let (first_group, rest) = self.banks.split_at_mut(bpc);
        let first =
            CommandRunner::compile_pipeline(net, first_group, &mapping.pipeline, calibration)?;
        let mut runners = Vec::with_capacity(copies);
        for c in 1..copies {
            let group = &mut rest[(c - 1) * bpc..c * bpc];
            runners.push(first.replicate_onto(first_group, group)?);
        }
        runners.insert(0, first);
        // Static verification pass 3: abstractly interpret the lowered
        // command program of copy 0 — FF-buffer region dataflow, §III-D
        // interval precision, shared-tile aliasing, stage-graph deadlock
        // freedom. Runs after replication so the alias check sees the
        // real post-deploy tile sharing, but before the runners are
        // installed: a rejected plan leaves the system undeployed.
        let first_group = &self.banks[..bpc];
        let plan = runners[0].program_plan(first_group);
        let diagnostics: Vec<_> =
            prime_analyze::analyze_program(&spec, &target, &mapping, &plan)
                .into_iter()
                .filter(|d| d.severity == prime_analyze::Severity::Error)
                .collect();
        if !diagnostics.is_empty() {
            return Err(PrimeError::Rejected { diagnostics });
        }
        let total: usize = runners.iter().map(CommandRunner::mats_used).sum();
        self.reservations.reserve(total).map_err(PrimeError::Mem)?;
        self.runners = runners;
        self.banks_per_copy = bpc;
        self.wear.on_reconfiguration();
        self.stats.reconfigurations += 1;
        let (unique_tiles, aliased_placements, resident_bytes, dense_bytes) =
            self.tile_accounting();
        self.deploy_stats = Some(DeployStats {
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
            copies,
            unique_tiles,
            aliased_placements,
            resident_bytes,
            dense_bytes,
            search,
        });
        Ok(())
    }

    /// Cost report of the most recent deployment (`None` before any, or
    /// after a deployment that failed past its Pass-1 check).
    pub fn deploy_stats(&self) -> Option<&DeployStats> {
        self.deploy_stats.as_ref()
    }

    /// Drops the deployed runners and their FF reservations and resets
    /// every FF mat to the vacant mat `BankController::new` builds. All
    /// of the mats are reset, not only the previous plan's placements, so
    /// tiles a failed deploy programmed before erroring cannot linger
    /// either.
    fn undeploy(&mut self) {
        self.runners.clear();
        self.deploy_stats = None;
        self.reservations = FfReservationMap::new(self.banks.len() * self.mats_per_bank);
        for bank in &mut self.banks {
            for subarray in 0..bank.ff_subarrays() {
                for mat in 0..bank.mats_per_subarray() {
                    *bank.mat_mut(MatAddr { subarray, mat }) = FfMat::new();
                }
            }
        }
    }

    /// Crossbar weight state currently resident across every bank,
    /// counting each shared tile once (bytes). Vacant mats — never
    /// written since construction — cost nothing, so this scales with
    /// unique programmed weights, not with memory capacity or placement
    /// count.
    pub fn resident_state_bytes(&self) -> usize {
        self.tile_accounting().2
    }

    /// Walks every mat in every bank and returns `(unique_tiles,
    /// aliased_placements, resident_bytes, dense_bytes)`: distinct
    /// programmed pairs, placements of a shared pair beyond the first
    /// one seen (its owner), bytes with shared pairs deduplicated (by
    /// tile identity), and bytes as if every placement owned its codes.
    fn tile_accounting(&self) -> (usize, usize, usize, usize) {
        let mut seen: HashSet<*const prime_device::PairedCrossbar> = HashSet::new();
        let (mut unique, mut aliased, mut resident, mut dense) = (0usize, 0usize, 0usize, 0usize);
        for bank in &self.banks {
            for subarray in 0..bank.ff_subarrays() {
                for mat in 0..bank.mats_per_subarray() {
                    let mat = bank.mat(MatAddr { subarray, mat });
                    let bytes = mat.tile_state_bytes();
                    dense += bytes;
                    if let Some(tile) = mat.shared_tile() {
                        if seen.insert(std::ptr::from_ref(tile)) {
                            unique += 1;
                            resident += bytes;
                        } else {
                            aliased += 1;
                        }
                    } else if bytes > 0 {
                        unique += 1;
                        resident += bytes;
                    }
                }
            }
        }
        (unique, aliased, resident, dense)
    }

    /// Whether batches drive the copies concurrently (default: `true`).
    pub fn parallel(&self) -> bool {
        self.parallel
    }

    /// Selects the execution engine for [`infer_batch`](Self::infer_batch)
    /// and [`infer_batch_noisy`](Self::infer_batch_noisy): serial
    /// round-robin, or one thread per stage bank (paper §V bank-level
    /// parallelism, plus inter-bank stage overlap for pipelined plans).
    /// Input `i` runs on copy `i % copies`, and every pipeline stage uses
    /// its own bank's scratch and RNG stream in *both* modes, so outputs
    /// are bit-identical — the knob trades wall-clock time only.
    pub fn set_parallel(&mut self, parallel: bool) {
        self.parallel = parallel;
    }

    /// Runs a batch of inferences, round-robin over the deployed copies —
    /// serially or with one thread per stage bank, per
    /// [`set_parallel`](Self::set_parallel). For pipelined plans the
    /// parallel engine overlaps stages across the batch: input *i+1*
    /// enters stage 0 while input *i* runs in stage 1. Outputs are
    /// returned in input order and are identical in both modes.
    ///
    /// # Errors
    ///
    /// Returns [`PrimeError::MappingMismatch`] before any deployment.
    pub fn infer_batch(&mut self, inputs: &[Vec<f32>]) -> Result<Vec<Vec<f32>>, PrimeError> {
        self.infer_batch_impl(inputs, None)
    }

    /// Noisy-hardware variant of [`infer_batch`](Self::infer_batch):
    /// every tile evaluates through the analog domain with read noise.
    /// Bank `b` draws from its own RNG stream seeded
    /// `seed.wrapping_add(b)`; since input `i` always runs on copy
    /// `i % copies` and each pipeline stage owns one bank, the serial and
    /// overlapped engines consume identical per-bank streams and stay
    /// bit-identical. The streams are
    /// [bank state](BankController::set_read_noise) for the length of
    /// this call only: every bank is digital again when it returns, with
    /// `Ok` or `Err`.
    ///
    /// # Errors
    ///
    /// Returns [`PrimeError::MappingMismatch`] before any deployment.
    pub fn infer_batch_noisy(
        &mut self,
        inputs: &[Vec<f32>],
        noise: &NoiseModel,
        seed: u64,
    ) -> Result<Vec<Vec<f32>>, PrimeError> {
        self.infer_batch_impl(inputs, Some((noise, seed)))
    }

    /// Perturbs the programmed conductances of every placed tile with
    /// `noise`'s programming error (the feedback-tuning precision of real
    /// devices, paper §III-D), drawing from one RNG seeded `seed`. Tiles
    /// are visited bank by bank and, within a bank, in (subarray, mat)
    /// order, so a seed reproduces the same perturbation. Aliased
    /// placements copy on write first: every placement gets its own
    /// perturbation, as separate physical crossbars would.
    ///
    /// Only the analog path ([`infer_batch_noisy`](Self::infer_batch_noisy))
    /// sees programming noise; the digital path reads the nominal levels.
    /// Every call perturbs from the nominal levels, so calls do not
    /// accumulate.
    ///
    /// # Errors
    ///
    /// Returns [`PrimeError::MappingMismatch`] before any deployment.
    pub fn apply_program_noise(&mut self, noise: &NoiseModel, seed: u64) -> Result<(), PrimeError> {
        if self.runners.is_empty() {
            return Err(PrimeError::MappingMismatch {
                reason: "no network deployed".to_string(),
            });
        }
        let bpc = self.banks_per_copy;
        let mut placed: Vec<(usize, usize, usize)> = self
            .runners
            .iter()
            .enumerate()
            .flat_map(|(c, runner)| {
                runner.placements().map(move |(b, mat)| (c * bpc + b, mat.subarray, mat.mat))
            })
            .collect();
        placed.sort_unstable();
        let mut rng = SmallRng::seed_from_u64(seed);
        for (bank, subarray, mat) in placed {
            self.banks[bank]
                .mat_mut(MatAddr { subarray, mat })
                .apply_program_noise(noise, &mut rng);
        }
        Ok(())
    }

    fn infer_batch_impl(
        &mut self,
        inputs: &[Vec<f32>],
        read_noise: Option<(&NoiseModel, u64)>,
    ) -> Result<Vec<Vec<f32>>, PrimeError> {
        if self.runners.is_empty() {
            return Err(PrimeError::MappingMismatch {
                reason: "no network deployed".to_string(),
            });
        }
        // Read noise is bank state for the length of this call only: every
        // bank leaves digital again, on `Ok` and `Err` alike, so
        // calibration and digital calls never see it.
        self.set_read_noise(read_noise);
        let result = self.run_batch(inputs);
        self.set_read_noise(None);
        result
    }

    /// Gives bank `b` the read noise `noise` on a stream seeded
    /// `seed.wrapping_add(b)`, or makes every bank digital (`None`).
    fn set_read_noise(&mut self, read_noise: Option<(&NoiseModel, u64)>) {
        for (b, bank) in self.banks.iter_mut().enumerate() {
            let stream = read_noise.map(|(noise, seed)| (*noise, seed.wrapping_add(b as u64)));
            bank.set_read_noise(stream);
        }
    }

    /// The batch engines behind [`infer_batch`](Self::infer_batch) and
    /// [`infer_batch_noisy`](Self::infer_batch_noisy). Both drive every
    /// inference through [`stage_step`](Self::stage_step), one stage on
    /// its bank at a time.
    fn run_batch(&mut self, inputs: &[Vec<f32>]) -> Result<Vec<Vec<f32>>, PrimeError> {
        let bpc = self.banks_per_copy;
        let copies = self.runners.len();
        let stages = self.runners[0].stage_count();
        if !self.parallel || inputs.len() <= 1 || (copies == 1 && stages == 1) {
            let mut outputs = Vec::with_capacity(inputs.len());
            for (i, input) in inputs.iter().enumerate() {
                let c = i % copies;
                let runner = &self.runners[c];
                let (bank0, codes) = (c * bpc, &mut self.carry);
                let mut out = Vec::new();
                runner.quantize_input(input, codes)?;
                for s in 0..runner.stage_count() {
                    let b = bank0 + runner.stage_bank(s);
                    let (bank, scratch) = (&mut self.banks[b], &mut self.scratches[b]);
                    Self::stage_step(runner, s, bank, scratch, codes, &mut out)?;
                }
                outputs.push(out);
                self.stats.inferences += 1;
            }
            return Ok(outputs);
        }
        // One thread per stage bank. Each copy owns a consecutive bank
        // group and processes exactly the inputs the serial round-robin
        // would hand it (i % copies == c), in order; within a copy the
        // stage threads form a pipe connected by channels, so input i+1
        // occupies stage 0 while input i runs in stage 1. A single-stage
        // copy is a one-stage pipe. Every bank's controller (with its read
        // noise stream) and scratch stay thread-private and see the same
        // per-bank work sequence as the serial engine, so outputs and RNG
        // draws match it bit for bit.
        let runners = &self.runners;
        let results: Vec<CopyBatch> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (c, (banks, scratches)) in self
                .banks
                .chunks_mut(bpc)
                .zip(self.scratches.chunks_mut(bpc))
                .take(copies)
                .enumerate()
            {
                let runner = &runners[c];
                let stages = runner.stage_count();
                // Forward channels between consecutive stages carry
                // (input index, activation codes); a recycle channel
                // returns spent code vectors from the final stage to
                // stage 0 so the steady state allocates nothing.
                let (recycle_tx, recycle_rx) = mpsc::channel();
                let order = (c..inputs.len()).step_by(copies);
                let mut upstreams = vec![Upstream::Inputs { order, recycled: recycle_rx }];
                let mut downstreams = Vec::with_capacity(stages);
                for _ in 1..stages {
                    let (tx, rx) = mpsc::channel();
                    downstreams.push(Downstream::Stage(tx));
                    upstreams.push(Upstream::Stage(rx));
                }
                downstreams.push(Downstream::Recycle(recycle_tx));
                // Stage banks strictly increase (checked when the plan
                // compiled), so walking the group in bank order meets the
                // stage banks in stage order, each exactly once.
                let stage_banks = banks
                    .iter_mut()
                    .zip(scratches.iter_mut())
                    .enumerate()
                    .filter(|(b, _)| (0..stages).any(|s| runner.stage_bank(s) == *b));
                for (s, (((_, (bank, scratch)), upstream), downstream)) in
                    stage_banks.zip(upstreams).zip(downstreams).enumerate()
                {
                    handles.push(scope.spawn(move || {
                        Self::stage_worker(runner, s, bank, scratch, inputs, upstream, downstream)
                    }));
                }
            }
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        Err((
                            0,
                            PrimeError::Internal {
                                reason: "a pipeline stage thread panicked".to_string(),
                            },
                        ))
                    })
                })
                .collect()
        });
        let mut outputs: Vec<Option<Vec<f32>>> = (0..inputs.len()).map(|_| None).collect();
        let mut first_err: Option<(usize, PrimeError)> = None;
        for result in results {
            match result {
                Ok(done) => {
                    for (i, out) in done {
                        outputs[i] = Some(out);
                    }
                }
                Err((i, e)) => {
                    if first_err.as_ref().is_none_or(|(j, _)| i < *j) {
                        first_err = Some((i, e));
                    }
                }
            }
        }
        if let Some((i, e)) = first_err {
            // Match the serial engine's accounting: every input before
            // the first failing index completed.
            self.stats.inferences += i as u64;
            return Err(e);
        }
        let outputs = outputs
            .into_iter()
            .enumerate()
            .map(|(i, o)| {
                o.ok_or_else(|| PrimeError::Internal {
                    reason: format!("no pipeline stage produced an output for input {i}"),
                })
            })
            .collect::<Result<Vec<_>, PrimeError>>()?;
        self.stats.inferences += inputs.len() as u64;
        Ok(outputs)
    }

    /// One stage of one inference on the stage's bank: land the previous
    /// stage's activation codes
    /// ([`stage_transfer_in`](CommandRunner::stage_transfer_in), every
    /// stage but the first), run the stage, and move its output out of the
    /// bank ([`stage_transfer_out`](CommandRunner::stage_transfer_out),
    /// every stage but the last, whose run fills `out` instead). FC
    /// boundaries move the full buffer-resident vector; conv/pool
    /// boundaries stream their Mem-resident feature maps in bursts. The
    /// serial loop and every stage worker step through here, so both
    /// engines issue identical buffer traffic and mat evaluations per bank.
    fn stage_step(
        runner: &CommandRunner,
        s: usize,
        bank: &mut BankController,
        scratch: &mut InferScratch,
        codes: &mut Vec<i64>,
        out: &mut Vec<f32>,
    ) -> Result<(), PrimeError> {
        let last = runner.stage_count() - 1;
        if s > 0 {
            runner.stage_transfer_in(s, bank, codes)?;
        }
        runner.run_stage(s, bank, scratch, codes, (s == last).then_some(out))?;
        if s < last {
            runner.stage_transfer_out(s, bank, codes)?;
        }
        Ok(())
    }

    /// The thread body of stage `s` of one copy's pipe, at any position:
    /// take a packet from `upstream`, [`stage_step`](Self::stage_step) it
    /// on the stage's bank, pass it `downstream`. Returns the outputs the
    /// stage completed (only the final stage completes any), or the first
    /// (input index, error) it hit; a broken pipe ends the worker quietly,
    /// since the failing stage reports the error.
    fn stage_worker(
        runner: &CommandRunner,
        s: usize,
        bank: &mut BankController,
        scratch: &mut InferScratch,
        inputs: &[Vec<f32>],
        mut upstream: Upstream,
        downstream: Downstream,
    ) -> CopyBatch {
        // Stage 0 bounds the in-flight vectors: it allocates a few, then
        // blocks on recycling — the backpressure keeps steady-state
        // allocation at zero. The credit count is the same constant the
        // Pass-3 stage-graph check certifies nonzero.
        let mut credits = prime_compiler::pipeline_credits(runner.stage_count());
        let mut done = Vec::new();
        loop {
            let (i, mut codes) = match &mut upstream {
                Upstream::Inputs { order, recycled } => {
                    let Some(i) = order.next() else { break };
                    let mut codes = match recycled.try_recv() {
                        Ok(v) => v,
                        Err(_) if credits > 0 => {
                            credits -= 1;
                            Vec::new()
                        }
                        Err(_) => match recycled.recv() {
                            Ok(v) => v,
                            Err(_) => break,
                        },
                    };
                    runner.quantize_input(&inputs[i], &mut codes).map_err(|e| (i, e))?;
                    (i, codes)
                }
                Upstream::Stage(rx) => match rx.recv() {
                    Ok(packet) => packet,
                    Err(_) => break,
                },
            };
            let mut out = Vec::new();
            Self::stage_step(runner, s, bank, scratch, &mut codes, &mut out).map_err(|e| (i, e))?;
            match &downstream {
                Downstream::Stage(tx) => {
                    if tx.send((i, codes)).is_err() {
                        break;
                    }
                }
                Downstream::Recycle(recycle) => {
                    done.push((i, out));
                    // Stage 0 may already have exited.
                    let _ = recycle.send(codes);
                }
            }
        }
        Ok(done)
    }

    /// OS hook: records one page access and applies the §IV-C policy —
    /// under page-miss pressure with idle FF capacity, reserved mats are
    /// released back to normal memory.
    pub fn record_page_access(&mut self, miss: bool) -> MorphDecision {
        self.tracker.record(miss);
        let decision = self
            .policy
            .decide(self.tracker.miss_rate(), self.reservations.utilization());
        if decision == MorphDecision::ReleaseToMemory {
            // Release anything idle; deployed-but-unused mats qualify.
            let releasable = self.reservations.reserved_count();
            self.reservations.release_idle(releasable);
        }
        decision
    }

    /// Fraction of the FF pool currently reserved for computation.
    pub fn ff_utilization(&self) -> f64 {
        self.reservations.utilization()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prime_nn::{Activation, FullyConnected, Layer};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn relu_net(rng: &mut SmallRng) -> Network {
        let mut net = Network::new(vec![
            Layer::Fc(FullyConnected::new(12, 8, Activation::Relu)),
            Layer::Fc(FullyConnected::new(8, 3, Activation::Identity)),
        ])
        .expect("widths match");
        net.init_random(rng);
        net
    }

    /// A net whose layers each fit one 2x4-mat bank but not together:
    /// the compiler must split it into a two-bank pipeline.
    fn pipelined_net(rng: &mut SmallRng) -> Network {
        let mut net = Network::new(vec![
            Layer::Fc(FullyConnected::new(24, 16, Activation::Relu)),
            Layer::Fc(FullyConnected::new(16, 6, Activation::Identity)),
        ])
        .expect("widths match");
        net.init_random(rng);
        net
    }

    #[test]
    fn deploy_and_infer_across_banks() {
        let mut rng = SmallRng::seed_from_u64(99);
        let net = relu_net(&mut rng);
        let mut system = PrimeSystem::new(3, 2, 4, 2048);
        system.deploy(&net, &[0.5; 12]).unwrap();
        assert_eq!(system.copies(), 3);
        assert_eq!(system.banks_per_copy(), Some(1));
        let inputs: Vec<Vec<f32>> = (0..6)
            .map(|i| (0..12).map(|j| ((i + j) % 7) as f32 / 7.0).collect())
            .collect();
        let outputs = system.infer_batch(&inputs).unwrap();
        assert_eq!(outputs.len(), 6);
        // All banks hold the same weights: identical inputs landing on
        // different banks produce identical outputs.
        let dup = system
            .infer_batch(&[
                inputs[0].clone(),
                inputs[0].clone(),
                inputs[0].clone(),
                inputs[0].clone(),
            ])
            .unwrap();
        assert_eq!(dup[0], dup[1]);
        assert_eq!(dup[0], dup[3]);
        let stats = system.stats();
        assert_eq!(stats.reconfigurations, 1);
        assert_eq!(stats.inferences, 10);
        assert!(stats.reserved_mats > 0);
    }

    #[test]
    fn oversized_network_deploys_as_interbank_pipeline() {
        let mut rng = SmallRng::seed_from_u64(7);
        let net = pipelined_net(&mut rng);
        // Tiny mats (via the default 256x128 geometry the controller
        // builds) still fit these layers; shrink the bank instead: 1
        // subarray of 1 mat per bank forces one layer per bank.
        let mut system = PrimeSystem::new(4, 1, 1, 2048);
        system.deploy(&net, &[0.4; 24]).unwrap();
        assert_eq!(system.banks_per_copy(), Some(2));
        assert_eq!(system.deployed_stages(), Some(2));
        assert_eq!(system.copies(), 2);
        let inputs: Vec<Vec<f32>> = (0..5)
            .map(|i| (0..24).map(|j| ((i * 3 + j) % 11) as f32 / 11.0).collect())
            .collect();
        let piped = system.infer_batch(&inputs).unwrap();
        // Reference: the same network on one bank big enough to hold it.
        let mut single = PrimeSystem::new(1, 1, 2, 2048);
        single.deploy(&net, &[0.4; 24]).unwrap();
        assert_eq!(single.deployed_stages(), Some(1));
        let flat = single.infer_batch(&inputs).unwrap();
        assert_eq!(piped, flat, "pipelined placement changed the arithmetic");
    }

    #[test]
    fn infer_before_deploy_fails() {
        let mut system = PrimeSystem::new(2, 1, 2, 512);
        assert!(system.infer_batch(&[vec![0.0; 4]]).is_err());
    }

    #[test]
    fn os_pressure_releases_ff_capacity() {
        let mut rng = SmallRng::seed_from_u64(100);
        let net = relu_net(&mut rng);
        // A large pool keeps deployed utilization under the policy's
        // low-utilization threshold, the §IV-C release precondition.
        let mut system = PrimeSystem::new(2, 2, 16, 2048);
        system.deploy(&net, &[0.5; 12]).unwrap();
        let before = system.ff_utilization();
        assert!(before > 0.0 && before < 0.10, "utilization {before}");
        // Sustained page misses with low FF utilization trigger release.
        let mut released = false;
        for _ in 0..300 {
            if system.record_page_access(true) == MorphDecision::ReleaseToMemory {
                released = true;
            }
        }
        assert!(released, "policy never released under 100% miss rate");
        assert_eq!(system.ff_utilization(), 0.0);
    }

    #[test]
    fn redeployment_counts_reconfigurations_and_wear() {
        let mut rng = SmallRng::seed_from_u64(101);
        let mut system = PrimeSystem::new(2, 2, 4, 2048);
        for _ in 0..3 {
            let net = relu_net(&mut rng);
            system.deploy(&net, &[0.5; 12]).unwrap();
        }
        let stats = system.stats();
        assert_eq!(stats.reconfigurations, 3);
        assert!(stats.wear_imbalance >= 1.0);
    }

    #[test]
    fn replicas_alias_copy_zero_and_stay_exact() {
        let mut rng = SmallRng::seed_from_u64(303);
        let net = relu_net(&mut rng);
        let inputs: Vec<Vec<f32>> = (0..6)
            .map(|i| (0..12).map(|j| ((i * 5 + j) % 9) as f32 / 9.0).collect())
            .collect();
        let mut system = PrimeSystem::new(4, 2, 4, 2048);
        system.deploy(&net, &[0.5; 12]).unwrap();
        let mut single = PrimeSystem::new(1, 2, 4, 2048);
        single.deploy(&net, &[0.5; 12]).unwrap();
        assert_eq!(
            system.infer_batch(&inputs).unwrap(),
            single.infer_batch(&inputs).unwrap(),
            "aliased replicas changed the arithmetic"
        );
        let s = system.deploy_stats().expect("stats after deploy").clone();
        let one = single.deploy_stats().expect("stats after deploy").clone();
        // 12-8-3 on 4 banks: 2 unique tiles, each placed once per copy;
        // the 3 replica copies alias copy 0's tiles.
        assert_eq!(s.copies, 4);
        assert_eq!(s.unique_tiles, 2);
        assert_eq!(s.unique_tiles, one.unique_tiles);
        assert_eq!(s.aliased_placements, (s.copies - 1) * s.unique_tiles);
        assert_eq!(s.resident_bytes, one.resident_bytes);
        assert_eq!(s.resident_bytes * s.copies, s.dense_bytes);
        assert_eq!(system.resident_state_bytes(), s.resident_bytes);
        assert_eq!(one.aliased_placements, 0);
    }

    #[test]
    fn resident_state_counts_each_shared_plane_once() {
        let mut rng = SmallRng::seed_from_u64(303);
        let net = relu_net(&mut rng);
        let mut system = PrimeSystem::new(4, 2, 4, 2048);
        system.deploy(&net, &[0.5; 12]).unwrap();
        // 12-8-3: two unique tiles, each a pair of byte-per-cell 256x256
        // arrays plus the i16 plane of its programmed region (rows x
        // 2 * cols), derived by deploy-time calibration. The four copies
        // alias both, so each plane counts once.
        let tile_bytes = |rows: usize, cols: usize| 2 * 256 * 256 + 2 * rows * 2 * cols;
        let unique = tile_bytes(12, 8) + tile_bytes(8, 3);
        assert_eq!(system.resident_state_bytes(), unique);
        let stats = system.deploy_stats().expect("stats after deploy");
        assert_eq!((stats.resident_bytes, stats.dense_bytes), (unique, 4 * unique));
    }

    #[test]
    fn program_noise_is_seeded_and_per_placement() {
        let mut rng = SmallRng::seed_from_u64(307);
        let net = relu_net(&mut rng);
        let inputs: Vec<Vec<f32>> = (0..6)
            .map(|i| (0..12).map(|j| ((i * 5 + j) % 9) as f32 / 9.0).collect())
            .collect();
        let noise = NoiseModel { program_sigma: 0.1, read_sigma: 0.0 };
        let deployed = || {
            let mut system = PrimeSystem::new(4, 2, 4, 2048);
            system.deploy(&net, &[0.5; 12]).unwrap();
            system
        };
        let run = |seed: u64| {
            let mut system = deployed();
            system.apply_program_noise(&noise, seed).unwrap();
            system.infer_batch_noisy(&inputs, &noise, 0).unwrap()
        };
        assert_eq!(run(1), run(1), "the same seed must reproduce bit for bit");
        assert_ne!(run(1), run(2), "different seeds must perturb differently");
        // Copy-on-write: each of the 4 copies now owns its perturbed
        // tiles instead of aliasing copy 0's.
        let mut system = deployed();
        system.apply_program_noise(&noise, 1).unwrap();
        let mut single = PrimeSystem::new(1, 2, 4, 2048);
        single.deploy(&net, &[0.5; 12]).unwrap();
        single.apply_program_noise(&noise, 1).unwrap();
        assert_eq!(system.resident_state_bytes(), 4 * single.resident_state_bytes());
        assert!(PrimeSystem::new(1, 1, 1, 512).apply_program_noise(&noise, 1).is_err());
    }

    #[test]
    fn redeploy_leaves_no_stale_tiles() {
        let mut rng = SmallRng::seed_from_u64(305);
        let mut big = Network::new(vec![
            Layer::Fc(FullyConnected::new(200, 300, Activation::Relu)),
            Layer::Fc(FullyConnected::new(300, 100, Activation::Relu)),
            Layer::Fc(FullyConnected::new(100, 10, Activation::Identity)),
        ])
        .expect("widths match");
        big.init_random(&mut rng);
        let small = relu_net(&mut rng);
        let inputs: Vec<Vec<f32>> = (0..5)
            .map(|i| (0..12).map(|j| ((i * 3 + j) % 7) as f32 / 7.0).collect())
            .collect();
        let mut redeployed = PrimeSystem::new(4, 2, 4, 2048);
        redeployed.deploy(&big, &[0.5; 200]).unwrap();
        redeployed.deploy(&small, &[0.5; 12]).unwrap();
        let mut fresh = PrimeSystem::new(4, 2, 4, 2048);
        fresh.deploy(&small, &[0.5; 12]).unwrap();
        let (r, f) = (
            redeployed.deploy_stats().expect("deployed").clone(),
            fresh.deploy_stats().expect("deployed").clone(),
        );
        assert_eq!(
            (r.copies, r.unique_tiles, r.aliased_placements, r.resident_bytes, r.dense_bytes),
            (f.copies, f.unique_tiles, f.aliased_placements, f.resident_bytes, f.dense_bytes)
        );
        assert_eq!(redeployed.stats().reserved_mats, fresh.stats().reserved_mats);
        assert_eq!(redeployed.infer_batch(&inputs).unwrap(), fresh.infer_batch(&inputs).unwrap());
    }
}
