//! Throughput of the batched inference engines.
//!
//! Deploys MLP-M-class and CNN-1-class fully-connected workloads across
//! 1, 2, 4, and 8 banks, plus a VGG-D-class deep stack that cannot fit
//! one bank and deploys as an inter-bank pipeline (paper §IV-B), and
//! measures `PrimeSystem::infer_batch` in both execution modes — serial
//! round-robin vs one thread per stage bank (paper §V bank-level
//! parallelism, stage overlap for pipelined plans) — verifying on every
//! configuration that the two engines produce bit-identical outputs.
//! For pipelined rows the per-batch fill/drain overhead is estimated by
//! timing two batch sizes (`overhead = 2*T(B) - T(2B)`, the intercept of
//! the linear batch-time model). Writes `BENCH_throughput.json` (object
//! with `meta` + `rows`) to the working directory (repo root under
//! `cargo run`); `meta.host_cpu_cores` records the parallelism the host
//! actually offers, so ~1x speedups on a 1-core container are
//! self-explaining.
//!
//! A final section drives the paper's CNN-1 (`conv5x5-pool-720-70-10`)
//! through the functional conv/pool datapath of the device runner
//! (DESIGN.md §11) and reports a per-layer wall-clock breakdown plus a
//! per-phase split of the conv layer (stage/gather/evaluate/emit, from
//! `CommandRunner::infer_profiled_into`), so the cost structure of the
//! weight-stationary conv schedule is visible in
//! `BENCH_throughput.json` (`device_runner` key).
//!
//! The serial engine round-robins the same work regardless of how many
//! banks are deployed, so its baseline is measured once per workload
//! (first bank-count row) and reused; later rows still run the serial
//! engine once, untimed, for the output-equality assert.
//!
//! A last section deploys the paper's VGG-D at **full weight scale**
//! (~1.4x10^8 synapses) on a wide-bank device-runner system and times
//! one inference; every engine row also reports deploy wall-time and
//! resident bank-state bytes (`deploy_ms` / `bank_state_bytes`).
//!
//! A searched-vs-fixed section (`search` key) runs the cost-model-driven
//! mapping search (`prime_core::search_mapping` under the latency
//! objective, scored by `prime_sim::SimCostModel`) against the fixed
//! default mapping for MLP-M, CNN-1, and the full-size VGG-D,
//! reporting per-workload candidate counts, the chosen candidate, and
//! the searched/fixed steady-state interval ratio — which can never
//! exceed 1.0, since the fixed default is itself a candidate.
//!
//! `--smoke` runs two fast configurations (one flat, one pipelined)
//! plus the device-runner breakdown (best of five reps, as in a full
//! run), the VGG-D (full) deploy, and the
//! (analytical, cheap) searched-vs-fixed section, and
//! skips the JSON. With `--baseline <path>` (CI) the device-runner conv
//! row, the VGG-D (full) deploy time, and the search interval ratios
//! are additionally checked against the pinned `BENCH_baseline.json`:
//! the run fails if conv ns/inference, conv share, or VGG deploy
//! wall-time regresses beyond tolerance, or if any searched mapping
//! scores worse than the fixed default it replaced — so a change that
//! silently reverts the weight-stationary schedule, the
//! replicate-by-cloning deploy, or the search's argmin rule fails CI
//! rather than landing as a slow green build.

use std::time::Instant;

use prime_analyze::Target;
use prime_compiler::Objective;
use prime_core::{
    search_mapping, BankController, CandidateVerdict, CommandRunner, ConvPhases, InferScratch,
    PrimeSystem,
};
use prime_sim::SimCostModel;
use prime_nn::{
    Activation, Conv2d, FullyConnected, Layer, MlBench, Network, Pool2d, PoolKind,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Run-level metadata.
#[derive(Serialize)]
struct Meta {
    /// `std::thread::available_parallelism` on the measuring host: the
    /// hard ceiling on any serial-vs-parallel speedup below.
    host_cpu_cores: Option<usize>,
    note: String,
}

/// One measured (workload, bank-count) configuration.
#[derive(Serialize)]
struct Row {
    workload: String,
    topology: String,
    banks: usize,
    /// Pipeline stages one deployed copy executes (1 = fits a bank).
    stages: usize,
    batch: usize,
    serial_ns_per_inference: f64,
    parallel_ns_per_inference: f64,
    serial_inferences_per_s: f64,
    parallel_inferences_per_s: f64,
    speedup: f64,
    /// Estimated per-batch pipeline fill/drain overhead in ns (parallel
    /// engine, pipelined rows only).
    fill_drain_ns: Option<f64>,
    /// Deployment wall-time (map + verify + program + calibrate +
    /// replicate), milliseconds.
    deploy_ms: f64,
    /// Crossbar weight state the deployment keeps resident, shared tiles
    /// counted once (bytes).
    bank_state_bytes: usize,
}

/// One layer of the device-runner breakdown.
#[derive(Serialize)]
struct DeviceLayerRow {
    layer: String,
    ns_per_inference: f64,
    /// Fraction of the whole inference this layer accounts for.
    share: f64,
}

/// One conv phase of the device-runner breakdown (stage / gather /
/// evaluate / emit, summed over every conv layer of the inference).
#[derive(Serialize)]
struct ConvPhaseRow {
    phase: String,
    ns_per_inference: f64,
    /// Fraction of the conv phase total this phase accounts for.
    share: f64,
}

/// The CNN-1-class workload measured layer by layer on the functional
/// device runner (command-driven conv/pool/FC datapath, DESIGN.md §11).
#[derive(Serialize)]
struct DeviceRunnerRow {
    workload: String,
    topology: String,
    batch: usize,
    ns_per_inference: f64,
    inferences_per_s: f64,
    /// Median wall-clock of one whole inference across every measured
    /// (rep, input) pair — the in-process reference point for
    /// `prime-benchmark`'s served p50: served p50 minus this is the
    /// wire + batching overhead.
    single_request_ns_p50: f64,
    layers: Vec<DeviceLayerRow>,
    /// Per-phase split of the conv layers (weight-stationary schedule:
    /// row staging, window gathering, analog evaluation, emit).
    conv_phases: Vec<ConvPhaseRow>,
}

/// The full-size VGG-D (no class-scale stand-in) deployed and executed
/// on the device runner.
#[derive(Serialize)]
struct VggFullRow {
    workload: String,
    topology: String,
    synapses: u64,
    batch: usize,
    /// Pipeline stages of the deployed plan.
    stages: usize,
    /// Deployment wall-time (map + verify + program + calibrate),
    /// milliseconds — ~1.4x10^8 synapses quantized and programmed.
    deploy_ms: f64,
    /// Crossbar weight state kept resident, shared tiles counted once.
    bank_state_bytes: usize,
    /// What the same placements would hold if every one owned its bytes.
    dense_state_bytes: usize,
    unique_tiles: usize,
    aliased_placements: usize,
    ns_per_inference: f64,
}

/// One workload's searched-vs-fixed comparison: the latency-objective
/// mapping search against the fixed default mapping, both
/// scored with the analytical cost model ([`SimCostModel`]) the search
/// itself minimizes. `interval_ratio <= 1.0` is the search's whole
/// point — the argmin can never lose to a candidate it enumerates.
#[derive(Serialize)]
struct SearchRow {
    workload: String,
    objective: String,
    /// Candidates the search enumerated (fixed default first).
    candidates: usize,
    /// Candidates the static verifiers pruned before scoring.
    pruned: usize,
    /// One-line description of the winning candidate.
    chosen: String,
    fixed_image_ns: f64,
    fixed_interval_ns: f64,
    searched_image_ns: f64,
    searched_interval_ns: f64,
    /// Searched over fixed steady-state interval; at or below 1.0 the
    /// search never regresses on the fixed default.
    interval_ratio: f64,
}

/// The searched-vs-fixed gate of the pinned baseline: the smoke run
/// fails if any workload's `interval_ratio` exceeds this. Pinned at 1.0
/// (plus a float-rounding epsilon in the check): a search that loses to
/// its own fixed default is a selection-rule bug, not host noise.
#[derive(Deserialize)]
struct SearchBaseline {
    max_interval_ratio: f64,
}

/// The pinned regression baseline (`BENCH_baseline.json`): the
/// device-runner conv row and the full-size VGG-D deploy the CI smoke
/// run is held to.
#[derive(Deserialize)]
struct Baseline {
    /// Searched-vs-fixed mapping-search gate.
    search: SearchBaseline,
    /// Conv-layer ns/inference of the pinned run; the smoke check fails
    /// past [`BASELINE_NS_TOLERANCE`] times this.
    device_conv_ns_per_inference: f64,
    /// Conv share of whole-inference time in the pinned run; the smoke
    /// check fails past this plus [`BASELINE_SHARE_TOLERANCE`].
    device_conv_share: f64,
    /// Full-size VGG-D deploy wall-time of the pinned run; the smoke
    /// check fails past [`BASELINE_NS_TOLERANCE`] times this, so a
    /// change that silently reverts the replicate-by-aliasing deploy
    /// fails CI rather than landing as a minutes-slower green build.
    vgg_full_deploy_ms: f64,
}

/// Conv ns/inference may drift up to this factor over the pinned
/// baseline before the check fails — wide enough for noisy shared CI
/// hosts, far below the ~7x cost of the pre-weight-stationary schedule.
const BASELINE_NS_TOLERANCE: f64 = 3.0;

/// Reps of the device-runner conv row, in `--smoke` and full runs alike.
/// The row is the best rep, so the baseline gate reads the fastest of
/// these samples rather than a single one a shared host's slow phase can
/// double.
const DEVICE_RUNNER_REPS: usize = 5;

/// Conv share of inference time may exceed the pinned baseline by this
/// much before the check fails. Share is host-speed-independent, so the
/// band is tighter than the wall-clock one.
const BASELINE_SHARE_TOLERANCE: f64 = 0.15;

#[derive(Serialize)]
struct Report {
    meta: Meta,
    rows: Vec<Row>,
    device_runner: DeviceRunnerRow,
    vgg_full: VggFullRow,
    /// Searched-vs-fixed mapping comparison for MLP-M, CNN-1, and the
    /// full-size VGG-D under the analytical cost model.
    search: Vec<SearchRow>,
}

/// A fully-connected ReLU workload the command runner can execute
/// (hidden layers ReLU, final layer identity).
fn fc_net(widths: &[usize], seed: u64) -> Network {
    let mut rng = SmallRng::seed_from_u64(seed);
    let layers = widths
        .windows(2)
        .enumerate()
        .map(|(i, w)| {
            let act =
                if i + 2 == widths.len() { Activation::Identity } else { Activation::Relu };
            Layer::Fc(FullyConnected::new(w[0], w[1], act))
        })
        .collect();
    let mut net = Network::new(layers).expect("chained widths match");
    net.init_random(&mut rng);
    net
}

fn pseudo_batch(len: usize, width: usize) -> Vec<Vec<f32>> {
    (0..len)
        .map(|i| (0..width).map(|j| ((i * 7 + j * 5) % 13) as f32 / 13.0).collect())
        .collect()
}

fn time_batch(system: &mut PrimeSystem, inputs: &[Vec<f32>], reps: usize) -> (f64, Vec<Vec<f32>>) {
    // Warm-up grows every scratch buffer to its steady-state size.
    let outputs = system.infer_batch(inputs).expect("deployed");
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        let got = system.infer_batch(inputs).expect("deployed");
        let elapsed = start.elapsed().as_secs_f64();
        assert_eq!(got, outputs, "engine is not deterministic across repetitions");
        best = best.min(elapsed);
    }
    (best, outputs)
}

/// Geometry of each bank: (FF subarrays, mats per subarray).
struct Config<'a> {
    name: &'a str,
    widths: &'a [usize],
    bank_geometry: (usize, usize),
}

/// Measures one (workload, bank-count) row. The serial engine performs
/// the same round-robin work regardless of bank count, so its timing is
/// a per-workload constant: `serial_baseline_s` carries the first row's
/// measurement into later rows, which then run the serial engine once,
/// untimed, purely as the output-equality reference. Returns the row and
/// the serial seconds used (to seed the next row's baseline).
fn measure(
    config: &Config<'_>,
    banks: usize,
    batch: usize,
    reps: usize,
    serial_baseline_s: Option<f64>,
) -> (Row, f64) {
    let Config { name, widths, bank_geometry: (subarrays, mats) } = *config;
    let net = fc_net(widths, 0x5EED);
    let calibration = vec![0.5f32; widths[0]];
    let mut system = PrimeSystem::new(banks, subarrays, mats, 8192);
    system.deploy(&net, &calibration).expect("workload fits the memory");
    let stages = system.deployed_stages().expect("deployed");
    let inputs = pseudo_batch(batch, widths[0]);

    system.set_parallel(false);
    let (serial_s, serial_out) = match serial_baseline_s {
        Some(s) => (s, system.infer_batch(&inputs).expect("deployed")),
        None => time_batch(&mut system, &inputs, reps),
    };
    system.set_parallel(true);
    let (parallel_s, parallel_out) = time_batch(&mut system, &inputs, reps);
    assert_eq!(
        serial_out, parallel_out,
        "{name} on {banks} banks: parallel outputs diverge from serial"
    );
    // Pipelined rows: the intercept of the linear batch-time model
    // T(B) = fill_drain + steady * B, from a second (doubled) batch.
    let fill_drain_ns = (stages > 1).then(|| {
        let doubled = pseudo_batch(2 * batch, widths[0]);
        let (doubled_s, _) = time_batch(&mut system, &doubled, reps);
        ((2.0 * parallel_s - doubled_s) * 1e9).max(0.0)
    });

    let per_inf = |s: f64| s / batch as f64 * 1e9;
    let deploy = system.deploy_stats().expect("deployed");
    let row = Row {
        workload: name.to_string(),
        topology: widths.iter().map(usize::to_string).collect::<Vec<_>>().join("-"),
        banks,
        stages,
        batch,
        serial_ns_per_inference: per_inf(serial_s),
        parallel_ns_per_inference: per_inf(parallel_s),
        serial_inferences_per_s: batch as f64 / serial_s,
        parallel_inferences_per_s: batch as f64 / parallel_s,
        speedup: serial_s / parallel_s,
        fill_drain_ns,
        deploy_ms: deploy.wall_ms,
        bank_state_bytes: deploy.resident_bytes,
    };
    (row, serial_s)
}

/// The paper's CNN-1 (`conv5x5-pool-720-70-10`) with runner-supported
/// activations: conv and hidden FC layers ReLU, final layer identity.
fn cnn1_class_net(seed: u64) -> Network {
    let mut rng = SmallRng::seed_from_u64(seed);
    let layers = vec![
        Layer::Conv(Conv2d::new(1, 5, 5, 28, 28, 0, Activation::Relu)),
        Layer::Pool(Pool2d::new(PoolKind::Max, 5, 24, 24, 2)),
        Layer::Fc(FullyConnected::new(720, 70, Activation::Relu)),
        Layer::Fc(FullyConnected::new(70, 10, Activation::Identity)),
    ];
    let mut net = Network::new(layers).expect("CNN-1 shapes chain");
    net.init_random(&mut rng);
    net
}

/// Times the CNN-1-class conv/pool workload layer by layer on the
/// functional device runner. Per-layer times come from the rep with the
/// lowest whole-inference total (the same best-of-reps policy as
/// `time_batch`), summed over the batch.
fn measure_device_runner(batch: usize, reps: usize) -> DeviceRunnerRow {
    let net = cnn1_class_net(0x5EED);
    let calibration = vec![0.5f32; 28 * 28];
    let mut controller = BankController::new(2, 8, 4096, 8192);
    let runner = CommandRunner::compile(&net, &mut controller, &calibration)
        .expect("CNN-1-class fits one bank");
    let labels = runner.layer_labels();
    let inputs = pseudo_batch(batch, 28 * 28);

    let mut scratch = InferScratch::new();
    let mut out = Vec::new();
    let mut ns = Vec::new();
    let mut phases = ConvPhases::default();
    // Warm-up grows every scratch buffer; the last output doubles as the
    // determinism reference for the measured reps.
    for input in &inputs {
        runner
            .infer_profiled_into(
                &mut controller,
                input,
                &mut scratch,
                &mut out,
                &mut ns,
                &mut phases,
            )
            .expect("compiled plan runs");
    }
    let reference = out.clone();

    let mut best_total = f64::INFINITY;
    let mut best_layers = vec![0.0f64; labels.len()];
    let mut best_phases = ConvPhases::default();
    let mut single_request_ns = Vec::with_capacity(reps * inputs.len());
    for _ in 0..reps {
        let mut layer_sums = vec![0.0f64; labels.len()];
        let mut phase_sums = ConvPhases::default();
        for input in &inputs {
            runner
                .infer_profiled_into(
                    &mut controller,
                    input,
                    &mut scratch,
                    &mut out,
                    &mut ns,
                    &mut phases,
                )
                .expect("compiled plan runs");
            single_request_ns.push(ns.iter().sum::<f64>());
            for (sum, v) in layer_sums.iter_mut().zip(&ns) {
                *sum += v;
            }
            phase_sums.stage_ns += phases.stage_ns;
            phase_sums.gather_ns += phases.gather_ns;
            phase_sums.eval_ns += phases.eval_ns;
            phase_sums.emit_ns += phases.emit_ns;
        }
        assert_eq!(out, reference, "device runner is not deterministic across repetitions");
        let total: f64 = layer_sums.iter().sum();
        if total < best_total {
            best_total = total;
            best_layers = layer_sums;
            best_phases = phase_sums;
        }
    }

    let phase_total = best_phases.total_ns();
    let conv_phases = [
        ("stage", best_phases.stage_ns),
        ("gather", best_phases.gather_ns),
        ("evaluate", best_phases.eval_ns),
        ("emit", best_phases.emit_ns),
    ]
    .into_iter()
    .map(|(phase, sum)| ConvPhaseRow {
        phase: phase.to_string(),
        ns_per_inference: sum / batch as f64,
        share: if phase_total > 0.0 { sum / phase_total } else { 0.0 },
    })
    .collect();

    // Nearest-rank median of every measured single-inference total: the
    // latency a one-request batch sees in process, without wire framing
    // or queueing — the floor `prime-benchmark`'s served p50 is read against.
    single_request_ns.sort_by(|a, b| a.total_cmp(b));
    let single_request_ns_p50 =
        single_request_ns.get(single_request_ns.len().saturating_sub(1) / 2).copied().unwrap_or(0.0);

    let per_inf = best_total / batch as f64;
    DeviceRunnerRow {
        workload: "CNN-1-class".to_string(),
        topology: "conv5x5-pool-720-70-10".to_string(),
        batch,
        ns_per_inference: per_inf,
        inferences_per_s: 1e9 / per_inf,
        single_request_ns_p50,
        layers: labels
            .into_iter()
            .zip(best_layers)
            .map(|(layer, sum)| DeviceLayerRow {
                layer,
                ns_per_inference: sum / batch as f64,
                share: if best_total > 0.0 { sum / best_total } else { 0.0 },
            })
            .collect(),
        conv_phases,
    }
}

/// Deploys the full-size VGG-D (~1.4x10^8 synapses, paper Table III) on
/// a wide-bank device-runner system and times deployment plus a single
/// inference.
///
/// Each FF subarray holds 1600 mats so VGG-D's widest stage (the
/// 25088x4096 FC, 3168 mats) fits one bank; three banks hold the whole
/// 4230-mat plan as an inter-bank pipeline with one copy — the §IV-B
/// large-scale case at the paper's real scale.
fn measure_vgg_full() -> VggFullRow {
    let bench = MlBench::VggD;
    let spec = bench.spec();
    let net = spec.to_runner_network(0x5EED).expect("VGG-D builds at full weight scale");
    let calibration: Vec<f32> =
        (0..net.inputs()).map(|j| ((j * 5) % 13) as f32 / 13.0).collect();
    let input: Vec<f32> = (0..net.inputs()).map(|j| ((j * 7) % 11) as f32 / 11.0).collect();

    let mut system = PrimeSystem::new(3, 2, 1600, 65536);
    system
        .deploy(&net, &calibration)
        .expect("full-size VGG-D deploys on the device runner");
    let stats = system.deploy_stats().expect("deployed").clone();
    let start = Instant::now();
    system.infer_batch(std::slice::from_ref(&input)).expect("runs");
    let inference_s = start.elapsed().as_secs_f64();
    println!(
        "VGG-D (full): deploy {:.0} ms, bank state {:.0} MB (dense {:.0} MB), \
         {} tiles ({} aliased placements), inference {:.1} s",
        stats.wall_ms,
        stats.resident_bytes as f64 / (1 << 20) as f64,
        stats.dense_bytes as f64 / (1 << 20) as f64,
        stats.unique_tiles,
        stats.aliased_placements,
        inference_s
    );
    VggFullRow {
        workload: "VGG-D (full)".to_string(),
        topology: bench.topology().to_string(),
        synapses: spec.synapses(),
        batch: 1,
        stages: system.deployed_stages().expect("deployed"),
        deploy_ms: stats.wall_ms,
        bank_state_bytes: stats.resident_bytes,
        dense_state_bytes: stats.dense_bytes,
        unique_tiles: stats.unique_tiles,
        aliased_placements: stats.aliased_placements,
        ns_per_inference: inference_s * 1e9,
    }
}

/// Runs the latency-objective mapping search against the fixed default
/// mapping for MLP-M, CNN-1, and the full-size VGG-D,
/// under the same [`SimCostModel`] the serving registry deploys with.
/// The comparison is analytical (no crossbars programmed), so the full
/// ~1.4x10^8-synapse VGG-D costs milliseconds here, and the smoke run
/// can afford the complete section.
fn measure_search() -> Vec<SearchRow> {
    use prime_nn::MlBench;
    let target = Target::prime_default();
    [MlBench::MlpM, MlBench::Cnn1, MlBench::VggD]
        .into_iter()
        .map(|bench| {
            let spec = bench.spec();
            let searched = search_mapping(&spec, &target, Objective::Latency, &SimCostModel);
            // Candidate 0 is the fixed default mapping.
            let fixed_cost = searched.candidates[0]
                .cost
                .expect("the fixed default maps every paper workload");
            let chosen = searched.chosen().expect("a candidate survives the verifiers");
            let best = chosen.cost.expect("chosen candidates carry a score");
            let pruned = searched
                .candidates
                .iter()
                .filter(|c| matches!(c.verdict, CandidateVerdict::Pruned { .. }))
                .count();
            SearchRow {
                workload: if matches!(bench, MlBench::VggD) {
                    format!("{} (full)", bench.name())
                } else {
                    bench.name().to_string()
                },
                objective: searched.objective.name().to_string(),
                candidates: searched.candidates.len(),
                pruned,
                chosen: chosen.describe(),
                fixed_image_ns: fixed_cost.image_ns,
                fixed_interval_ns: fixed_cost.interval_ns,
                searched_image_ns: best.image_ns,
                searched_interval_ns: best.interval_ns,
                interval_ratio: best.interval_ns / fixed_cost.interval_ns,
            }
        })
        .collect()
}

/// Holds the measured device-runner conv row to the pinned baseline;
/// exits nonzero on regression so the CI smoke step fails.
fn check_baseline(
    device: &DeviceRunnerRow,
    vgg: &VggFullRow,
    search: &[SearchRow],
    path: &str,
) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("baseline {path} unreadable: {e}"));
    let baseline: Baseline = serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("baseline {path} does not parse: {e}"));
    let conv = device
        .layers
        .iter()
        .find(|l| l.layer.starts_with("conv"))
        .expect("device-runner breakdown has a conv row");
    let ns_limit = baseline.device_conv_ns_per_inference * BASELINE_NS_TOLERANCE;
    let share_limit = baseline.device_conv_share + BASELINE_SHARE_TOLERANCE;
    let mut failed = false;
    if conv.ns_per_inference > ns_limit {
        eprintln!(
            "BASELINE REGRESSION: conv {:.0} ns/inference exceeds {:.0} \
             ({}x pinned {:.0})",
            conv.ns_per_inference,
            ns_limit,
            BASELINE_NS_TOLERANCE,
            baseline.device_conv_ns_per_inference
        );
        failed = true;
    }
    if conv.share > share_limit {
        eprintln!(
            "BASELINE REGRESSION: conv share {:.3} exceeds {:.3} \
             (pinned {:.3} + {:.2})",
            conv.share, share_limit, baseline.device_conv_share, BASELINE_SHARE_TOLERANCE
        );
        failed = true;
    }
    let vgg_deploy_ms = vgg.deploy_ms;
    let vgg_limit = baseline.vgg_full_deploy_ms * BASELINE_NS_TOLERANCE;
    if vgg_deploy_ms > vgg_limit {
        eprintln!(
            "BASELINE REGRESSION: VGG-D (full) deploy {:.0} ms exceeds {:.0} \
             ({}x pinned {:.0})",
            vgg_deploy_ms, vgg_limit, BASELINE_NS_TOLERANCE, baseline.vgg_full_deploy_ms
        );
        failed = true;
    }
    // Searched-vs-fixed: the cost model is deterministic, so the only
    // slack is float rounding — a searched mapping that loses to the
    // fixed default it enumerated is a selection-rule bug.
    let ratio_limit = baseline.search.max_interval_ratio * (1.0 + 1e-9);
    for row in search {
        if row.interval_ratio > ratio_limit {
            eprintln!(
                "BASELINE REGRESSION: {} searched/fixed interval ratio {:.6} exceeds \
                 pinned {:.3} — the mapping search regressed on its fixed default",
                row.workload, row.interval_ratio, baseline.search.max_interval_ratio
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "baseline check: conv {:.0} ns/inference (limit {:.0}), share {:.3} \
         (limit {:.3}), VGG-D (full) deploy {:.0} ms (limit {:.0}), search \
         interval ratios within {:.3} — ok",
        conv.ns_per_inference,
        ns_limit,
        conv.share,
        share_limit,
        vgg_deploy_ms,
        vgg_limit,
        baseline.search.max_interval_ratio
    );
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let smoke = argv.iter().any(|a| a == "--smoke");
    let baseline_path = argv
        .iter()
        .position(|a| a == "--baseline")
        .map(|i| argv.get(i + 1).expect("--baseline takes a path").clone());
    // MLP-M-class: the paper's 784-1000-500-250-10 MLP-M as a pure
    // ReLU/identity FC stack. CNN-1-class: CNN-1's fully-connected
    // classifier head (720-70-10). VGG-D-class: a deep FC stack whose 22
    // compiler mats overflow an 8-mat bank, so it deploys as a 4-stage
    // inter-bank pipeline — the paper's §IV-B large-scale case.
    let flat_geometry = (2, 32);
    let deep_widths: &[usize] = &[192, 384, 384, 384, 256, 128, 64, 10];
    let smoke_deep_widths: &[usize] = &[48, 100, 90, 80, 70, 60, 50, 40, 6];
    let configs: Vec<(Config<'_>, Vec<usize>)> = if smoke {
        vec![
            (
                Config {
                    name: "CNN-1-class",
                    widths: &[720, 70, 10],
                    bank_geometry: flat_geometry,
                },
                vec![2],
            ),
            (
                Config {
                    name: "VGG-D-class",
                    widths: smoke_deep_widths,
                    bank_geometry: (1, 2),
                },
                vec![4],
            ),
        ]
    } else {
        vec![
            (
                Config {
                    name: "MLP-M-class",
                    widths: &[784, 1000, 500, 250, 10],
                    bank_geometry: flat_geometry,
                },
                vec![1, 2, 4, 8],
            ),
            (
                Config {
                    name: "CNN-1-class",
                    widths: &[720, 70, 10],
                    bank_geometry: flat_geometry,
                },
                vec![1, 2, 4, 8],
            ),
            // 8-mat banks; one copy spans 4 banks, so 4 banks = one
            // pipelined copy and 8 banks = two.
            (
                Config {
                    name: "VGG-D-class",
                    widths: deep_widths,
                    bank_geometry: (1, 8),
                },
                vec![4, 8],
            ),
        ]
    };
    let (batch_per_bank, reps) = if smoke { (2, 1) } else { (6, 3) };

    // Per-layer breakdown of the real conv/pool CNN-1 on the device
    // runner (the engine rows below use its FC classifier head only).
    // Timed before the multi-threaded engine rows, so their threads
    // cannot perturb it; on a shared 2-vCPU host it still varies between
    // runs.
    let device_runner = measure_device_runner(batch_per_bank, DEVICE_RUNNER_REPS);
    println!(
        "{} on the device runner ({}), batch {}:",
        device_runner.workload, device_runner.topology, device_runner.batch
    );
    println!("{:<28} {:>14} {:>7}", "layer", "ns/inf", "share");
    for layer in &device_runner.layers {
        println!(
            "{:<28} {:>14.0} {:>6.1}%",
            layer.layer,
            layer.ns_per_inference,
            layer.share * 100.0
        );
    }
    println!("{:<28} {:>14.0} {:>6.1}%", "total", device_runner.ns_per_inference, 100.0);
    println!(
        "single-request p50 (in-process reference for prime-benchmark's served p50): {:.0} ns",
        device_runner.single_request_ns_p50
    );
    println!("\nconv phase breakdown (weight-stationary schedule):");
    println!("{:<28} {:>14} {:>7}", "phase", "ns/inf", "share");
    for phase in &device_runner.conv_phases {
        println!(
            "{:<28} {:>14.0} {:>6.1}%",
            phase.phase,
            phase.ns_per_inference,
            phase.share * 100.0
        );
    }

    let mut rows = Vec::new();
    println!(
        "\n{:<12} {:>5} {:>6} {:>6} {:>14} {:>14} {:>8}",
        "workload", "banks", "stages", "batch", "serial ns/inf", "parallel ns/inf", "speedup"
    );
    for (config, bank_counts) in &configs {
        // One fixed batch size per workload (divisible by every bank
        // count) so ns/inference is comparable across rows.
        let batch = batch_per_bank * bank_counts.last().copied().unwrap_or(1);
        // Serial baseline: timed on the first row, reused afterwards.
        let mut serial_s: Option<f64> = None;
        for &banks in bank_counts {
            let (row, serial_used) = measure(config, banks, batch, reps, serial_s);
            serial_s = Some(serial_used);
            println!(
                "{:<12} {:>5} {:>6} {:>6} {:>14.0} {:>14.0} {:>7.2}x",
                row.workload,
                row.banks,
                row.stages,
                row.batch,
                row.serial_ns_per_inference,
                row.parallel_ns_per_inference,
                row.speedup
            );
            rows.push(row);
        }
    }

    // The paper's VGG-D at full weight scale on the device runner.
    println!("\nVGG-D (full) on the device runner:");
    let vgg_full = measure_vgg_full();

    // Searched-vs-fixed mapping comparison (analytical, so cheap enough
    // to run in full even under --smoke).
    let search = measure_search();
    println!("\nmapping search vs fixed default (latency objective, analytical model):");
    println!(
        "{:<14} {:>10} {:>7} {:>16} {:>16} {:>8}",
        "workload", "candidates", "pruned", "fixed ns/img", "searched ns/img", "ratio"
    );
    for row in &search {
        println!(
            "{:<14} {:>10} {:>7} {:>16.0} {:>16.0} {:>8.3}",
            row.workload,
            row.candidates,
            row.pruned,
            row.fixed_interval_ns,
            row.searched_interval_ns,
            row.interval_ratio
        );
        println!("  chosen: {}", row.chosen);
    }

    if let Some(path) = &baseline_path {
        check_baseline(&device_runner, &vgg_full, &search, path);
    }
    if smoke {
        println!("\nsmoke mode: skipping BENCH_throughput.json");
        return;
    }
    let report = Report {
        meta: Meta {
            host_cpu_cores: std::thread::available_parallelism().ok().map(|n| n.get()),
            note: "serial-vs-parallel speedup is bounded by host_cpu_cores; on a 1-core \
                   host the engines are expected to tie"
                .to_string(),
        },
        rows,
        device_runner,
        vgg_full,
        search,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_throughput.json", &json).expect("write BENCH_throughput.json");
    println!("\n[wrote BENCH_throughput.json]");
}
