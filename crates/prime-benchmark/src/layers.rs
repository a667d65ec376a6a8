//! Per-layer measurements for traced runs, each taken from outside the
//! layer by timing calls into its public functions: the runner's
//! `infer_timed_into` / `infer_profiled_into` / `run_stage`, the
//! system's `infer_batch[_noisy]`, the deploy pipeline's `map_network`,
//! `analyze`, `lower_program` + `analyze_program` and `search_mapping`,
//! the wire codec, and a replay of arrival times through
//! `BatchCollector`. No code outside this crate is instrumented.

use std::time::{Duration, Instant};

use prime_analyze::Target;
use prime_compiler::{map_network, HwTarget, Objective, PipelineStage};
use prime_core::{
    search_mapping, BankController, CommandRunner, ConvPhases, InferScratch, PrimeSystem,
};
use prime_device::NoiseModel;
use prime_mem::MatAddr;
use prime_nn::{Layer, Network};
use prime_serve::wire::{decode_request, decode_response, encode_request, encode_response, frame};
use prime_serve::{BatchCollector, BatchConfig, Mode, Request, Response};
use prime_sim::SimCostModel;

use crate::check::{same_bits, Tally};
use crate::report::{fail, BenchError};
use crate::stats::{percentile, sorted};

/// How a [`PrimeSystem`] is built: banks and per-bank geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Banks in the memory.
    pub banks: usize,
    /// FF subarrays per bank.
    pub ff_subarrays: usize,
    /// Mats per FF subarray.
    pub mats_per_subarray: usize,
    /// Buffer subarray words per bank.
    pub buffer_words: usize,
}

/// Modelled Mem-subarray words per bank, as `PrimeSystem::new` sets it.
const MEM_WORDS: usize = 4096;

/// Deploy steps are analytic and take microseconds, so each is repeated
/// up to this many times within [`STEP_BUDGET`] for a steady median.
const MAX_STEP_REPS: usize = 1000;
/// Time each deploy step's repetitions may take.
const STEP_BUDGET: Duration = Duration::from_millis(100);

impl Geometry {
    /// A fresh, undeployed system of this geometry.
    fn system(&self) -> PrimeSystem {
        PrimeSystem::new(
            self.banks,
            self.ff_subarrays,
            self.mats_per_subarray,
            self.buffer_words,
        )
    }

    /// One bank of this geometry, widened to `mats_per_subarray * widen`
    /// mats per subarray.
    fn bank(&self, widen: usize) -> BankController {
        BankController::new(
            self.ff_subarrays,
            self.mats_per_subarray * widen,
            self.buffer_words,
            MEM_WORDS,
        )
    }

    /// The analysis target `PrimeSystem` derives for this geometry (its
    /// own derivation is private, so this mirrors it from the mats'
    /// public accessors; [`probe_deploy`] checks the two agree).
    pub fn target(&self) -> Target {
        let bank = self.bank(1);
        let mat = bank.mat(MatAddr {
            subarray: 0,
            mat: 0,
        });
        let scheme = mat.scheme();
        Target {
            hw: HwTarget {
                mat_rows: mat.max_rows(),
                mat_cols: mat.max_cols(),
                mats_per_ff_subarray: self.mats_per_subarray,
                ff_subarrays_per_bank: self.ff_subarrays,
                banks: self.banks,
            },
            scheme,
            buffer_words: self.buffer_words,
            cell_bits: scheme.weight_half_bits(),
            input_signal_bits: scheme.input_half_bits(),
            phys_mat_cols: 2 * mat.max_cols(),
            tile_ref_bits: 16,
        }
    }
}

/// A network, its calibration input and the memory it deploys onto.
#[derive(Debug, Clone)]
pub struct Model {
    /// The network (weights fixed by the repo's weight seed).
    pub net: Network,
    /// Representative input used to calibrate SA windows and shifts.
    pub calibration: Vec<f32>,
    /// Target memory.
    pub geometry: Geometry,
}

impl Model {
    /// Deploys onto a fresh system the way the serving registry does:
    /// latency-objective mapping search scored by the simulator.
    ///
    /// # Errors
    ///
    /// Any deploy failure.
    pub fn deploy(&self) -> Result<PrimeSystem, BenchError> {
        let mut system = self.geometry.system();
        system.deploy_auto(
            &self.net,
            &self.calibration,
            Objective::Latency,
            &SimCostModel,
        )?;
        Ok(system)
    }
}

/// Times `f` until it has run `min` times and `budget` has passed, or
/// `max` times; returns the sorted per-call milliseconds.
fn timed<F>(min: usize, max: usize, budget: Duration, mut f: F) -> Result<Vec<f64>, BenchError>
where
    F: FnMut(usize) -> Result<(), BenchError>,
{
    let began = Instant::now();
    let mut ms = Vec::new();
    for i in 0..max {
        if i >= min && began.elapsed() >= budget {
            break;
        }
        let t = Instant::now();
        f(i)?;
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(sorted(ms))
}

fn median(sorted_ms: &[f64]) -> Result<f64, BenchError> {
    percentile(sorted_ms, 50.0).ok_or_else(|| fail("no samples"))
}

/// Median of per-sample values gathered column-wise.
fn median_of(values: Vec<f64>) -> Result<f64, BenchError> {
    median(&sorted(values))
}

/// What the deploy pipeline costs and leaves behind.
#[derive(Debug, Clone)]
pub struct DeployProbe {
    /// `map_network` for the chosen candidate.
    pub map_ms: f64,
    /// Pass 1 (`analyze`).
    pub verify1_ms: f64,
    /// Pass 3 (`lower_program` + `analyze_program`).
    pub verify3_ms: f64,
    /// The whole mapping search.
    pub search_ms: f64,
    /// `DeployStats::wall_ms` (compile, verify, program, replicate).
    pub wall_ms: f64,
    /// Resident bank state.
    pub bank_state_mb: f64,
    /// Distinct programmed crossbar pairs.
    pub unique_tiles: f64,
    /// FF mats reserved.
    pub mats_used: f64,
    /// Simulated single-image latency of the chosen mapping.
    pub sim_image_ns: f64,
    /// Simulated steady-state interval of the chosen mapping.
    pub sim_interval_ns: f64,
    /// The chosen mapping's inter-bank stages (empty: one bank).
    pub pipeline: Vec<PipelineStage>,
    /// The benchmark's mirror of the system's analysis target produced a
    /// different search than the deployed system recorded.
    pub target_drift: bool,
}

/// Deploys `model` `reps` times into fresh systems and times each deploy
/// step separately; returns the probe and the last deployed system.
///
/// # Errors
///
/// Any deploy, search or compile failure.
pub fn probe_deploy(model: &Model, reps: usize) -> Result<(DeployProbe, PrimeSystem), BenchError> {
    let mut walls = Vec::new();
    let mut system = None;
    for _ in 0..reps.max(1) {
        drop(system.take());
        let deployed = model.deploy()?;
        walls.push(deployed.deploy_stats().map_or(0.0, |s| s.wall_ms));
        system = Some(deployed);
    }
    let system = system.ok_or_else(|| fail("no deploy ran"))?;
    let stats = system
        .deploy_stats()
        .ok_or_else(|| fail("deployed system has no stats"))?;

    let spec = model.net.to_spec("deployed")?;
    let target = model.geometry.target();
    let mut search = None;
    let search_ms = timed(reps, MAX_STEP_REPS, STEP_BUDGET, |_| {
        search = Some(search_mapping(
            &spec,
            &target,
            Objective::Latency,
            &SimCostModel,
        ));
        Ok(())
    })?;
    let search = search.ok_or_else(|| fail("mapping search did not run"))?;
    let target_drift = stats.search.as_ref() != Some(&search);
    let chosen = search
        .chosen()
        .ok_or_else(|| fail("mapping search chose nothing"))?;
    let cost = chosen
        .cost
        .ok_or_else(|| fail("chosen candidate has no score"))?;

    let mut mapping = None;
    let map_ms = timed(reps, MAX_STEP_REPS, STEP_BUDGET, |_| {
        mapping = Some(map_network(&spec, &target.hw, chosen.options)?);
        Ok(())
    })?;
    let mapping = mapping.ok_or_else(|| fail("map_network did not run"))?;
    let verify1_ms = timed(reps, MAX_STEP_REPS, STEP_BUDGET, |_| {
        std::hint::black_box(prime_analyze::analyze(&spec, &target, &mapping));
        Ok(())
    })?;
    let verify3_ms = timed(reps, MAX_STEP_REPS, STEP_BUDGET, |_| {
        let plan = prime_analyze::lower_program(&spec, &target, &mapping).map_err(fail)?;
        std::hint::black_box(prime_analyze::analyze_program(
            &spec, &target, &mapping, &plan,
        ));
        Ok(())
    })?;

    let probe = DeployProbe {
        map_ms: median(&map_ms)?,
        verify1_ms: median(&verify1_ms)?,
        verify3_ms: median(&verify3_ms)?,
        search_ms: median(&search_ms)?,
        wall_ms: median_of(walls)?,
        bank_state_mb: stats.resident_bytes as f64 / f64::from(1u32 << 20),
        unique_tiles: stats.unique_tiles as f64,
        mats_used: system.stats().reserved_mats as f64,
        sim_image_ns: cost.image_ns,
        sim_interval_ns: cost.interval_ns,
        pipeline: mapping.pipeline,
        target_drift,
    };
    Ok((probe, system))
}

/// Kind tag used in per-layer metric names.
fn kind(layer: &Layer) -> &'static str {
    match layer {
        Layer::Fc(_) => "fc",
        Layer::Conv(_) => "conv",
        Layer::Pool(_) => "pool",
    }
}

/// Device-runner timing of one inference, layer by layer and stage by
/// stage.
#[derive(Debug, Clone, PartialEq)]
pub struct RunnerProbe {
    /// `(name, ms)` per layer, e.g. `runner.l0_conv.ms`.
    pub layers: Vec<(String, f64)>,
    /// Whole inference on one bank.
    pub infer_ms: f64,
    /// FC layers of one inference.
    pub fc_ms: f64,
    /// Conv layers' share of one inference (0 without conv layers).
    pub conv_frac: f64,
    /// Conv phases `[stage, gather, evaluate, emit]`.
    pub conv_phases_ms: [f64; 4],
    /// Evaluate's share of the conv phases (0 without conv layers).
    pub conv_evaluate_frac: f64,
    /// `run_stage` per pipeline stage of the deployed split.
    pub stages_ms: Vec<f64>,
    /// Inter-bank transfers of one inference (0 for one stage).
    pub transfer_ms: f64,
}

/// Compiles `model` onto standalone banks and times single inferences
/// over `inputs`, checking every output against `expected`.
///
/// Layer and conv-phase times come from one bank wide enough for the
/// whole network (bit-identical to the pipelined placement); stage times
/// come from the deployed `pipeline` split across the model's banks.
///
/// # Errors
///
/// Compile or inference failures.
pub fn probe_runner(
    model: &Model,
    pipeline: &[PipelineStage],
    inputs: &[Vec<f32>],
    expected: &[Vec<f32>],
    tally: &mut Tally,
    budget: Duration,
) -> Result<RunnerProbe, BenchError> {
    let Model {
        net,
        calibration,
        geometry,
    } = model;
    let widen = if pipeline.len() > 1 {
        geometry.banks
    } else {
        1
    };
    let mut bank = geometry.bank(widen);
    let runner = CommandRunner::compile(net, &mut bank, calibration)?;
    let kinds: Vec<&str> = net.layers().iter().map(kind).collect();
    if runner.layer_labels().len() != kinds.len() {
        return Err(fail("runner plan and network disagree on the layer count"));
    }
    let mut scratch = InferScratch::new();
    let mut out = Vec::new();
    let mut layer_ns = Vec::new();
    let mut per_layer: Vec<Vec<f64>> = vec![Vec::new(); kinds.len()];
    let (mut totals, mut fc, mut conv) = (Vec::new(), Vec::new(), Vec::new());
    let n = inputs.len().max(1);
    // A fold from +0.0: `Sum` starts float sums at -0.0, which would
    // print a negative zero for a kind the network lacks.
    let sum_kind = |ns: &[f64], k: &str| -> f64 {
        ns.iter()
            .zip(&kinds)
            .filter(|(_, kk)| **kk == k)
            .fold(0.0, |sum, (v, _)| sum + v / 1e6)
    };
    timed(n, 20 * n, budget, |i| {
        let k = i % n;
        runner.infer_timed_into(&mut bank, &inputs[k], &mut scratch, &mut out, &mut layer_ns)?;
        tally.record_outputs([expected[k].as_slice()], std::slice::from_ref(&out));
        for (samples, ns) in per_layer.iter_mut().zip(&layer_ns) {
            samples.push(ns / 1e6);
        }
        totals.push(layer_ns.iter().sum::<f64>() / 1e6);
        fc.push(sum_kind(&layer_ns, "fc"));
        conv.push(sum_kind(&layer_ns, "conv"));
        Ok(())
    })?;
    let infer_ms = median_of(totals)?;
    let layers = per_layer
        .into_iter()
        .zip(&kinds)
        .enumerate()
        .map(|(i, (samples, k))| Ok((format!("runner.l{i}_{k}.ms"), median_of(samples)?)))
        .collect::<Result<Vec<_>, BenchError>>()?;

    let mut conv_phases_ms = [0.0; 4];
    let mut conv_evaluate_frac = 0.0;
    if kinds.contains(&"conv") {
        let mut phases = ConvPhases::default();
        let mut samples: [Vec<f64>; 5] = Default::default();
        timed(n, 20 * n, budget, |i| {
            let k = i % n;
            runner.infer_profiled_into(
                &mut bank,
                &inputs[k],
                &mut scratch,
                &mut out,
                &mut layer_ns,
                &mut phases,
            )?;
            tally.record_outputs([expected[k].as_slice()], std::slice::from_ref(&out));
            let values = [
                phases.stage_ns,
                phases.gather_ns,
                phases.eval_ns,
                phases.emit_ns,
                phases.total_ns(),
            ];
            for (s, v) in samples.iter_mut().zip(values) {
                s.push(v / 1e6);
            }
            Ok(())
        })?;
        let [stage, gather, eval, emit, total] = samples.map(median_of);
        conv_phases_ms = [stage?, gather?, eval?, emit?];
        conv_evaluate_frac = conv_phases_ms[2] / total?;
    }

    let (stages_ms, transfer_ms) = probe_stages(model, pipeline, inputs, expected, tally, budget)?;
    Ok(RunnerProbe {
        layers,
        infer_ms,
        fc_ms: median_of(fc)?,
        conv_frac: median_of(conv)? / infer_ms,
        conv_phases_ms,
        conv_evaluate_frac,
        stages_ms,
        transfer_ms,
    })
}

/// Times `run_stage` per stage and the inter-bank transfers between
/// them, exactly as the serial engine sequences one inference.
fn probe_stages(
    model: &Model,
    pipeline: &[PipelineStage],
    inputs: &[Vec<f32>],
    expected: &[Vec<f32>],
    tally: &mut Tally,
    budget: Duration,
) -> Result<(Vec<f64>, f64), BenchError> {
    let Model {
        net,
        calibration,
        geometry,
    } = model;
    let mut banks: Vec<BankController> = (0..geometry.banks).map(|_| geometry.bank(1)).collect();
    let runner = CommandRunner::compile_pipeline(net, &mut banks, pipeline, calibration)?;
    let stages = runner.stage_count();
    let mut scratches: Vec<InferScratch> =
        (0..geometry.banks).map(|_| InferScratch::new()).collect();
    let mut per_stage: Vec<Vec<f64>> = vec![Vec::new(); stages];
    let mut transfers = Vec::new();
    let mut codes = Vec::new();
    let mut out = Vec::new();
    let n = inputs.len().max(1);
    timed(n, 20 * n, budget, |i| {
        let k = i % n;
        runner.quantize_input(&inputs[k], &mut codes)?;
        let mut transfer = Duration::ZERO;
        for (s, samples) in per_stage.iter_mut().enumerate() {
            let b = runner.stage_bank(s);
            if s > 0 {
                let prev = runner.stage_bank(s - 1);
                let (head, tail) = banks.split_at_mut(b);
                let (from, to) = head.get_mut(prev).zip(tail.first_mut()).ok_or_else(|| {
                    fail(format!(
                        "stage {s} does not sit on a later bank than stage {}",
                        s - 1
                    ))
                })?;
                let t = Instant::now();
                runner.stage_transfer_out(s - 1, from, &mut codes)?;
                runner.stage_transfer_in(s, to, &codes)?;
                transfer += t.elapsed();
            }
            let (bank, scratch) = banks
                .get_mut(b)
                .zip(scratches.get_mut(b))
                .ok_or_else(|| fail(format!("stage {s} sits on missing bank {b}")))?;
            let t = Instant::now();
            runner.run_stage(
                s,
                bank,
                scratch,
                &mut codes,
                (s + 1 == stages).then_some(&mut out),
            )?;
            samples.push(t.elapsed().as_secs_f64() * 1e3);
        }
        transfers.push(transfer.as_secs_f64() * 1e3);
        tally.record_outputs([expected[k].as_slice()], std::slice::from_ref(&out));
        Ok(())
    })?;
    let stages_ms = per_stage
        .into_iter()
        .map(median_of)
        .collect::<Result<_, _>>()?;
    Ok((stages_ms, median_of(transfers)?))
}

/// Whole-system timing through `PrimeSystem`'s public entry points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemProbe {
    /// Single-input `infer_batch`.
    pub infer1_ms_p50: f64,
    /// `infer_batch` at the probed batch size.
    pub batch_ms_p50: f64,
    /// Single-input seeded `infer_batch_noisy`.
    pub noisy1_ms_p50: f64,
    /// Batch-48 throughput on the serial engine.
    pub serial_ips: f64,
    /// Batch-48 throughput on the parallel engine.
    pub parallel_ips: f64,
    /// `2 T(48) - T(96)` on the parallel engine: the intercept of the
    /// linear batch-time model, i.e. pipeline fill and drain.
    pub fill_drain_ms: f64,
}

/// The batch the throughput probes use.
pub const THROUGHPUT_BATCH: usize = 48;

/// Probes `system` with inputs drawn from `pool` (outputs checked against
/// `expected`), leaving it on the parallel engine.
///
/// # Errors
///
/// Inference failures.
pub fn probe_system(
    system: &mut PrimeSystem,
    pool: &[Vec<f32>],
    expected: &[Vec<f32>],
    batch: usize,
    tally: &mut Tally,
    budget: Duration,
) -> Result<SystemProbe, BenchError> {
    let n = pool.len();
    if n == 0 {
        return Err(fail("empty input pool"));
    }
    // Median `infer_batch` time over batches of `size` pool inputs.
    let batch_ms = |system: &mut PrimeSystem, size: usize, tally: &mut Tally| {
        median(&timed(3, 200, budget, |rep| {
            let picks: Vec<usize> = (0..size).map(|i| (rep + i) % n).collect();
            let inputs: Vec<Vec<f32>> = picks.iter().map(|&k| pool[k].clone()).collect();
            let outputs = system.infer_batch(&inputs)?;
            tally.record_outputs(picks.iter().map(|&k| expected[k].as_slice()), &outputs);
            Ok(())
        })?)
    };

    system.set_parallel(true);
    let infer1_ms_p50 = batch_ms(system, 1, tally)?;
    let batch_ms_p50 = batch_ms(system, batch.max(1), tally)?;
    let noise = NoiseModel::default();
    let noisy = timed(3, 200, budget, |rep| {
        let input = [pool[rep % n].clone()];
        std::hint::black_box(system.infer_batch_noisy(&input, &noise, rep as u64)?);
        Ok(())
    })?;
    system.set_parallel(false);
    let serial_ms = batch_ms(system, THROUGHPUT_BATCH, tally);
    system.set_parallel(true);
    let serial_ms = serial_ms?;
    let parallel_ms = batch_ms(system, THROUGHPUT_BATCH, tally)?;
    let double_ms = batch_ms(system, 2 * THROUGHPUT_BATCH, tally)?;
    Ok(SystemProbe {
        infer1_ms_p50,
        batch_ms_p50,
        noisy1_ms_p50: median(&noisy)?,
        serial_ips: THROUGHPUT_BATCH as f64 / serial_ms * 1e3,
        parallel_ips: THROUGHPUT_BATCH as f64 / parallel_ms * 1e3,
        fill_drain_ms: 2.0 * parallel_ms - double_ms,
    })
}

/// Wire-codec cost of one request/response pair of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireProbe {
    /// `encode_request` + `frame` + `encode_response` + `frame`.
    pub encode_us_p50: f64,
    /// `decode_request` + `decode_response`.
    pub decode_us_p50: f64,
    /// Framed request size.
    pub request_bytes: f64,
    /// Framed response size.
    pub response_bytes: f64,
}

/// Times the codec on `model`'s request for `input` and the response
/// carrying `output`.
///
/// # Errors
///
/// Codec failures (or a decode that does not round-trip).
pub fn probe_wire(
    model: &str,
    input: &[f32],
    output: &[f32],
    budget: Duration,
) -> Result<WireProbe, BenchError> {
    let request = Request {
        id: 1,
        model: model.to_string(),
        mode: Mode::Digital,
        input: input.to_vec(),
    };
    let response = Response::Output {
        id: 1,
        values: output.to_vec(),
    };
    let request_frame = frame(&encode_request(&request)?)?;
    let response_frame = frame(&encode_response(&response)?)?;
    let encode = timed(200, 20_000, budget, |_| {
        std::hint::black_box(frame(&encode_request(&request)?)?);
        std::hint::black_box(frame(&encode_response(&response)?)?);
        Ok(())
    })?;
    let decode = timed(200, 20_000, budget, |_| {
        let req = decode_request(&request_frame[4..])?;
        let resp = decode_response(&response_frame[4..])?;
        match resp {
            Response::Output { values, .. }
                if same_bits(&req.input, input) && same_bits(&values, output) =>
            {
                Ok(())
            }
            _ => Err(fail("wire codec did not round-trip")),
        }
    })?;
    Ok(WireProbe {
        encode_us_p50: median(&encode)? * 1e3,
        decode_us_p50: median(&decode)? * 1e3,
        request_bytes: request_frame.len() as f64,
        response_bytes: response_frame.len() as f64,
    })
}

/// What the batch window would do to a run's arrivals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatcherProbe {
    /// Median wait between arrival and flush.
    pub wait_ms_p50: f64,
    /// 90th-percentile wait.
    pub wait_ms_p90: f64,
    /// Jobs per flushed batch.
    pub mean_batch: f64,
}

/// Replays `arrivals` (ascending offsets) through a [`BatchCollector`]
/// with `config` and an injected clock, flushing the moment a size or
/// deadline trigger fires (as an idle dispatcher would). The waits are
/// therefore the batching window's own cost, without service time.
pub fn replay_batcher(arrivals: &[Duration], config: BatchConfig) -> BatcherProbe {
    let mut collector: BatchCollector<Duration> = BatchCollector::new(config);
    let mut waits = Vec::with_capacity(arrivals.len());
    let mut batches = 0usize;
    let mut flush = |jobs: Vec<Duration>, now: Duration, waits: &mut Vec<f64>| {
        batches += 1;
        waits.extend(
            jobs.iter()
                .map(|t| now.saturating_sub(*t).as_secs_f64() * 1e3),
        );
    };
    for &arrival in arrivals {
        while let Some(deadline) = collector.next_deadline().filter(|d| *d <= arrival) {
            match collector.poll(deadline) {
                Some(jobs) => flush(jobs, deadline, &mut waits),
                None => break,
            }
        }
        let _ = collector.offer(arrival, arrival);
        if let Some(jobs) = collector.poll(arrival) {
            flush(jobs, arrival, &mut waits);
        }
    }
    while let Some(deadline) = collector.next_deadline() {
        match collector.poll(deadline) {
            Some(jobs) => flush(jobs, deadline, &mut waits),
            None => break,
        }
    }
    let waits = sorted(waits);
    BatcherProbe {
        wait_ms_p50: percentile(&waits, 50.0).unwrap_or(0.0),
        wait_ms_p90: percentile(&waits, 90.0).unwrap_or(0.0),
        mean_batch: waits.len() as f64 / batches.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn isolated_arrivals_wait_the_whole_window() {
        let config = BatchConfig {
            max_batch: 8,
            max_delay: ms(1),
            queue_bound: 256,
        };
        let probe = replay_batcher(&[ms(0), ms(10), ms(20)], config);
        assert_eq!(
            (probe.wait_ms_p50, probe.wait_ms_p90, probe.mean_batch),
            (1.0, 1.0, 1.0)
        );
    }

    #[test]
    fn clustered_arrivals_share_a_window_or_fill_a_batch() {
        let window = BatchConfig {
            max_batch: 8,
            max_delay: ms(4),
            queue_bound: 256,
        };
        // Both flush at t=4: waits 4 and 2.
        let probe = replay_batcher(&[ms(0), ms(2)], window);
        assert_eq!(
            (probe.wait_ms_p50, probe.wait_ms_p90, probe.mean_batch),
            (2.0, 4.0, 2.0)
        );
        // A full batch flushes on arrival of its last job, not at the deadline.
        let size = BatchConfig {
            max_batch: 2,
            max_delay: ms(100),
            queue_bound: 256,
        };
        let probe = replay_batcher(&[ms(0), ms(1), ms(50)], size);
        assert_eq!(probe.mean_batch, 1.5);
        assert_eq!((probe.wait_ms_p50, probe.wait_ms_p90), (1.0, 100.0));
    }

    #[test]
    fn mirrored_target_matches_the_deployed_search() {
        let geometry = Geometry {
            banks: 1,
            ff_subarrays: 2,
            mats_per_subarray: 32,
            buffer_words: 8192,
        };
        let net = prime_serve::workloads::fc_net(&[72, 20, 10], 1).expect("widths chain");
        let model = Model {
            net,
            calibration: vec![0.5; 72],
            geometry,
        };
        let (probe, system) = probe_deploy(&model, 1).expect("deploys");
        assert!(
            !probe.target_drift,
            "benchmark target differs from PrimeSystem's"
        );
        assert_eq!(system.deployed_stages(), Some(probe.pipeline.len().max(1)));
        assert!(probe.sim_image_ns > 0.0 && probe.mats_used > 0.0);
    }
}
