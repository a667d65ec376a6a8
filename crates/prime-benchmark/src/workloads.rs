//! The four benchmark workloads and what one run of each measures.
//!
//! Two are served over TCP and driven open loop (requests sent on a
//! schedule, so queueing shows); two run in process, closed loop, one
//! caller. Inputs come from the run's seed; model weights stay at the
//! repo's fixed weight seed because they are part of the model, not of
//! the traffic.
//!
//! An untraced run reports the end-to-end metrics. A traced run spends
//! half its time untraced and half traced (their p50 ratio is the tracing
//! overhead), keeps per-request spans, and then probes every layer from
//! outside (see the `layers` module).

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use prime_device::NoiseModel;
use prime_nn::{Activation, Conv2d, FullyConnected, Layer, Network, Pool2d, PoolKind};
use prime_serve::workloads::{fc_net, standard_registry, CNN_1, MLP_M, WEIGHT_SEED};
use prime_serve::{BatchConfig, Client, Mode, Request, ServeStats, Server};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::check::{judge_response, Tally, Verdict};
use crate::layers::{
    probe_deploy, probe_runner, probe_system, probe_wire, replay_batcher, DeployProbe, Geometry,
    Model, THROUGHPUT_BATCH,
};
use crate::load::{drive, LoadRun, OpenLoop};
use crate::report::{fail, BenchError, Metrics, RunResult};
use crate::spans::Span;
use crate::stats::{percentile, percentile_ms, slice_percentiles, sorted};

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// MLP-M over TCP, open loop at 150 req/s, digital only.
    MlpMServed,
    /// CNN-1's FC head over TCP, open loop at 1000 req/s, every 20th
    /// request seeded-noisy.
    Cnn1HeadServed,
    /// The conv CNN-1 in process on one bank, closed loop.
    Cnn1ConvDevice,
    /// A VGG-D-class FC stack in process as a 4-stage pipeline, closed
    /// loop.
    VggDClassPipelined,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::MlpMServed,
        Workload::Cnn1HeadServed,
        Workload::Cnn1ConvDevice,
        Workload::VggDClassPipelined,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MlpMServed => "mlp-m-served",
            Workload::Cnn1HeadServed => "cnn1-head-served",
            Workload::Cnn1ConvDevice => "cnn1-conv-device",
            Workload::VggDClassPipelined => "vgg-d-class-pipelined",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The serving parameters of a served workload.
    pub(crate) fn served(self) -> Option<Served> {
        match self {
            Workload::MlpMServed => Some(Served {
                model: MLP_M,
                widths: &[784, 1000, 500, 250, 10],
                banks: 2,
                rate_per_s: 150.0,
                noisy_every: None,
                p90_limit_ms: 25.0,
            }),
            Workload::Cnn1HeadServed => Some(Served {
                model: CNN_1,
                widths: &[720, 70, 10],
                banks: 1,
                rate_per_s: 1000.0,
                noisy_every: Some(20),
                p90_limit_ms: 10.0,
            }),
            _ => None,
        }
    }
}

/// How a served workload is driven. Model, widths and banks restate
/// `prime_serve::workloads::standard_registry`, whose constants are
/// private; the bit-for-bit output check fails loudly if they drift.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Served {
    /// Registered model name.
    pub model: &'static str,
    /// Layer widths of the FC stack.
    pub widths: &'static [usize],
    /// Banks the registry deploys the model on.
    pub banks: usize,
    /// Offered load.
    pub rate_per_s: f64,
    /// Every n-th request (n-1, 2n-1, ...) is seeded-noisy.
    pub noisy_every: Option<usize>,
    /// `--sweep`'s latency limit on p90 for the knee.
    pub p90_limit_ms: f64,
}

/// Run parameters from the command line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// Seed of the generated inputs and traffic.
    pub seed: u64,
    /// Measured duration.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// What a run produced: the result line, human-readable notes printed
/// before it (workload-specific metrics among them), and traced spans.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The result line.
    pub result: RunResult,
    /// Lines for stdout.
    pub notes: Vec<String>,
    /// Per-request spans of the traced half (empty when untraced).
    pub spans: Vec<Span>,
}

/// Distinct inputs a run draws its traffic from.
const POOL: usize = 64;
/// Distinct (input, noise seed) pairs noisy requests draw from.
const NOISY_POOL: usize = 16;
/// Set-ups timed per round, at least. An untraced run times one round
/// before and one after its measured work; `setup_s` is the lower of the
/// two rounds' medians, so one contended moment does not decide it.
const SETUPS: usize = 5;
/// Further set-ups are timed while they fit this budget, so cheap ones
/// get a steadier median.
const SETUP_BUDGET: Duration = Duration::from_millis(500);
/// Most set-ups timed per run.
const MAX_SETUPS: usize = 50;
/// Deploys per traced run (for `deploy.*`).
const PROBE_DEPLOYS: usize = 3;
/// Time each per-layer probe loop may take (after a minimum of reps).
const PROBE_BUDGET: Duration = Duration::from_millis(400);
/// Grace period for responses after the last scheduled send.
const DRAIN: Duration = Duration::from_secs(5);
/// Requests sent (and discarded) before a served run is measured.
const WARMUP_REQUESTS: usize = 16;
/// Distinct 48-input batches of the in-process throughput phase.
const BATCHES: usize = 8;

/// The calibration input every workload deploys with.
fn calibration(width: usize) -> Vec<f32> {
    vec![0.5; width]
}

/// The paper's CNN-1 (`conv5x5-pool-720-70-10`) with runner-supported
/// activations: conv and hidden FC ReLU, output identity.
fn cnn1_net() -> Result<Network, BenchError> {
    let mut net = Network::new(vec![
        Layer::Conv(Conv2d::new(1, 5, 5, 28, 28, 0, Activation::Relu)),
        Layer::Pool(Pool2d::new(PoolKind::Max, 5, 24, 24, 2)),
        Layer::Fc(FullyConnected::new(720, 70, Activation::Relu)),
        Layer::Fc(FullyConnected::new(70, 10, Activation::Identity)),
    ])?;
    net.init_random(&mut SmallRng::seed_from_u64(WEIGHT_SEED));
    Ok(net)
}

/// The VGG-D-class stack: too deep for one 8-mat bank, so it deploys as
/// an inter-bank pipeline.
const VGG_CLASS_WIDTHS: &[usize] = &[192, 384, 384, 384, 256, 128, 64, 10];

fn input_pool(rng: &mut SmallRng, width: usize) -> Vec<Vec<f32>> {
    (0..POOL)
        .map(|_| (0..width).map(|_| rng.gen::<f32>()).collect())
        .collect()
}

/// Runs `setup` into fresh objects at least `min` times and then while
/// `budget` lasts (at most [`MAX_SETUPS`]), keeping the last result;
/// returns the median wall time in seconds.
fn timed_setups<T>(
    min: usize,
    budget: Duration,
    mut setup: impl FnMut() -> Result<T, BenchError>,
) -> Result<(f64, T), BenchError> {
    let began = Instant::now();
    let mut kept = None;
    let mut seconds = Vec::new();
    for i in 0..MAX_SETUPS.max(min) {
        if i >= min.max(1) && began.elapsed() >= budget {
            break;
        }
        drop(kept.take());
        let t = Instant::now();
        kept = Some(setup()?);
        seconds.push(t.elapsed().as_secs_f64());
    }
    let kept = kept.ok_or_else(|| fail("no set-up ran"))?;
    Ok((percentile(&sorted(seconds), 50.0).unwrap_or(0.0), kept))
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> Result<f64, BenchError> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| fail("VmHWM missing from /proc/self/status"))?;
    Ok(kb / 1024.0)
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `workload` once.
///
/// # Errors
///
/// Set-up, transport or measurement failures. Wrong outputs are not
/// errors: they make the result's `correct` false.
pub fn run(workload: Workload, options: &Options) -> Result<Outcome, BenchError> {
    if !(options.seconds > 0.0 && options.seconds.is_finite()) {
        return Err(fail(format!(
            "--seconds {} is not a positive duration",
            options.seconds
        )));
    }
    let mut outcome = match workload.served() {
        Some(served) => run_served(&served, options),
        None => run_device(workload, options),
    }?;
    outcome.notes.insert(
        0,
        format!(
            "workload {} seed {} seconds {} trace {} host_cpu_cores {}",
            workload.name(),
            options.seed,
            options.seconds,
            u8::from(options.trace),
            host_cores()
        ),
    );
    Ok(outcome)
}

/// Which reference a served request's output is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Traffic {
    /// Digital request for pool input `k`.
    Digital(usize),
    /// Noisy request for noisy-pool entry `j`.
    Noisy(usize),
}

/// Outputs of one open-loop pass, judged.
struct ServedPass {
    run: LoadRun,
    tally: Tally,
    noisy_sent: usize,
    /// `(scheduled send, latency ms)` of every correct answer.
    all: Vec<Sample>,
    digital: Vec<Sample>,
    noisy: Vec<Sample>,
}

/// A served workload's inputs and their reference outputs, shared by
/// every pass of a run.
struct ServedTraffic {
    served: Served,
    pool: Vec<Vec<f32>>,
    /// `(pool input, noise seed)` pairs of the noisy requests.
    noisy: Vec<(usize, u64)>,
    expected: Vec<Vec<f32>>,
    expected_noisy: Vec<Vec<f32>>,
}

impl ServedTraffic {
    /// The model the registry deploys for `served`, restated.
    fn model(served: &Served) -> Result<Model, BenchError> {
        Ok(Model {
            net: fc_net(served.widths, WEIGHT_SEED)?,
            calibration: calibration(served.widths.first().copied().unwrap_or(0)),
            // The serving registry's flat geometry.
            geometry: Geometry {
                banks: served.banks,
                ff_subarrays: 2,
                mats_per_subarray: 32,
                buffer_words: 8192,
            },
        })
    }

    /// Draws the inputs from `rng` and computes their references on
    /// `reference`, an in-process deploy of the served model.
    fn new(
        served: Served,
        model: &Model,
        rng: &mut SmallRng,
        reference: &mut prime_core::PrimeSystem,
    ) -> Result<ServedTraffic, BenchError> {
        let pool = input_pool(rng, model.net.inputs());
        let noisy: Vec<(usize, u64)> = (0..NOISY_POOL)
            .map(|_| (rng.gen_range(0..POOL), rng.gen::<u64>()))
            .collect();
        let expected = reference.infer_batch(&pool)?;
        let expected_noisy = noisy
            .iter()
            .map(|&(k, seed)| {
                let input = [pool[k].clone()];
                let mut out = reference.infer_batch_noisy(&input, &NoiseModel::default(), seed)?;
                out.pop()
                    .ok_or_else(|| fail("noisy reference returned no output"))
            })
            .collect::<Result<Vec<_>, BenchError>>()?;
        Ok(ServedTraffic {
            served,
            pool,
            noisy,
            expected,
            expected_noisy,
        })
    }

    /// `count` requests drawn from `rng`; every `noisy_every`-th is noisy.
    fn traffic(&self, rng: &mut SmallRng, count: usize) -> Vec<Traffic> {
        (0..count)
            .map(|i| match self.served.noisy_every {
                Some(n) if n > 0 && i % n == n - 1 => Traffic::Noisy(rng.gen_range(0..NOISY_POOL)),
                _ => Traffic::Digital(rng.gen_range(0..POOL)),
            })
            .collect()
    }

    fn request(&self, t: Traffic) -> Request {
        let (input, mode) = match t {
            Traffic::Digital(k) => (k, Mode::Digital),
            Traffic::Noisy(j) => {
                let (k, seed) = self.noisy[j];
                (k, Mode::Noisy { seed })
            }
        };
        Request {
            id: 0,
            model: self.served.model.to_string(),
            mode,
            input: self.pool[input].clone(),
        }
    }

    fn expected(&self, t: Traffic) -> &[f32] {
        match t {
            Traffic::Digital(k) => &self.expected[k],
            Traffic::Noisy(j) => &self.expected_noisy[j],
        }
    }

    fn pass(
        &self,
        addr: SocketAddr,
        rate_per_s: f64,
        traffic: &[Traffic],
        trace: bool,
    ) -> Result<ServedPass, BenchError> {
        let plan = OpenLoop {
            rate_per_s,
            count: traffic.len(),
            drain: DRAIN,
            trace,
        };
        let run = drive(addr, &plan, |i| self.request(traffic[i]))?;
        let mut pass = ServedPass {
            run,
            tally: Tally::default(),
            noisy_sent: traffic
                .iter()
                .filter(|t| matches!(t, Traffic::Noisy(_)))
                .count(),
            all: vec![],
            digital: vec![],
            noisy: vec![],
        };
        for (record, &t) in pass.run.records.iter().zip(traffic) {
            let verdict = judge_response(
                record.received.as_ref().map(|r| &r.response),
                self.expected(t),
            );
            pass.tally.record(verdict);
            if let (Verdict::Ok, Some(latency)) = (verdict, record.latency()) {
                let sample = (record.scheduled, latency.as_secs_f64() * 1e3);
                pass.all.push(sample);
                match t {
                    Traffic::Digital(_) => pass.digital.push(sample),
                    Traffic::Noisy(_) => pass.noisy.push(sample),
                }
            }
        }
        Ok(pass)
    }

    /// Sends a few requests on a blocking connection so scratch buffers
    /// and sockets are warm before anything is timed.
    fn warm_up(&self, addr: SocketAddr) -> Result<(), BenchError> {
        let mut client = Client::connect_timeout(&addr, Duration::from_secs(5))?;
        for k in 0..WARMUP_REQUESTS {
            let t = match self.served.noisy_every {
                Some(_) if k == 0 => Traffic::Noisy(0),
                _ => Traffic::Digital(k % self.pool.len()),
            };
            let request = self.request(t);
            let response = match request.mode {
                Mode::Digital => client.infer(&request.model, request.input)?,
                Mode::Noisy { seed } => client.infer_noisy(&request.model, request.input, seed)?,
            };
            if judge_response(Some(&response), self.expected(t)) != Verdict::Ok {
                return Err(fail(format!(
                    "warm-up request {k} was not answered correctly"
                )));
            }
        }
        Ok(())
    }
}

/// A statistic that needs at least one successful sample.
fn measured(p: Option<f64>) -> Result<f64, BenchError> {
    p.ok_or_else(|| fail("no successful samples to take a statistic of"))
}

/// A timed sample: when it started within its pass, and its value.
type Sample = (Duration, f64);

/// Time slices a pass's timings are cut into (see [`slice_percentiles`]).
const SLICES: usize = 20;

/// Percentile `q` of the pass's best (lowest-latency) time slice.
fn best_latency(samples: &[Sample], q: f64) -> Result<f64, BenchError> {
    measured(
        slice_percentiles(samples, q, SLICES)
            .into_iter()
            .reduce(f64::min),
    )
}

/// The set-up `setup_s` times for a served workload: the standard
/// registry (mapping search and deploy of both models) and the bind.
fn bind_registry() -> Result<Server, BenchError> {
    let registry = standard_registry(BatchConfig::default_online(), NoiseModel::default())?;
    Ok(Server::bind("127.0.0.1:0", registry)?)
}

/// Runs `server` on a scoped thread while `body` drives it, then shuts
/// it down, joins it and returns its counters with `body`'s result.
fn serving<T>(
    server: Server,
    body: impl FnOnce(SocketAddr) -> Result<T, BenchError>,
) -> Result<(T, ServeStats), BenchError> {
    let addr = server.local_addr()?;
    let stop = server.shutdown_handle()?;
    let (result, stats) = std::thread::scope(|scope| {
        let serving = scope.spawn(move || server.run());
        let result = body(addr);
        stop.shutdown();
        let stats = serving
            .join()
            .map_err(|_| fail("server thread panicked"))
            .and_then(|r| r.map_err(BenchError::from));
        (result, stats)
    });
    Ok((result?, stats?))
}

fn run_served(served: &Served, options: &Options) -> Result<Outcome, BenchError> {
    let mut rng = SmallRng::seed_from_u64(options.seed);
    let model = ServedTraffic::model(served)?;
    let (setups, budget) = if options.trace {
        (1, Duration::ZERO)
    } else {
        (SETUPS, SETUP_BUDGET)
    };
    let (setup_s, server) = timed_setups(setups, budget, bind_registry)?;

    // The reference: the same model deployed the same way, in process.
    let (deploy, mut reference) = if options.trace {
        let (probe, system) = probe_deploy(&model, PROBE_DEPLOYS)?;
        (Some(probe), system)
    } else {
        (None, model.deploy()?)
    };
    let shared = ServedTraffic::new(*served, &model, &mut rng, &mut reference)?;
    let count = ((served.rate_per_s * options.seconds).round() as usize).max(2);
    let traffic = shared.traffic(&mut rng, count);

    let rate = served.rate_per_s;
    let (passes, stats) = serving(server, |addr| {
        shared.warm_up(addr)?;
        if options.trace {
            let (untraced, traced) = traffic.split_at(count / 2);
            Ok(vec![
                shared.pass(addr, rate, untraced, false)?,
                shared.pass(addr, rate, traced, true)?,
            ])
        } else {
            Ok(vec![shared.pass(addr, rate, &traffic, false)?])
        }
    })?;

    let mut tally = Tally::default();
    for pass in &passes {
        tally.merge(pass.tally);
    }
    let mut notes = Vec::new();
    let strays: u64 = passes.iter().map(|p| p.run.strays).sum();
    if strays > 0 {
        notes.push(format!(
            "warning: {strays} responses matched no outstanding request"
        ));
    }
    let mut metrics = Metrics::default();
    let mut spans = Vec::new();
    match (&passes[..], deploy) {
        ([pass], None) => {
            metrics.set("p50_ms", best_latency(&pass.all, 50.0)?)?;
            metrics.set("p90_ms", best_latency(&pass.all, 90.0)?)?;
            let last = pass
                .run
                .records
                .iter()
                .filter_map(|r| r.received.as_ref())
                .map(|r| r.at);
            let window = last.max().unwrap_or(Duration::ZERO).as_secs_f64();
            metrics.set("throughput_ips", pass.tally.ok as f64 / window.max(1e-9))?;
            metrics.set("peak_rss_mb", peak_rss_mb()?)?;
            drop(reference);
            let (again, _) = timed_setups(SETUPS, SETUP_BUDGET, bind_registry)?;
            metrics.set("setup_s", setup_s.min(again))?;
            metrics = metrics.select(END_TO_END)?;
        }
        ([untraced, traced], Some(deploy)) => {
            spans = served_spans(&traced.run);
            let layers = ServedLayers {
                model: &model,
                deploy: &deploy,
                stats: &stats,
            };
            layers.measure(
                &mut reference,
                &shared,
                [untraced, traced],
                &mut tally,
                &mut metrics,
                &mut notes,
            )?;
            metrics = metrics.select(PER_LAYER)?;
        }
        _ => return Err(fail("unexpected pass layout")),
    }
    Ok(Outcome {
        result: RunResult {
            correct: tally.correct(),
            attempted: passes.iter().map(|p| p.tally.attempted()).sum(),
            failed: passes.iter().map(|p| p.tally.failed()).sum(),
            metrics,
        },
        notes,
        spans,
    })
}

/// Offered rates of a `--sweep`, as multiples of the workload's rate.
const SWEEP_FACTORS: [f64; 7] = [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0];

/// Latency against offered rate for a served workload, ending at its
/// knee: the highest swept rate with no failed request and p90 within
/// the workload's limit. A diagnostic: the benchmark gates none of it.
///
/// # Errors
///
/// An in-process workload, set-up or transport failures, or any output
/// that differs from its reference.
pub fn sweep(workload: Workload, options: &Options) -> Result<Vec<String>, BenchError> {
    let served = workload.served().ok_or_else(|| {
        fail(format!(
            "--sweep needs a served workload, not {}",
            workload.name()
        ))
    })?;
    let mut rng = SmallRng::seed_from_u64(options.seed);
    let model = ServedTraffic::model(&served)?;
    let mut reference = model.deploy()?;
    let shared = ServedTraffic::new(served, &model, &mut rng, &mut reference)?;
    let per_rate = (options.seconds / SWEEP_FACTORS.len() as f64).max(1.0);
    let (lines, _) = serving(bind_registry()?, |addr| {
        shared.warm_up(addr)?;
        let mut lines = vec![format!(
            "{:>8} {:>6} {:>6} {:>9} {:>9} {:>9}",
            "rate/s", "sent", "failed", "p50_ms", "p90_ms", "p99_ms"
        )];
        let mut knee = None;
        for factor in SWEEP_FACTORS {
            let rate = factor * served.rate_per_s;
            let traffic = shared.traffic(&mut rng, ((rate * per_rate).round() as usize).max(1));
            let pass = shared.pass(addr, rate, &traffic, false)?;
            if !pass.tally.correct() {
                return Err(fail(format!(
                    "outputs differed from the reference at {rate:.0} req/s"
                )));
            }
            let latencies = sorted(pass.all.iter().map(|s| s.1).collect());
            let p = |q| percentile(&latencies, q).unwrap_or(f64::INFINITY);
            let (p50, p90, p99) = (p(50.0), p(90.0), p(99.0));
            let failed = pass.tally.failed();
            lines.push(format!(
                "{rate:>8.0} {:>6} {failed:>6} {p50:>9.3} {p90:>9.3} {p99:>9.3}",
                traffic.len()
            ));
            if failed > 0 || p90 > served.p90_limit_ms {
                break;
            }
            knee = Some(rate);
        }
        lines.push(match knee {
            Some(rate) => format!(
                "knee {rate:.0} req/s (no failures, p90 within {} ms)",
                served.p90_limit_ms
            ),
            None => format!("knee below {:.0} req/s", served.rate_per_s),
        });
        Ok(lines)
    })?;
    Ok(lines)
}

/// Spans of one traced open-loop pass: `request` (scheduled send to
/// response) enclosing `encode`, `write` and `decode`.
fn served_spans(run: &LoadRun) -> Vec<Span> {
    let mut spans = Vec::with_capacity(run.records.len() * 4);
    for (i, r) in run.records.iter().enumerate() {
        let id = i as u64 + 1;
        let encoded = r.sent + r.encode;
        let end = r
            .received
            .as_ref()
            .map_or(encoded + r.write, |x| x.at + x.decode);
        spans.push(Span {
            id,
            name: "request",
            start: r.scheduled,
            end,
            parent: None,
        });
        spans.push(Span {
            id,
            name: "encode",
            start: r.sent,
            end: encoded,
            parent: Some("request"),
        });
        spans.push(Span {
            id,
            name: "write",
            start: encoded,
            end: encoded + r.write,
            parent: Some("request"),
        });
        if let Some(x) = &r.received {
            spans.push(Span {
                id,
                name: "decode",
                start: x.at,
                end: x.at + x.decode,
                parent: Some("request"),
            });
        }
    }
    spans
}

/// Per-layer measurement of a served workload.
struct ServedLayers<'a> {
    model: &'a Model,
    deploy: &'a DeployProbe,
    stats: &'a ServeStats,
}

impl ServedLayers<'_> {
    fn measure(
        &self,
        reference: &mut prime_core::PrimeSystem,
        shared: &ServedTraffic,
        [untraced, traced]: [&ServedPass; 2],
        tally: &mut Tally,
        metrics: &mut Metrics,
        notes: &mut Vec<String>,
    ) -> Result<(), BenchError> {
        let name = shared.served.model;
        let model_stats = self
            .stats
            .models
            .iter()
            .find(|m| m.model == name)
            .ok_or_else(|| fail(format!("server reported no stats for {name}")))?;
        let mean_batch = model_stats.served as f64 / model_stats.batches.max(1) as f64;
        metrics.set("server.batches", model_stats.batches as f64)?;
        metrics.set("server.mean_batch", mean_batch)?;
        metrics.set("server.shed", model_stats.shed as f64)?;
        metrics.set("server.failed", model_stats.failed as f64)?;

        let system = probe_system(
            reference,
            &shared.pool,
            &shared.expected,
            mean_batch.round().max(1.0) as usize,
            tally,
            PROBE_BUDGET,
        )?;
        let wire = probe_wire(name, &shared.pool[0], &shared.expected[0], PROBE_BUDGET)?;
        let mut arrivals: Vec<Duration> = traced.run.records.iter().map(|r| r.sent).collect();
        arrivals.sort_unstable();
        let batcher = replay_batcher(&arrivals, BatchConfig::default_online());
        let send_us = percentile(
            &sorted(
                traced
                    .run
                    .records
                    .iter()
                    .map(|r| r.write.as_secs_f64() * 1e6)
                    .collect(),
            ),
            50.0,
        )
        .unwrap_or(0.0);

        let p50 = best_latency(&traced.all, 50.0)?;
        set_common(
            metrics,
            Common {
                system,
                wire,
                batcher,
                deploy: self.deploy,
                serve_digital_p50_ms: best_latency(&traced.digital, 50.0)?,
                serve_p99_ms: best_latency(&traced.all, 99.0)?,
                // p50 minus device time (at the observed batch), window
                // wait, codec and socket write: what nothing above explains.
                serve_unattributed_ms_p50: p50
                    - system.batch_ms_p50
                    - batcher.wait_ms_p50
                    - (wire.encode_us_p50 + wire.decode_us_p50 + send_us) / 1e3,
                sent: (untraced.run.records.len() + traced.run.records.len()) as f64,
                noisy_sent: (untraced.noisy_sent + traced.noisy_sent) as f64,
                lags: traced.run.records.iter().map(|r| r.lag()).collect(),
                overhead_frac: p50 / best_latency(&untraced.all, 50.0)? - 1.0,
            },
        )?;
        let runner = probe_runner(
            self.model,
            &self.deploy.pipeline,
            &shared.pool,
            &shared.expected,
            tally,
            PROBE_BUDGET,
        )?;
        set_runner(metrics, notes, &runner)?;
        if !traced.noisy.is_empty() {
            notes.push(extra(
                "serve.noisy_p50_ms",
                best_latency(&traced.noisy, 50.0)?,
                "ms",
            ));
            notes.push(extra(
                "serve.noisy_p99_ms",
                best_latency(&traced.noisy, 99.0)?,
                "ms",
            ));
        }
        notes.push(extra("client.send_us_p50", send_us, "us"));
        if self.deploy.target_drift {
            notes.push(
                "warning: the mirrored analysis target searched differently from PrimeSystem"
                    .into(),
            );
        }
        Ok(())
    }
}

fn extra(name: &str, value: f64, unit: &str) -> String {
    format!("extra {name} {value} {unit}")
}

/// Per-layer values every workload reports the same way.
struct Common<'a> {
    system: crate::layers::SystemProbe,
    wire: crate::layers::WireProbe,
    batcher: crate::layers::BatcherProbe,
    deploy: &'a DeployProbe,
    serve_digital_p50_ms: f64,
    serve_p99_ms: f64,
    serve_unattributed_ms_p50: f64,
    sent: f64,
    noisy_sent: f64,
    lags: Vec<Duration>,
    overhead_frac: f64,
}

fn set_common(metrics: &mut Metrics, c: Common<'_>) -> Result<(), BenchError> {
    let Common {
        system,
        wire,
        batcher,
        deploy,
        ..
    } = &c;
    for (name, value) in [
        ("system.infer1_ms_p50", system.infer1_ms_p50),
        ("system.batch_ms_p50", system.batch_ms_p50),
        ("system.noisy1_ms_p50", system.noisy1_ms_p50),
        ("system.serial_ips", system.serial_ips),
        ("system.parallel_ips", system.parallel_ips),
        ("system.fill_drain_ms", system.fill_drain_ms),
        ("batcher.window_wait_ms_p50", batcher.wait_ms_p50),
        ("batcher.window_wait_ms_p90", batcher.wait_ms_p90),
        ("batcher.replay_mean_batch", batcher.mean_batch),
        ("serve.digital_p50_ms", c.serve_digital_p50_ms),
        ("serve.p99_ms", c.serve_p99_ms),
        ("serve.unattributed_ms_p50", c.serve_unattributed_ms_p50),
        ("wire.encode_us_p50", wire.encode_us_p50),
        ("wire.decode_us_p50", wire.decode_us_p50),
        ("wire.request_bytes", wire.request_bytes),
        ("wire.response_bytes", wire.response_bytes),
        ("deploy.map_ms", deploy.map_ms),
        ("deploy.verify1_ms", deploy.verify1_ms),
        ("deploy.verify3_ms", deploy.verify3_ms),
        ("deploy.search_ms", deploy.search_ms),
        ("deploy.wall_ms", deploy.wall_ms),
        ("deploy.bank_state_mb", deploy.bank_state_mb),
        ("deploy.unique_tiles", deploy.unique_tiles),
        ("deploy.mats_used", deploy.mats_used),
        ("sim.image_ns", deploy.sim_image_ns),
        ("sim.interval_ns", deploy.sim_interval_ns),
        ("load.sent", c.sent),
        ("load.noisy_sent", c.noisy_sent),
        ("load.lag_ms_p50", measured(percentile_ms(&c.lags, 50.0))?),
        ("load.lag_ms_p99", measured(percentile_ms(&c.lags, 99.0))?),
        ("trace.overhead_frac", c.overhead_frac),
    ] {
        metrics.set(name, value)?;
    }
    Ok(())
}

fn set_runner(
    metrics: &mut Metrics,
    notes: &mut Vec<String>,
    runner: &crate::layers::RunnerProbe,
) -> Result<(), BenchError> {
    metrics.set("runner.infer_ms", runner.infer_ms)?;
    metrics.set("runner.fc_ms", runner.fc_ms)?;
    metrics.set(
        "runner.stage_max_ms",
        runner.stages_ms.iter().copied().fold(0.0, f64::max),
    )?;
    metrics.set("runner.conv_frac", runner.conv_frac)?;
    metrics.set("runner.conv_evaluate_frac", runner.conv_evaluate_frac)?;
    for (name, value) in &runner.layers {
        notes.push(extra(name, *value, "ms"));
    }
    if runner.conv_frac > 0.0 {
        for (phase, value) in ["stage", "gather", "evaluate", "emit"]
            .iter()
            .zip(runner.conv_phases_ms)
        {
            notes.push(extra(&format!("runner.conv.{phase}_ms"), value, "ms"));
        }
    }
    for (k, value) in runner.stages_ms.iter().enumerate() {
        notes.push(extra(&format!("runner.s{k}.ms"), *value, "ms"));
    }
    notes.push(extra("runner.transfer_ms", runner.transfer_ms, "ms"));
    Ok(())
}

/// An in-process workload: geometry, network, the deployed shape the
/// benchmark expects (a different shape would measure something else),
/// and how long one call of each kind nominally takes.
struct Device {
    geometry: Geometry,
    net: fn() -> Result<Network, BenchError>,
    stages: usize,
    copies: usize,
    /// Nominal single-input call, seconds (2-vCPU 2.1 GHz Xeon host).
    single_s: f64,
    /// Nominal batch-48 call, seconds, on the same host.
    batch_s: f64,
}

fn device(workload: Workload) -> Result<Device, BenchError> {
    match workload {
        Workload::Cnn1ConvDevice => Ok(Device {
            geometry: Geometry {
                banks: 1,
                ff_subarrays: 2,
                mats_per_subarray: 8,
                buffer_words: 8192,
            },
            net: cnn1_net,
            stages: 1,
            copies: 1,
            single_s: 0.6e-3,
            batch_s: 28e-3,
        }),
        Workload::VggDClassPipelined => Ok(Device {
            geometry: Geometry {
                banks: 4,
                ff_subarrays: 1,
                mats_per_subarray: 8,
                buffer_words: 8192,
            },
            net: || Ok(fc_net(VGG_CLASS_WIDTHS, WEIGHT_SEED)?),
            stages: 4,
            copies: 1,
            single_s: 0.55e-3,
            batch_s: 20e-3,
        }),
        other => Err(fail(format!(
            "{} is not an in-process workload",
            other.name()
        ))),
    }
}

impl Device {
    /// Calls of each kind for a pass of nominally `seconds`: a third of
    /// the time single-input, the rest batch-48. The counts are fixed so
    /// every run does the same work whatever the host's speed; the
    /// engine logs every command it executes, so memory grows with work.
    fn calls(&self, seconds: f64) -> (usize, usize) {
        let count =
            |share: f64, per_call: f64| ((seconds * share / per_call).round() as usize).max(1);
        (
            count(1.0 / 3.0, self.single_s),
            count(2.0 / 3.0, self.batch_s),
        )
    }
}

/// One closed-loop pass: all single-input calls first, then the batch-48
/// calls. Single-input latency is measured before any batch because the
/// parallel engine's stage threads slow the serial calls that follow
/// them for a while.
#[derive(Default)]
struct DevicePass {
    /// `(call start, latency ms)` of each single-input call; the starts
    /// double as the batcher replay's arrivals.
    single: Vec<Sample>,
    /// Gap between one call's completion and the next call's start.
    lags: Vec<Duration>,
    /// Inferences per second of each batch call.
    batch_ips: Vec<f64>,
    /// Inputs run across all calls.
    inputs: u64,
    /// Calls that returned an error.
    call_errors: u64,
    tally: Tally,
    spans: Vec<Span>,
}

struct DeviceTraffic<'a> {
    singles: &'a [Vec<Vec<f32>>],
    expected: &'a [Vec<f32>],
    batches: &'a [(Vec<usize>, Vec<Vec<f32>>)],
}

impl DeviceTraffic<'_> {
    fn pass(
        &self,
        system: &mut prime_core::PrimeSystem,
        rng: &mut SmallRng,
        (single_calls, batch_calls): (usize, usize),
        trace: bool,
    ) -> DevicePass {
        let mut pass = DevicePass::default();
        let start = Instant::now();
        let mut previous_end = Duration::ZERO;
        for id in 1..=(single_calls + batch_calls) as u64 {
            let single = id as usize <= single_calls;
            let (indices, inputs): (Vec<usize>, &[Vec<f32>]) = if single {
                let k = rng.gen_range(0..self.singles.len());
                (vec![k], &self.singles[k])
            } else {
                let (indices, inputs) = &self.batches[rng.gen_range(0..self.batches.len())];
                (indices.clone(), inputs)
            };
            let called = start.elapsed();
            let result = system.infer_batch(inputs);
            let returned = start.elapsed();
            match &result {
                Ok(outputs) => pass.tally.record_outputs(
                    indices.iter().map(|&k| self.expected[k].as_slice()),
                    outputs,
                ),
                Err(_) => {
                    pass.call_errors += 1;
                    for _ in &indices {
                        pass.tally.record(Verdict::Error);
                    }
                }
            }
            let checked = start.elapsed();
            pass.inputs += indices.len() as u64;
            if single {
                pass.single
                    .push((called, (returned - called).as_secs_f64() * 1e3));
            } else {
                pass.batch_ips
                    .push(indices.len() as f64 / (returned - called).as_secs_f64().max(1e-12));
            }
            if id > 1 {
                pass.lags.push(called.saturating_sub(previous_end));
            }
            previous_end = checked;
            if trace {
                pass.spans.push(Span {
                    id,
                    name: "call",
                    start: called,
                    end: checked,
                    parent: None,
                });
                pass.spans.push(Span {
                    id,
                    name: "infer_batch",
                    start: called,
                    end: returned,
                    parent: Some("call"),
                });
                pass.spans.push(Span {
                    id,
                    name: "check",
                    start: returned,
                    end: checked,
                    parent: Some("call"),
                });
            }
        }
        pass
    }
}

fn run_device(workload: Workload, options: &Options) -> Result<Outcome, BenchError> {
    let device = device(workload)?;
    let mut rng = SmallRng::seed_from_u64(options.seed);
    let net = (device.net)()?;
    let model = Model {
        calibration: calibration(net.inputs()),
        net,
        geometry: device.geometry,
    };
    let pool = input_pool(&mut rng, model.net.inputs());

    let (setup_s, deploy, mut system) = if options.trace {
        let (probe, system) = probe_deploy(&model, PROBE_DEPLOYS)?;
        (0.0, Some(probe), system)
    } else {
        let (setup_s, system) = timed_setups(SETUPS, SETUP_BUDGET, || model.deploy())?;
        (setup_s, None, system)
    };
    let shape = (system.deployed_stages(), system.copies());
    if shape != (Some(device.stages), device.copies) {
        return Err(fail(format!(
            "{} deployed as {shape:?} (stages, copies), expected ({}, {})",
            workload.name(),
            device.stages,
            device.copies
        )));
    }
    // Reference outputs from the serial engine; every measured call runs
    // on the default (parallel) engine and must match them bit for bit.
    system.set_parallel(false);
    let expected = system.infer_batch(&pool);
    system.set_parallel(true);
    let expected = expected?;
    let singles: Vec<Vec<Vec<f32>>> = pool.iter().map(|x| vec![x.clone()]).collect();
    let batches: Vec<(Vec<usize>, Vec<Vec<f32>>)> = (0..BATCHES)
        .map(|_| {
            let indices: Vec<usize> = (0..THROUGHPUT_BATCH)
                .map(|_| rng.gen_range(0..POOL))
                .collect();
            let inputs = indices.iter().map(|&k| pool[k].clone()).collect();
            (indices, inputs)
        })
        .collect();
    let traffic = DeviceTraffic {
        singles: &singles,
        expected: &expected,
        batches: &batches,
    };
    // The reference batch above already grew every per-bank scratch
    // buffer (both engines share them); a few single calls settle the rest.
    let mut warm = Tally::default();
    for (k, single) in singles.iter().enumerate().take(8) {
        warm.record_outputs([expected[k].as_slice()], &system.infer_batch(single)?);
    }

    let mut notes = Vec::new();
    let mut spans = Vec::new();
    let mut metrics = Metrics::default();
    let mut tally = warm;
    let (attempted, failed);
    match deploy {
        None => {
            let pass = traffic.pass(&mut system, &mut rng, device.calls(options.seconds), false);
            tally.merge(pass.tally);
            (attempted, failed) = (pass.tally.attempted(), pass.tally.failed());
            metrics.set("p50_ms", best_latency(&pass.single, 50.0)?)?;
            metrics.set("p90_ms", best_latency(&pass.single, 90.0)?)?;
            // The rate the fastest tenth of batch calls reach: the parallel
            // engine's stage threads share two vCPUs, so a median over calls
            // mostly measures the scheduler, and a single fastest call is a
            // lottery.
            let rate = percentile(&sorted(pass.batch_ips), 90.0);
            metrics.set("throughput_ips", measured(rate)?)?;
            metrics.set("peak_rss_mb", peak_rss_mb()?)?;
            drop(system);
            let (again, _) = timed_setups(SETUPS, SETUP_BUDGET, || model.deploy())?;
            metrics.set("setup_s", setup_s.min(again))?;
            metrics = metrics.select(END_TO_END)?;
        }
        Some(deploy) => {
            let half = device.calls(options.seconds / 2.0);
            let untraced = traffic.pass(&mut system, &mut rng, half, false);
            let mut traced = traffic.pass(&mut system, &mut rng, half, true);
            for pass in [&untraced, &traced] {
                tally.merge(pass.tally);
            }
            attempted = untraced.tally.attempted() + traced.tally.attempted();
            failed = untraced.tally.failed() + traced.tally.failed();
            spans = std::mem::take(&mut traced.spans);
            let calls = traced.single.len() + traced.batch_ips.len();
            metrics.set("server.batches", calls as f64)?;
            metrics.set(
                "server.mean_batch",
                traced.inputs as f64 / calls.max(1) as f64,
            )?;
            metrics.set("server.shed", 0.0)?;
            metrics.set("server.failed", traced.call_errors as f64)?;
            let system_probe = probe_system(
                &mut system,
                &pool,
                &expected,
                THROUGHPUT_BATCH,
                &mut tally,
                PROBE_BUDGET,
            )?;
            let p50 = best_latency(&traced.single, 50.0)?;
            set_common(
                &mut metrics,
                Common {
                    system: system_probe,
                    wire: probe_wire(workload.name(), &pool[0], &expected[0], PROBE_BUDGET)?,
                    batcher: replay_batcher(
                        &traced.single.iter().map(|s| s.0).collect::<Vec<_>>(),
                        BatchConfig::default_online(),
                    ),
                    deploy: &deploy,
                    serve_digital_p50_ms: p50,
                    serve_p99_ms: best_latency(&traced.single, 99.0)?,
                    serve_unattributed_ms_p50: p50 - system_probe.infer1_ms_p50,
                    sent: attempted as f64,
                    noisy_sent: 0.0,
                    lags: traced.lags.clone(),
                    overhead_frac: p50 / best_latency(&untraced.single, 50.0)? - 1.0,
                },
            )?;
            let runner = probe_runner(
                &model,
                &deploy.pipeline,
                &pool,
                &expected,
                &mut tally,
                PROBE_BUDGET,
            )?;
            set_runner(&mut metrics, &mut notes, &runner)?;
            if deploy.target_drift {
                notes.push(
                    "warning: the mirrored analysis target searched differently from PrimeSystem"
                        .into(),
                );
            }
            metrics = metrics.select(PER_LAYER)?;
        }
    }
    Ok(Outcome {
        result: RunResult {
            correct: tally.correct(),
            attempted,
            failed,
            metrics,
        },
        notes,
        spans,
    })
}
