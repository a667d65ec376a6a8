//! The paper's evaluation experiments: one submodule per figure.
//!
//! Each submodule produces a serializable result struct that the
//! `prime-bench` binaries print as the same rows/series the paper
//! reports; EXPERIMENTS.md records paper-vs-measured for every one.

use serde::{Deserialize, Serialize};

use prime_nn::MlBench;

use crate::machines::{CpuMachine, Machine, NpuMachine, PrimeMachine};
use crate::params::EVAL_BATCH;
use crate::result::{geomean, Breakdown, RunResult};

/// Runs every machine on one benchmark at the evaluation batch size.
fn run_all(bench: MlBench) -> (RunResult, RunResult, RunResult, RunResult, RunResult) {
    let spec = bench.spec();
    (
        CpuMachine::new().run(&spec, EVAL_BATCH),
        NpuMachine::co_processor().run(&spec, EVAL_BATCH),
        NpuMachine::pim(1).run(&spec, EVAL_BATCH),
        NpuMachine::pim(64).run(&spec, EVAL_BATCH),
        PrimeMachine::new().run(&spec, EVAL_BATCH),
    )
}

/// Figure 6: classification accuracy vs input/weight precision.
pub mod fig6 {
    use super::*;
    use prime_nn::{
        evaluate, evaluate_quantized, train_sgd, Activation, DigitGenerator, FullyConnected,
        Layer, Network, TrainConfig, IMAGE_PIXELS, NUM_CLASSES,
    };
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Sweep configuration.
    #[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
    pub struct Config {
        /// Training samples.
        pub train_samples: usize,
        /// Test samples.
        pub test_samples: usize,
        /// Hidden-layer width of the classifier.
        pub hidden: usize,
        /// Training epochs.
        pub epochs: usize,
        /// RNG seed (data + init + shuffling).
        pub seed: u64,
        /// Highest precision swept (1..=max_bits for inputs and weights).
        pub max_bits: u8,
    }

    impl Config {
        /// The full sweep used by the figure binary.
        pub fn full() -> Self {
            Config {
                train_samples: 1500,
                test_samples: 500,
                hidden: 48,
                epochs: 6,
                seed: 20160618,
                max_bits: 8,
            }
        }

        /// A reduced sweep that keeps unit tests fast.
        pub fn quick() -> Self {
            Config {
                train_samples: 600,
                test_samples: 200,
                hidden: 32,
                epochs: 4,
                seed: 11,
                max_bits: 4,
            }
        }
    }

    /// The sweep result: `accuracy[weight_bits - 1][input_bits - 1]`.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub struct Result {
        /// Configuration used.
        pub config: Config,
        /// Floating-point test accuracy (the paper's "float" reference).
        pub float_accuracy: f64,
        /// Quantized accuracy grid, indexed `[weight_bits-1][input_bits-1]`.
        pub accuracy: Vec<Vec<f64>>,
    }

    impl Result {
        /// Accuracy at a precision point.
        pub fn at(&self, input_bits: u8, weight_bits: u8) -> f64 {
            self.accuracy[usize::from(weight_bits) - 1][usize::from(input_bits) - 1]
        }
    }

    /// Trains the classifier on synthetic digits and sweeps dynamic
    /// fixed-point input/weight precision (paper Fig. 6; MNIST is
    /// substituted per DESIGN.md §4).
    ///
    /// # Errors
    ///
    /// Propagates [`prime_nn::NnError`] from training or evaluation —
    /// only possible if the generated classifier itself is broken.
    pub fn run(config: Config) -> std::result::Result<Result, prime_nn::NnError> {
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let gen = DigitGenerator::default();
        let train = gen.dataset(config.train_samples, &mut rng);
        let test = gen.dataset(config.test_samples, &mut rng);
        let mut net = Network::new(vec![
            Layer::Fc(FullyConnected::new(IMAGE_PIXELS, config.hidden, Activation::Sigmoid)),
            Layer::Fc(FullyConnected::new(config.hidden, NUM_CLASSES, Activation::Identity)),
        ])?;
        net.init_random(&mut rng);
        let tc = TrainConfig { epochs: config.epochs, ..TrainConfig::quick() };
        train_sgd(&mut net, &train, tc, &mut rng)?;
        let float_accuracy = evaluate(&net, &test)?;
        let mut accuracy = Vec::new();
        for wbits in 1..=config.max_bits {
            let mut row = Vec::new();
            for ibits in 1..=config.max_bits {
                row.push(evaluate_quantized(&net, &test, ibits, wbits)?);
            }
            accuracy.push(row);
        }
        Ok(Result { config, float_accuracy, accuracy })
    }
}

/// Figure 8: performance speedups over the CPU-only baseline.
pub mod fig8 {
    use super::*;

    /// One benchmark's speedups (vs CPU).
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub struct Row {
        /// Benchmark name.
        pub benchmark: String,
        /// pNPU-co speedup.
        pub pnpu_co: f64,
        /// pNPU-pim-x1 speedup.
        pub pnpu_pim_x1: f64,
        /// pNPU-pim-x64 speedup.
        pub pnpu_pim_x64: f64,
        /// PRIME speedup.
        pub prime: f64,
    }

    /// The full figure: per-benchmark rows plus the geometric mean.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub struct Result {
        /// Per-benchmark speedups.
        pub rows: Vec<Row>,
        /// Geometric-mean row ("gmean" in the figure).
        pub gmean: Row,
    }

    /// Runs all machines on all benchmarks at batch 64.
    pub fn run() -> Result {
        let mut rows = Vec::new();
        for bench in MlBench::ALL {
            let (cpu, co, p1, p64, prime) = run_all(bench);
            rows.push(Row {
                benchmark: bench.name().to_string(),
                pnpu_co: co.speedup_vs(&cpu),
                pnpu_pim_x1: p1.speedup_vs(&cpu),
                pnpu_pim_x64: p64.speedup_vs(&cpu),
                prime: prime.speedup_vs(&cpu),
            });
        }
        let gmean = Row {
            benchmark: "gmean".to_string(),
            pnpu_co: geomean(&rows.iter().map(|r| r.pnpu_co).collect::<Vec<_>>()),
            pnpu_pim_x1: geomean(&rows.iter().map(|r| r.pnpu_pim_x1).collect::<Vec<_>>()),
            pnpu_pim_x64: geomean(&rows.iter().map(|r| r.pnpu_pim_x64).collect::<Vec<_>>()),
            prime: geomean(&rows.iter().map(|r| r.prime).collect::<Vec<_>>()),
        };
        Result { rows, gmean }
    }
}

/// Figure 9: execution-time breakdown normalized to pNPU-co.
pub mod fig9 {
    use super::*;

    /// One (machine, benchmark) bar: compute+buffer vs memory time,
    /// normalized to the pNPU-co total for that benchmark.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub struct Bar {
        /// Machine name.
        pub machine: String,
        /// Benchmark name.
        pub benchmark: String,
        /// Computation share (includes buffer time, as in the paper).
        pub compute: f64,
        /// Memory-access share.
        pub memory: f64,
    }

    /// The full figure.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub struct Result {
        /// Bars for pNPU-co, pNPU-pim-x1, and PRIME (single copy, as in
        /// the paper's breakdown), per benchmark.
        pub bars: Vec<Bar>,
    }

    /// Runs the breakdown comparison (pim with one NPU, PRIME without
    /// bank parallelism, per the paper's method).
    pub fn run() -> Result {
        let mut bars = Vec::new();
        for bench in MlBench::ALL {
            let spec = bench.spec();
            let co = NpuMachine::co_processor().run(&spec, 1);
            let pim = NpuMachine::pim(1).run(&spec, 1);
            let prime = PrimeMachine::without_bank_parallelism().run(&spec, 1);
            let norm = co.time_ns.total();
            for r in [co, pim, prime] {
                bars.push(Bar {
                    machine: r.machine.clone(),
                    benchmark: bench.name().to_string(),
                    compute: (r.time_ns.compute + r.time_ns.buffer) / norm,
                    memory: r.time_ns.memory / norm,
                });
            }
        }
        Result { bars }
    }
}

/// Figure 10: energy savings over the CPU-only baseline.
pub mod fig10 {
    use super::*;

    /// One benchmark's energy-saving factors (vs CPU).
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub struct Row {
        /// Benchmark name.
        pub benchmark: String,
        /// pNPU-co saving.
        pub pnpu_co: f64,
        /// pNPU-pim-x64 saving (x1 is identical: same work, same energy).
        pub pnpu_pim_x64: f64,
        /// PRIME saving.
        pub prime: f64,
    }

    /// The full figure.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub struct Result {
        /// Per-benchmark savings.
        pub rows: Vec<Row>,
        /// Geometric-mean row.
        pub gmean: Row,
    }

    /// Runs the energy comparison.
    pub fn run() -> Result {
        let mut rows = Vec::new();
        for bench in MlBench::ALL {
            let (cpu, co, _p1, p64, prime) = run_all(bench);
            rows.push(Row {
                benchmark: bench.name().to_string(),
                pnpu_co: co.energy_saving_vs(&cpu),
                pnpu_pim_x64: p64.energy_saving_vs(&cpu),
                prime: prime.energy_saving_vs(&cpu),
            });
        }
        let gmean = Row {
            benchmark: "gmean".to_string(),
            pnpu_co: geomean(&rows.iter().map(|r| r.pnpu_co).collect::<Vec<_>>()),
            pnpu_pim_x64: geomean(&rows.iter().map(|r| r.pnpu_pim_x64).collect::<Vec<_>>()),
            prime: geomean(&rows.iter().map(|r| r.prime).collect::<Vec<_>>()),
        };
        Result { rows, gmean }
    }
}

/// Figure 11: energy breakdown normalized to pNPU-co.
pub mod fig11 {
    use super::*;

    /// One (machine, benchmark) bar, normalized to the pNPU-co total.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub struct Bar {
        /// Machine name.
        pub machine: String,
        /// Benchmark name.
        pub benchmark: String,
        /// Computation energy share.
        pub compute: f64,
        /// Buffer energy share.
        pub buffer: f64,
        /// Memory energy share.
        pub memory: f64,
    }

    /// The full figure.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub struct Result {
        /// Bars for pNPU-co, pNPU-pim-x64, and PRIME per benchmark.
        pub bars: Vec<Bar>,
    }

    /// Runs the energy-breakdown comparison.
    pub fn run() -> Result {
        let mut bars = Vec::new();
        for bench in MlBench::ALL {
            let spec = bench.spec();
            let co = NpuMachine::co_processor().run(&spec, EVAL_BATCH);
            let pim = NpuMachine::pim(64).run(&spec, EVAL_BATCH);
            let prime = PrimeMachine::new().run(&spec, EVAL_BATCH);
            let norm = co.energy_pj.total();
            for r in [co, pim, prime] {
                bars.push(Bar {
                    machine: r.machine.clone(),
                    benchmark: bench.name().to_string(),
                    compute: r.energy_pj.compute / norm,
                    buffer: r.energy_pj.buffer / norm,
                    memory: r.energy_pj.memory / norm,
                });
            }
        }
        Result { bars }
    }
}

/// Figure 12: area overhead and FF utilization.
pub mod fig12 {
    use super::*;
    use crate::area::{utilization_table, AreaModel, UtilizationRow};

    /// The full figure.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub struct Result {
        /// The chip-level area model (5.76 % overhead; mat-level 60 %
        /// split into driver / subtraction+sigmoid / control).
        pub model: AreaModel,
        /// Per-benchmark FF utilization before/after replication.
        pub utilization: Vec<UtilizationRow>,
    }

    /// Computes the area figure.
    pub fn run() -> Result {
        Result { model: AreaModel::paper(), utilization: utilization_table() }
    }
}

/// Ablation studies of PRIME's design choices (DESIGN.md experiment
/// index): the replication optimization, bank-level parallelism scaling,
/// and device-noise sensitivity of the functional pipeline.
pub mod ablation {
    use super::*;
    use crate::machines::PrimeMachine;

    /// Effect of the §IV-B1 replication optimization on one benchmark.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub struct ReplicationRow {
        /// Benchmark name.
        pub benchmark: String,
        /// Batch latency with replication, ns.
        pub with_replication_ns: f64,
        /// Batch latency without replication, ns.
        pub without_replication_ns: f64,
        /// FF utilization with replication.
        pub utilization_with: f64,
        /// FF utilization without replication.
        pub utilization_without: f64,
    }

    impl ReplicationRow {
        /// Speedup contributed by replication alone.
        pub fn replication_speedup(&self) -> f64 {
            self.without_replication_ns / self.with_replication_ns
        }
    }

    /// Runs the replication on/off comparison over MlBench.
    pub fn replication() -> Vec<ReplicationRow> {
        let with = PrimeMachine::new();
        let without = PrimeMachine::without_replication();
        MlBench::ALL
            .iter()
            .map(|bench| {
                let spec = bench.spec();
                ReplicationRow {
                    benchmark: bench.name().to_string(),
                    with_replication_ns: with.run(&spec, EVAL_BATCH).latency_ns,
                    without_replication_ns: without.run(&spec, EVAL_BATCH).latency_ns,
                    utilization_with: with.mapping(&spec).map_or(0.0, |m| m.utilization_after),
                    utilization_without: without
                        .mapping(&spec)
                        .map_or(0.0, |m| m.utilization_before),
                }
            })
            .collect()
    }

    /// One point of the bank-parallelism scaling sweep.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub struct BankScalingRow {
        /// Banks in the memory.
        pub banks: u32,
        /// Batch latency, ns.
        pub latency_ns: f64,
        /// Speedup relative to the 1-bank point.
        pub speedup_vs_one_bank: f64,
    }

    /// Sweeps the bank count for one benchmark (PRIME's "NPU count").
    pub fn bank_scaling(bench: MlBench) -> Vec<BankScalingRow> {
        let mut rows = Vec::new();
        let mut base = None;
        for banks in [1u32, 2, 4, 8, 16, 32, 64] {
            let machine = PrimeMachine::with_banks(banks);
            let latency = machine.run(&bench.spec(), EVAL_BATCH).latency_ns;
            let base_latency = *base.get_or_insert(latency);
            rows.push(BankScalingRow {
                banks,
                latency_ns: latency,
                speedup_vs_one_bank: base_latency / latency,
            });
        }
        rows
    }
}

/// Cost of the CPU fallback for layers PRIME has no hardware for
/// (paper §III-E: LRN layers are delegated to the CPU; state-of-the-art
/// CNNs dropped them, so PRIME adds no LRN circuitry).
pub mod lrn_fallback {
    use super::*;
    use crate::machines::PrimeMachine;
    use prime_nn::cnn1_with_lrn;

    /// The comparison result.
    #[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
    pub struct Result {
        /// CNN-1 batch latency, ns.
        pub cnn1_ns: f64,
        /// CNN-1 + LRN batch latency, ns.
        pub cnn1_lrn_ns: f64,
    }

    impl Result {
        /// Slowdown factor caused by the LRN fallback.
        pub fn penalty(&self) -> f64 {
            self.cnn1_lrn_ns / self.cnn1_ns
        }
    }

    /// Measures CNN-1 with and without an LRN layer on PRIME.
    pub fn run() -> Result {
        let prime = PrimeMachine::new();
        Result {
            cnn1_ns: prime.run(&MlBench::Cnn1.spec(), EVAL_BATCH).latency_ns,
            cnn1_lrn_ns: prime.run(&cnn1_with_lrn(), EVAL_BATCH).latency_ns,
        }
    }
}

/// The FF-subarray-count tradeoff the paper calls out in §V-D: "The
/// choice of the number of FF subarrays is a tradeoff between peak GOPS
/// and area overhead."
pub mod ff_tradeoff {
    use super::*;
    use crate::area::MatAreaBreakdown;
    use crate::params::PrimeParams;
    use prime_compiler::HwTarget;

    /// One point of the tradeoff curve.
    #[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
    pub struct Row {
        /// FF subarrays per bank.
        pub ff_subarrays: usize,
        /// Peak throughput in GOPS (two ops per MAC, all mats busy).
        pub peak_gops: f64,
        /// Chip-area overhead fraction.
        pub area_overhead: f64,
    }

    /// Sweeps the FF-subarray count per bank.
    pub fn run(max_ff: usize) -> Vec<Row> {
        let base = HwTarget::prime_default();
        let params = PrimeParams::prime_default();
        let mat_overhead = MatAreaBreakdown::paper().total();
        // The paper's floorplan: 2 FF subarrays cost 5.76 % of the chip,
        // so each contributes half of that.
        let per_ff_fraction = 0.0576 / mat_overhead / 2.0;
        (1..=max_ff)
            .map(|ff| {
                let mats = base.mats_per_ff_subarray * ff * base.banks;
                // One pass evaluates every active mat: 256x128 composed
                // MACs (x2 ops) per pass time.
                let ops_per_pass = (base.mat_rows * base.mat_cols * 2) as f64;
                let gops = mats as f64 * ops_per_pass / params.pass_ns(128);
                Row {
                    ff_subarrays: ff,
                    peak_gops: gops,
                    area_overhead: per_ff_fraction * ff as f64 * mat_overhead,
                }
            })
            .collect()
    }
}

/// Throughput vs batch size: bank-level parallelism saturates at one
/// image per bank (the knee at 64 the §IV-B2 placement is built around).
pub mod batch_sweep {
    use super::*;
    use crate::machines::PrimeMachine;

    /// One point of the sweep.
    #[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
    pub struct Row {
        /// Batch size.
        pub batch: u32,
        /// Batch latency, ns.
        pub latency_ns: f64,
        /// Throughput in images per millisecond.
        pub images_per_ms: f64,
    }

    /// Sweeps batch sizes for one benchmark on PRIME.
    pub fn run(bench: MlBench, batches: &[u32]) -> Vec<Row> {
        let prime = PrimeMachine::new();
        let spec = bench.spec();
        batches
            .iter()
            .map(|&batch| {
                let latency_ns = prime.run(&spec, batch).latency_ns;
                Row {
                    batch,
                    latency_ns,
                    images_per_ms: f64::from(batch) / (latency_ns / 1e6),
                }
            })
            .collect()
    }
}

/// Device-noise sensitivity of the device runner: how
/// classification accuracy degrades as the cell-programming precision
/// worsens (paper §III-D: ~1 % single-cell, ~3 % in-crossbar tuning).
pub mod noise {
    use super::*;
    use prime_core::PrimeSystem;
    use prime_device::NoiseModel;
    use prime_nn::{
        evaluate, train_sgd, Activation, DigitGenerator, FullyConnected, Layer, Network,
        TrainConfig, IMAGE_PIXELS, NUM_CLASSES,
    };
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// One point of the noise sweep.
    #[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
    pub struct NoiseRow {
        /// Relative programming-noise sigma.
        pub program_sigma: f64,
        /// Hardware-pipeline accuracy at this noise level.
        pub accuracy: f64,
    }

    /// The sweep result.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub struct Result {
        /// Software (noise-free, full-precision) reference accuracy.
        pub software_accuracy: f64,
        /// Accuracy per noise level.
        pub rows: Vec<NoiseRow>,
    }

    /// Trains a digit classifier and deploys it on one bank of a
    /// [`PrimeSystem`]; at each programming-noise level, perturbs every
    /// placed tile from one fixed seed and classifies the test set
    /// through the analog path with read noise off.
    ///
    /// # Errors
    ///
    /// Propagates [`prime_core::PrimeError`] from training, evaluation,
    /// or the device runner — only possible if the generated classifier
    /// or the runner itself is broken.
    pub fn run(
        test_samples: usize,
        sigmas: &[f64],
    ) -> std::result::Result<Result, prime_core::PrimeError> {
        let mut rng = SmallRng::seed_from_u64(31);
        let generator = DigitGenerator::default();
        let train_set = generator.dataset(600, &mut rng);
        let test_set = generator.dataset(test_samples, &mut rng);
        let mut net = Network::new(vec![
            Layer::Fc(FullyConnected::new(IMAGE_PIXELS, 32, Activation::Sigmoid)),
            Layer::Fc(FullyConnected::new(32, NUM_CLASSES, Activation::Identity)),
        ])
        .map_err(prime_core::PrimeError::from)?;
        net.init_random(&mut rng);
        train_sgd(&mut net, &train_set, TrainConfig::quick(), &mut rng)
            .map_err(prime_core::PrimeError::from)?;
        let software_accuracy =
            evaluate(&net, &test_set).map_err(prime_core::PrimeError::from)?;
        let calibration = train_set.first().map(|s| s.pixels.as_slice()).unwrap_or_default();
        let mut system = PrimeSystem::new(1, 2, 8, 4096);
        system.deploy(&net, calibration)?;
        let inputs: Vec<Vec<f32>> = test_set.iter().map(|s| s.pixels.clone()).collect();
        let mut rows = Vec::with_capacity(sigmas.len());
        for &sigma in sigmas {
            let model = NoiseModel { program_sigma: sigma, read_sigma: 0.0 };
            system.apply_program_noise(&model, 77)?;
            let outputs = system.infer_batch_noisy(&inputs, &model, 77)?;
            let mut correct = 0usize;
            for (out, sample) in outputs.iter().zip(&test_set) {
                let mut best = 0;
                for (i, &v) in out.iter().enumerate() {
                    if v > out[best] {
                        best = i;
                    }
                }
                if best == sample.label {
                    correct += 1;
                }
            }
            rows.push(NoiseRow {
                program_sigma: sigma,
                accuracy: correct as f64 / test_set.len().max(1) as f64,
            });
        }
        Ok(Result { software_accuracy, rows })
    }
}

/// ReRAM endurance analysis: FF mats are reprogrammed on every NN
/// reconfiguration; with 10^12 write endurance (paper §II-A) the
/// morphable design outlives any realistic reconfiguration schedule.
pub mod endurance {
    use super::*;
    use prime_device::DEFAULT_ENDURANCE_WRITES;

    /// Lifetime at one reconfiguration rate.
    #[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
    pub struct EnduranceRow {
        /// FF reconfigurations (weight reprogram cycles) per second.
        pub reconfigs_per_second: f64,
        /// Cell lifetime in years at that rate.
        pub lifetime_years: f64,
    }

    /// Computes lifetimes across a sweep of reconfiguration rates. Each
    /// reconfiguration writes every cell once (program-verify).
    pub fn run(rates_per_second: &[f64]) -> Vec<EnduranceRow> {
        const SECONDS_PER_YEAR: f64 = 365.25 * 24.0 * 3600.0;
        rates_per_second
            .iter()
            .map(|&rate| EnduranceRow {
                reconfigs_per_second: rate,
                lifetime_years: DEFAULT_ENDURANCE_WRITES as f64 / rate / SECONDS_PER_YEAR,
            })
            .collect()
    }
}

/// Normalized memory-time share of a run (helper shared by tests).
pub fn memory_share(b: &Breakdown) -> f64 {
    let (_, _, m) = b.fractions();
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_reproduces_the_paper_shape() {
        let fig = fig8::run();
        // Ordering on every benchmark.
        for row in &fig.rows {
            assert!(row.pnpu_co > 1.0, "{}: co must beat CPU", row.benchmark);
            assert!(row.pnpu_pim_x1 > row.pnpu_co, "{}: pim-x1 > co", row.benchmark);
            assert!(row.pnpu_pim_x64 >= row.pnpu_pim_x1, "{}: x64 >= x1", row.benchmark);
            assert!(row.prime > row.pnpu_pim_x64, "{}: PRIME > pim-x64", row.benchmark);
        }
        // pim-x1 beats co by roughly an order of magnitude (paper: 9.1x).
        let pim_over_co = fig.gmean.pnpu_pim_x1 / fig.gmean.pnpu_co;
        assert!((3.0..20.0).contains(&pim_over_co), "pim-x1/co gmean {pim_over_co}");
        // PRIME beats co by thousands (paper: ~2360x).
        let prime_over_co = fig.gmean.prime / fig.gmean.pnpu_co;
        assert!((800.0..8000.0).contains(&prime_over_co), "PRIME/co gmean {prime_over_co}");
        // PRIME is a small factor above pim-x64 (paper: ~4.1x).
        let prime_over_pim = fig.gmean.prime / fig.gmean.pnpu_pim_x64;
        assert!((2.0..12.0).contains(&prime_over_pim), "PRIME/pim-x64 gmean {prime_over_pim}");
        // VGG-D shows the smallest PRIME speedup (inter-bank traffic).
        let vgg = fig.rows.iter().find(|r| r.benchmark == "VGG-D").unwrap().prime;
        for row in &fig.rows {
            if row.benchmark != "VGG-D" {
                assert!(row.prime > vgg, "{} should outpace VGG-D", row.benchmark);
            }
        }
    }

    #[test]
    fn fig9_prime_memory_time_is_zero() {
        let fig = fig9::run();
        for bar in fig.bars.iter().filter(|b| b.machine.starts_with("PRIME")) {
            assert_eq!(bar.memory, 0.0, "{}", bar.benchmark);
            // And the PRIME bar is a small fraction of pNPU-co.
            assert!(bar.compute < 0.2, "{}: PRIME share {}", bar.benchmark, bar.compute);
        }
        // pim reduces memory time substantially vs co.
        for bench in MlBench::ALL {
            let co = fig
                .bars
                .iter()
                .find(|b| b.machine == "pNPU-co" && b.benchmark == bench.name())
                .unwrap();
            let pim = fig
                .bars
                .iter()
                .find(|b| b.machine == "pNPU-pim-x1" && b.benchmark == bench.name())
                .unwrap();
            assert!(pim.memory < co.memory * 0.3, "{}", bench.name());
        }
    }

    #[test]
    fn fig10_reproduces_the_paper_shape() {
        let fig = fig10::run();
        for row in &fig.rows {
            assert!(row.pnpu_co > 1.0);
            assert!(row.pnpu_pim_x64 > row.pnpu_co, "{}", row.benchmark);
            assert!(row.prime > row.pnpu_pim_x64, "{}", row.benchmark);
        }
        // PRIME saves energy vs co by hundreds (paper: ~895x).
        let prime_over_co = fig.gmean.prime / fig.gmean.pnpu_co;
        assert!((200.0..3000.0).contains(&prime_over_co), "PRIME/co energy gmean {prime_over_co}");
    }

    #[test]
    fn fig11_memory_energy_collapses_under_pim() {
        let fig = fig11::run();
        for bench in MlBench::ALL {
            let co = fig
                .bars
                .iter()
                .find(|b| b.machine == "pNPU-co" && b.benchmark == bench.name())
                .unwrap();
            let pim = fig
                .bars
                .iter()
                .find(|b| b.machine == "pNPU-pim-x64" && b.benchmark == bench.name())
                .unwrap();
            // Paper: pim saves ~93.9 % of memory energy on average.
            assert!(pim.memory < co.memory * 0.12, "{}", bench.name());
        }
        // CNNs are buffer-heavy relative to MLPs on PRIME (paper §V-C).
        let share = |name: &str| {
            let b = fig
                .bars
                .iter()
                .find(|b| b.machine == "PRIME" && b.benchmark == name)
                .unwrap();
            b.buffer / (b.compute + b.buffer + b.memory)
        };
        assert!(share("CNN-1") > share("MLP-L"));
    }

    #[test]
    fn fig6_precision_saturates_quickly() {
        let r = fig6::run(fig6::Config::quick()).expect("sweep runs");
        assert!(r.float_accuracy > 0.9, "float accuracy {}", r.float_accuracy);
        // 3-bit inputs + 3-bit weights reach ~99 % of float accuracy
        // (paper: "3-bit ... adequate to achieve 99% accuracy").
        assert!(
            r.at(3, 3) >= 0.95 * r.float_accuracy,
            "3/3-bit accuracy {} vs float {}",
            r.at(3, 3),
            r.float_accuracy
        );
        // 1-bit weights are far worse than 4-bit weights at 4-bit inputs.
        assert!(r.at(4, 1) < r.at(4, 4));
    }

    #[test]
    fn replication_never_hurts() {
        for row in ablation::replication() {
            assert!(
                row.replication_speedup() >= 1.0 - 1e-9,
                "{}: replication slowed things down",
                row.benchmark
            );
            assert!(row.utilization_with >= row.utilization_without, "{}", row.benchmark);
        }
        // The conv benchmarks gain the most (many sequential windows).
        let rows = ablation::replication();
        let speedup = |name: &str| {
            rows.iter().find(|r| r.benchmark == name).unwrap().replication_speedup()
        };
        assert!(speedup("CNN-1") > speedup("MLP-S"));
    }

    #[test]
    fn bank_scaling_is_monotonic_and_near_linear() {
        let rows = ablation::bank_scaling(MlBench::MlpM);
        for pair in rows.windows(2) {
            assert!(pair[1].latency_ns <= pair[0].latency_ns + 1e-9);
        }
        let last = rows.last().unwrap();
        assert_eq!(last.banks, 64);
        // Medium-scale NNs replicate per bank: near-linear scaling.
        assert!(last.speedup_vs_one_bank > 32.0, "got {}", last.speedup_vs_one_bank);
    }

    #[test]
    fn ff_tradeoff_matches_the_paper_narrative() {
        let rows = ff_tradeoff::run(8);
        // GOPS grows linearly with FF subarrays; so does area.
        for pair in rows.windows(2) {
            assert!(pair[1].peak_gops > pair[0].peak_gops);
            assert!(pair[1].area_overhead > pair[0].area_overhead);
        }
        // The paper's configuration (2 FF) costs 5.76 %.
        let two = rows.iter().find(|r| r.ff_subarrays == 2).unwrap();
        assert!((two.area_overhead - 0.0576).abs() < 1e-3, "got {}", two.area_overhead);
        // Peak throughput is in the many-TOPS range — the whole point of
        // in-memory analog computation.
        assert!(two.peak_gops > 10_000.0, "got {} GOPS", two.peak_gops);
    }

    #[test]
    fn batch_throughput_saturates_at_the_bank_count() {
        let rows = batch_sweep::run(MlBench::MlpM, &[1, 8, 32, 64, 128, 256]);
        // Throughput rises until one image per bank...
        let at = |b: u32| rows.iter().find(|r| r.batch == b).unwrap().images_per_ms;
        assert!(at(64) > 8.0 * at(1), "bank parallelism should pay off");
        // ...and flattens beyond it (within 30 %).
        let ratio = at(256) / at(64);
        assert!((0.7..=1.3).contains(&ratio), "past-knee ratio {ratio}");
    }

    #[test]
    fn lrn_fallback_is_expensive() {
        let r = lrn_fallback::run();
        // Delegating one layer to the CPU costs PRIME dearly — the reason
        // the paper cites modern CNNs dropping LRN for omitting hardware.
        assert!(r.penalty() > 2.0, "penalty {}", r.penalty());
        assert!(r.cnn1_lrn_ns > r.cnn1_ns);
    }

    #[test]
    fn endurance_outlives_realistic_schedules() {
        let rows = endurance::run(&[1.0, 1000.0]);
        // Even reconfiguring every millisecond lasts decades.
        assert!(rows[1].lifetime_years > 10.0, "{:?}", rows[1]);
        assert!(rows[0].lifetime_years > rows[1].lifetime_years);
    }

    #[test]
    fn noise_sweep_degrades_gracefully() {
        let result = noise::run(30, &[0.0, 0.03, 0.5]).expect("sweep runs");
        assert!(result.software_accuracy > 0.9);
        // Realistic 3% noise keeps accuracy close to noise-free.
        assert!(
            result.rows[1].accuracy >= result.rows[0].accuracy - 0.15,
            "3% noise collapsed accuracy: {:?}",
            result.rows
        );
        // Absurd 50% noise is clearly worse than noise-free.
        assert!(result.rows[2].accuracy <= result.rows[0].accuracy + 1e-9);
    }

    #[test]
    fn fig12_matches_paper_constants() {
        let r = fig12::run();
        assert!((r.model.chip_overhead() - 0.0576).abs() < 1e-3);
        assert_eq!(r.utilization.len(), 6);
    }
}
