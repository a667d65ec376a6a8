//! `prime-benchmark`: one command that runs a workload, checks its
//! outputs and prints every metric by name and unit.
//!
//! ```text
//! prime-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!                 [--repeat N] [--sweep]
//! ```
//!
//! The last stdout line of a run is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics untraced,
//! per-layer metrics with `--trace 1`). A traced run also writes its
//! per-request spans to `target/prime-benchmark/<workload>.spans.jsonl`.
//! Exit status: 0 when every output was correct, 1 on a wrong output or a
//! failed run, 2 on a usage error.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use prime_benchmark::catalog::{END_TO_END, PER_LAYER};
use prime_benchmark::report::{fail, BenchError, RunResult};
use prime_benchmark::spans::write_jsonl;
use prime_benchmark::stats::Spread;
use prime_benchmark::workloads::{run, sweep, Options, Workload};

const USAGE: &str = "usage: prime-benchmark --workload <name> [--seed N] [--seconds S] \
                     [--trace 0|1] [--repeat N] [--sweep]";

struct Args {
    workload: Workload,
    options: Options,
    repeat: Option<usize>,
    sweep: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, BenchError> {
    fn value<'a>(
        it: &mut impl Iterator<Item = &'a String>,
        flag: &str,
    ) -> Result<&'a str, BenchError> {
        it.next()
            .map(String::as_str)
            .ok_or_else(|| fail(format!("{flag} takes a value")))
    }
    fn parsed<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, BenchError> {
        text.parse()
            .map_err(|_| fail(format!("{flag} {text} does not parse")))
    }
    let mut workload = None;
    let mut options = Options {
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let (mut repeat, mut sweep) = (None, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = value(&mut it, flag)?;
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(Workload::from_name(name).ok_or_else(|| {
                    fail(format!(
                        "unknown workload `{name}` (one of: {})",
                        names.join(", ")
                    ))
                })?);
            }
            "--seed" => options.seed = parsed(value(&mut it, flag)?, flag)?,
            "--seconds" => options.seconds = parsed(value(&mut it, flag)?, flag)?,
            "--trace" => {
                options.trace = match value(&mut it, flag)? {
                    "0" => false,
                    "1" => true,
                    other => return Err(fail(format!("--trace takes 0 or 1, not {other}"))),
                }
            }
            "--repeat" => match parsed(value(&mut it, flag)?, flag)? {
                0 => return Err(fail("--repeat takes a positive count")),
                n => repeat = Some(n),
            },
            "--sweep" => sweep = true,
            other => return Err(fail(format!("unknown argument `{other}`"))),
        }
    }
    let workload = workload.ok_or_else(|| fail("--workload is required"))?;
    Ok(Args {
        workload,
        options,
        repeat,
        sweep,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("prime-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.sweep {
        sweep(args.workload, &args.options).map(|lines| {
            for line in lines {
                println!("{line}");
            }
            true
        })
    } else if let Some(n) = args.repeat {
        repeat(&args, n)
    } else {
        run_once(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("prime-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One run in this process; the result line goes last. Returns whether
/// every output was correct.
fn run_once(args: &Args) -> Result<bool, BenchError> {
    let outcome = run(args.workload, &args.options)?;
    for note in &outcome.notes {
        println!("{note}");
    }
    if args.options.trace {
        let path = PathBuf::from("target/prime-benchmark")
            .join(format!("{}.spans.jsonl", args.workload.name()));
        write_jsonl(&path, &outcome.spans)?;
        println!("spans {} ({} spans)", path.display(), outcome.spans.len());
    }
    if !outcome.result.correct {
        eprintln!("prime-benchmark: outputs differed from the reference");
    }
    println!("{}", outcome.result.to_json());
    Ok(outcome.result.correct)
}

/// Runs the workload `n` times, each in a fresh process with seeds
/// `seed, seed+1, ...`, and summarizes every metric. Fails when a run
/// fails, or when an end-to-end metric other than `setup_s` spreads (IQR
/// over median) wider than its bound.
fn repeat(args: &Args, n: usize) -> Result<bool, BenchError> {
    let exe = std::env::current_exe()?;
    let mut results = Vec::with_capacity(n);
    for k in 0..n as u64 {
        let seed = args.options.seed.wrapping_add(k);
        let output = Command::new(&exe)
            .args(["--workload", args.workload.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.options.seconds.to_string()])
            .args(["--trace", if args.options.trace { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .unwrap_or_default();
        let result = RunResult::parse(last)
            .map_err(|e| fail(format!("run {k} (seed {seed}) printed no result: {e}")))?;
        println!(
            "run {k} seed {seed}: correct {} attempted {} failed {}, {}",
            result.correct, result.attempted, result.failed, output.status
        );
        if !output.status.success() || !result.correct {
            return Ok(false);
        }
        results.push(result);
    }
    let table = if args.options.trace {
        PER_LAYER
    } else {
        END_TO_END
    };
    println!(
        "{:<28} {:>10} {:>12} {:>12} {:>12} {:>12} {:>12} {:>7} {:>7} {:>6}",
        "metric", "unit", "median", "q1", "q3", "min", "max", "iqr%", "range%", "bound%"
    );
    let mut steady = true;
    for spec in table {
        let values: Vec<f64> = results
            .iter()
            .filter_map(|r| r.metrics.get(spec.name))
            .collect();
        let Some(s) = Spread::of(&values) else {
            continue;
        };
        let over = spec
            .bound
            .is_some_and(|b| spec.name != "setup_s" && s.iqr_frac() > b);
        steady &= !over;
        println!(
            "{:<28} {:>10} {:>12.5} {:>12.5} {:>12.5} {:>12.5} {:>12.5} {:>7.2} {:>7.2} {:>6}{}",
            spec.name,
            spec.unit,
            s.median,
            s.q1,
            s.q3,
            s.min,
            s.max,
            s.iqr_frac() * 100.0,
            s.range_frac() * 100.0,
            spec.bound
                .map_or("-".to_string(), |b| format!("{:.0}", b * 100.0)),
            if over { "  SPREAD OVER BOUND" } else { "" }
        );
    }
    Ok(steady)
}
