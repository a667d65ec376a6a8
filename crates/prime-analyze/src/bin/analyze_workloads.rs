//! Analyzer self-check: runs the deployment verifier over every MlBench
//! workload against the paper's default target.
//!
//! Guarantees the verifier never regresses into rejecting the paper's
//! own benchmark suite, full-size VGG-D included. Exits nonzero if any
//! workload fails to map or draws an `Error`-severity diagnostic.
//!
//! With `--program`, additionally lowers each workload's command program
//! statically ([`lower_program`]) and runs the Pass-3 abstract
//! interpreter ([`analyze_program`]) over it — region dataflow, interval
//! precision, shared-tile aliasing, stage-graph deadlock freedom — and
//! fails on any `Warning`-or-worse finding (stricter than Pass 1's
//! error-only gate: the paper's own workloads must be warning-clean).
//! Workloads with no in-memory lowering (LRN host fallback) are reported
//! and skipped.
//!
//! With `--candidates`, verifies the *entire enumerated candidate space*
//! the mapping search scores ([`prime_compiler::enumerate_candidates`])
//! instead of the fixed default mapping: every candidate must either pass
//! Pass 1 (and Pass 3 where a lowering exists) or fail to map with a
//! typed compile error — the search driver prunes those — and the
//! fixed-default candidate must always be verifier-clean, because it is
//! the search's tie-break anchor. Since the searched mapping is by
//! construction one of these candidates, a clean candidate sweep
//! subsumes verifying whatever the search picks.
//!
//! ```text
//! analyze-workloads [--json] [--program] [--candidates]
//! ```

use std::process::ExitCode;

use prime_analyze::{
    analyze, analyze_program, has_errors, lower_program, render_human, render_json,
    Severity, Target,
};
use prime_compiler::{enumerate_candidates, map_network, CompileOptions};
use prime_nn::MlBench;

/// Verifies every enumerated search candidate for every workload: clean,
/// or pruned by a typed compile error; the fixed-default candidate (index
/// 0) must be clean. Returns `true` when the gate fails.
fn check_candidates(target: &Target, json: bool) -> bool {
    let mut failed = false;
    for bench in MlBench::ALL {
        let spec = bench.spec();
        let candidates = enumerate_candidates(&spec, &target.hw);
        let mut clean = 0usize;
        let mut pruned = 0usize;
        for (idx, options) in candidates.iter().enumerate() {
            let label = format!("{}[cap={}]", bench.name(), options.stage_mats_cap);
            let mapping = match map_network(&spec, &target.hw, *options) {
                Ok(mapping) => mapping,
                Err(err) => {
                    // The search driver prunes unmappable candidates; only
                    // the fixed default is required to map.
                    pruned += 1;
                    if idx == 0 {
                        eprintln!("{label}: fixed default failed to map: {err}");
                        failed = true;
                    }
                    continue;
                }
            };
            let mut diags = analyze(&spec, target, &mapping);
            if let Ok(plan) = lower_program(&spec, target, &mapping) {
                diags.extend(analyze_program(&spec, target, &mapping, &plan));
            }
            if has_errors(&diags) {
                // Verifier-rejected candidates are pruned, not errors —
                // except the fixed default, the search's tie-break anchor.
                pruned += 1;
                if idx == 0 {
                    eprintln!("{label}: fixed default drew errors:");
                    eprint!("{}", render_human(&diags));
                    failed = true;
                }
            } else {
                clean += 1;
            }
        }
        if json {
            println!(
                "{{\"workload\":\"{}\",\"candidates\":{},\"clean\":{clean},\"pruned\":{pruned}}}",
                bench.name(),
                candidates.len()
            );
        } else {
            println!(
                "{:8} {:24} candidates={} clean={clean} pruned={pruned}",
                bench.name(),
                bench.topology(),
                candidates.len()
            );
        }
        if clean == 0 {
            eprintln!("{}: no verifier-clean candidate survives", bench.name());
            failed = true;
        }
    }
    failed
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let program = args.iter().any(|a| a == "--program");
    let candidates = args.iter().any(|a| a == "--candidates");
    let target = Target::prime_default();
    let mut failed = false;
    if candidates {
        failed |= check_candidates(&target, json);
        return finish(failed);
    }
    // Deployment semantics: `PrimeSystem::deploy` maps without
    // replication (replicas get placed at deploy time); the replicated
    // mapping is an analytic utilization model, not a physical placement.
    let options = CompileOptions { replicate: false, ..CompileOptions::default() };
    for bench in MlBench::ALL {
        let spec = bench.spec();
        let mapping = match map_network(&spec, &target.hw, options) {
            Ok(mapping) => mapping,
            Err(err) => {
                eprintln!("{}: mapping failed: {err}", bench.name());
                failed = true;
                continue;
            }
        };
        let mut diags = analyze(&spec, &target, &mapping);
        let mut plan_note = "";
        // Pass-3 findings gate on Warning-or-worse; Pass-1 warnings
        // (e.g. P011 Po truncation, lossy by design) stay advisory.
        let mut p3_flagged = 0usize;
        if program {
            match lower_program(&spec, &target, &mapping) {
                Ok(plan) => {
                    let p3 = analyze_program(&spec, &target, &mapping, &plan);
                    p3_flagged = p3.iter().filter(|d| d.severity >= Severity::Warning).count();
                    diags.extend(p3);
                }
                Err(reason) => {
                    plan_note = " (no in-memory lowering; pass 3 skipped)";
                    if !json {
                        eprintln!("{}: {reason}", bench.name());
                    }
                }
            }
        }
        let errors = diags.iter().filter(|d| d.severity == Severity::Error).count();
        let warnings = diags.iter().filter(|d| d.severity == Severity::Warning).count();
        if json {
            println!(
                "{{\"workload\":\"{}\",\"diagnostics\":{}}}",
                bench.name(),
                render_json(&diags)
            );
        } else {
            println!(
                "{:8} {:24} errors={errors} warnings={warnings}{plan_note}",
                bench.name(),
                bench.topology()
            );
            if errors > 0 || p3_flagged > 0 {
                print!("{}", render_human(&diags));
            }
        }
        // Pass 1 alone gates on errors; with `--program` the paper's
        // workloads must also be free of new Pass-3 warnings.
        if has_errors(&diags) || p3_flagged > 0 {
            failed = true;
        }
    }
    finish(failed)
}

fn finish(failed: bool) -> ExitCode {
    if failed {
        eprintln!("analyze-workloads: FAILED");
        ExitCode::FAILURE
    } else {
        println!("analyze-workloads: all workloads accepted");
        ExitCode::SUCCESS
    }
}
