//! Ablation of device non-ideality: classification accuracy on the
//! device runner as ReRAM programming precision degrades.
//!
//! The paper's precision scheme assumes cells tuned to ~1 % (isolated)
//! to ~3 % (in-crossbar) relative conductance error \[31\]\[65\]; this sweep
//! shows the architecture's accuracy is robust across that regime and
//! collapses only at implausibly sloppy programming. Also prints the
//! endurance analysis: at 10^12 write endurance, reprogramming FF mats
//! even every millisecond outlives the machine.

use prime_bench::archive_json;
use prime_sim::experiments::{endurance, noise};
use prime_sim::report::{format_table, to_json};

fn main() {
    let sigmas = [0.0, 0.01, 0.03, 0.06, 0.12, 0.25];
    let result = noise::run(120, &sigmas).expect("noise sweep");
    println!("Ablation: programming-noise sensitivity (device runner)\n");
    let header: Vec<String> =
        ["programming sigma", "accuracy", "vs software"].iter().map(|s| s.to_string()).collect();
    let rows: Vec<Vec<String>> = result
        .rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.0}%", 100.0 * r.program_sigma),
                format!("{:.1}%", 100.0 * r.accuracy),
                format!("{:+.1} pts", 100.0 * (r.accuracy - result.software_accuracy)),
            ]
        })
        .collect();
    println!("{}", format_table(&header, &rows));
    println!("software reference: {:.1}%", 100.0 * result.software_accuracy);
    println!("(paper §III-D: real devices tune to ~1% isolated / ~3% in-crossbar)\n");

    let rates = [1.0 / 3600.0, 1.0 / 60.0, 1.0, 1000.0];
    let lifetime = endurance::run(&rates);
    println!("Endurance: FF-mat lifetime at 10^12 writes (paper §II-A)\n");
    let header: Vec<String> =
        ["reconfigurations", "lifetime"].iter().map(|s| s.to_string()).collect();
    let labels = ["hourly", "per minute", "per second", "1000/second"];
    let rows: Vec<Vec<String>> = lifetime
        .iter()
        .zip(labels)
        .map(|(r, label)| {
            vec![label.to_string(), format!("{:.1e} years", r.lifetime_years)]
        })
        .collect();
    println!("{}", format_table(&header, &rows));
    archive_json("ablation_noise", &to_json(&(result, lifetime)).expect("serializable result"));
}
