//! Quickstart: one FF mat computing a signed matrix-vector product in
//! memory, then the paper's Fig. 7 programming flow on an MLP.
//!
//! Run with: `cargo run --release --example quickstart`

use prime::compiler::{map_network, CompileOptions, HwTarget};
use prime::core::{FfMat, PrimeSystem};
use prime::mem::MatFunction;
use prime::nn::MlBench;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. A single full-function mat -----------------------------------
    // Program a 3x2 signed weight matrix (composed 8-bit weights across
    // adjacent 4-bit cells, sign via the positive/negative crossbar pair)
    // and evaluate composed 6-bit inputs.
    let mut mat = FfMat::new();
    mat.set_function(MatFunction::Program);
    #[rustfmt::skip]
    mat.program_composed(&[
        120, -80,
        -40,  60,
        200,  10,
    ], 3, 2)?;
    mat.set_function(MatFunction::Compute);
    let outputs = mat.compute(&[63, 10, 32])?;
    println!("FF mat outputs (composed, truncated): {outputs:?}");

    // --- 2. The Fig. 7 software/hardware flow ------------------------------
    let spec = MlBench::MlpS.spec();
    let mut network = spec.to_network()?;
    let mut rng = SmallRng::seed_from_u64(42);
    network.init_random(&mut rng); // stands in for offline training

    // Map_Topology: the compile-time NN-to-crossbar mapping (§IV-B).
    let mapping = map_network(&spec, &HwTarget::prime_default(), CompileOptions::default())?;
    println!(
        "mapped {}: {:?} scale, {} mats, {} bank(s) per copy, {} copies across memory",
        mapping.name,
        mapping.scale,
        mapping.base_mats,
        mapping.banks_per_copy,
        mapping.copies_across_memory
    );

    // Program_Weight + Config_Datapath: quantize and program copy 0,
    // calibrate its SA windows, verify the lowered command program, and
    // alias the copy onto every other bank.
    let input = vec![0.5f32; 784];
    let mut system = PrimeSystem::new(4, 2, 16, 4096);
    system.deploy(&network, &input)?;
    if let Some(stats) = system.deploy_stats() {
        println!(
            "deployed {} copies ({} unique tiles) in {:.1} ms",
            stats.copies, stats.unique_tiles, stats.wall_ms
        );
    }

    // Run: one batch through the Table I command stream, one input per bank.
    let outputs = system.infer_batch(&vec![input; 4])?;

    // Post_Proc: classification argmax.
    let output = &outputs[0];
    let class = (0..output.len()).fold(0, |best, i| if output[i] > output[best] { i } else { best });
    println!("inference produced {} outputs; argmax class {class}", output.len());
    println!("{} inferences served", system.stats().inferences);
    Ok(())
}
