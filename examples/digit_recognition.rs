//! Handwritten-digit recognition end to end: offline training, the
//! Fig. 6-style precision check, and inference on the device runner —
//! software vs PRIME hardware accuracy side by side.
//!
//! Run with: `cargo run --release --example digit_recognition`

use prime::core::PrimeSystem;
use prime::nn::{
    evaluate, evaluate_quantized, train_sgd, Activation, DigitGenerator, FullyConnected, Layer,
    Network, TrainConfig, IMAGE_PIXELS, NUM_CLASSES,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = SmallRng::seed_from_u64(2016);
    let generator = DigitGenerator::default();
    let train_set = generator.dataset(1200, &mut rng);
    let test_set = generator.dataset(300, &mut rng);

    // Offline training (paper §IV-A: training happens off-line; the
    // resulting weights are programmed into FF mats).
    let mut net = Network::new(vec![
        Layer::Fc(FullyConnected::new(IMAGE_PIXELS, 48, Activation::Sigmoid)),
        Layer::Fc(FullyConnected::new(48, NUM_CLASSES, Activation::Identity)),
    ])?;
    net.init_random(&mut rng);
    let history = train_sgd(&mut net, &train_set, TrainConfig::quick(), &mut rng)?;
    for epoch in &history {
        println!(
            "epoch {}: loss {:.3}, train accuracy {:.1}%",
            epoch.epoch,
            epoch.mean_loss,
            100.0 * epoch.accuracy
        );
    }

    let float_acc = evaluate(&net, &test_set)?;
    println!("\nfloating-point test accuracy: {:.1}%", 100.0 * float_acc);

    // The paper's precision claim: 3-bit inputs and 3-bit weights suffice.
    for (ibits, wbits) in [(8, 8), (3, 3), (2, 2)] {
        let acc = evaluate_quantized(&net, &test_set, ibits, wbits)?;
        println!(
            "dynamic fixed point {ibits}-bit inputs / {wbits}-bit weights: {:.1}%",
            100.0 * acc
        );
    }

    // Deploy on the device runner (real crossbars, composing scheme,
    // truncating SAs, the column-mux sigmoid), calibrated on one training
    // image, and classify a slice of the test set.
    let mut system = PrimeSystem::new(4, 2, 8, 4096);
    system.deploy(&net, &train_set[0].pixels)?;
    let hw_subset = &test_set[..60];
    let inputs: Vec<Vec<f32>> = hw_subset.iter().map(|s| s.pixels.clone()).collect();
    let hw_outputs = system.infer_batch(&inputs)?;
    let mut hw_correct = 0;
    let mut sw_correct = 0;
    for (sample, hw_out) in hw_subset.iter().zip(&hw_outputs) {
        if argmax(hw_out) == sample.label {
            hw_correct += 1;
        }
        if argmax(&net.forward(&sample.pixels)?) == sample.label {
            sw_correct += 1;
        }
    }
    println!(
        "\nFF-mat hardware pipeline: {}/{} correct (software reference: {}/{})",
        hw_correct,
        hw_subset.len(),
        sw_correct,
        hw_subset.len()
    );
    if let Some(stats) = system.deploy_stats() {
        println!(
            "hardware: {} copies over {} unique tiles, deployed in {:.1} ms",
            stats.copies, stats.unique_tiles, stats.wall_ms
        );
    }
    Ok(())
}

fn argmax(v: &[f32]) -> usize {
    let mut best = 0;
    for (i, &x) in v.iter().enumerate() {
        if x > v[best] {
            best = i;
        }
    }
    best
}
