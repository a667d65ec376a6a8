//! Standalone PRIME inference server.
//!
//! Deploys the standard MLP-M-class and CNN-1-class registry and serves
//! the length-prefixed binary protocol until SIGINT kills the process
//! (the library's graceful drain is exercised in-process by
//! `prime-benchmark`'s served workloads and the loopback integration
//! test; a bare foreground server has nothing to drain into).
//!
//! ```text
//! prime-serve [--addr 127.0.0.1:7741] [--max-batch 8] [--queue-bound 256]
//! ```
//!
//! Each model's dispatcher runs whatever is queued, up to `--max-batch`
//! jobs, as soon as it is free.

use prime_device::NoiseModel;
use prime_serve::workloads::standard_registry;
use prime_serve::{BatchConfig, Server};

fn arg_value(argv: &[String], flag: &str) -> Option<String> {
    argv.iter()
        .position(|a| a == flag)
        .map(|i| argv.get(i + 1).unwrap_or_else(|| panic!("{flag} takes a value")).clone())
}

fn parsed<T: std::str::FromStr>(argv: &[String], flag: &str, default: T) -> T
where
    T::Err: std::fmt::Display,
{
    match arg_value(argv, flag) {
        Some(text) => text
            .parse()
            .unwrap_or_else(|e| panic!("{flag} {text} does not parse: {e}")),
        None => default,
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let addr = arg_value(&argv, "--addr").unwrap_or_else(|| "127.0.0.1:7741".to_string());
    let defaults = BatchConfig::default_online();
    let config = BatchConfig {
        max_batch: parsed(&argv, "--max-batch", defaults.max_batch),
        queue_bound: parsed(&argv, "--queue-bound", defaults.queue_bound),
        ..defaults
    };

    println!(
        "deploying standard registry (batches of up to {} reqs, queue bound {})...",
        config.max_batch, config.queue_bound
    );
    let registry = standard_registry(config, NoiseModel::default())
        .unwrap_or_else(|e| panic!("registry failed to deploy: {e}"));
    for entry in registry.registration_log() {
        println!("{entry}");
    }
    println!("models: {}", registry.model_names().join(", "));

    let server = Server::bind(addr.as_str(), registry)
        .unwrap_or_else(|e| panic!("cannot bind {addr}: {e}"));
    let local = server.local_addr().expect("bound socket has an address");
    println!("serving on {local}");
    match server.run() {
        Ok(stats) => println!("server stopped: {stats:?}"),
        Err(e) => {
            eprintln!("server failed: {e}");
            std::process::exit(1);
        }
    }
}
