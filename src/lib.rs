//! # PRIME — processing in ReRAM-based main memory
//!
//! A from-scratch Rust reproduction of *PRIME: A Novel
//! Processing-in-Memory Architecture for Neural Network Computation in
//! ReRAM-Based Main Memory* (Chi et al., ISCA 2016).
//!
//! PRIME turns part of a ReRAM main memory into a neural-network
//! accelerator: *full-function (FF) subarrays* morph between ordinary
//! storage and analog matrix-vector computation, reusing the memory's own
//! peripheral circuits instead of adding a processor. This crate is a
//! façade re-exporting the whole stack:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`device`] | `prime-device` | ReRAM cells, MLC encoding, crossbar arrays |
//! | [`circuits`] | `prime-circuits` | drivers, reconfigurable SAs, sigmoid/ReLU/pooling, the precision composing scheme |
//! | [`mem`] | `prime-mem` | memory geometry, timing, Table I commands, OS runtime |
//! | [`nn`] | `prime-nn` | tensors, dynamic fixed point, layers, training, MlBench workloads |
//! | [`compiler`] | `prime-compiler` | NN-to-crossbar mapping (replication / split-merge / inter-bank) |
//! | [`core`] | `prime-core` | FF mats, Buffer subarrays, the PRIME controller, the command runner, `PrimeSystem` |
//! | [`serve`] | `prime-serve` | TCP inference serving: wire protocol, batch collector, admission control, load bencher |
//! | [`sim`] | `prime-sim` | machine models and the figure-regeneration experiments |
//!
//! # Examples
//!
//! The stages of the paper's Fig. 7 software/hardware interface, as
//! direct calls:
//!
//! ```no_run
//! use prime::compiler::{map_network, CompileOptions, HwTarget};
//! use prime::core::PrimeSystem;
//! use prime::nn::MlBench;
//!
//! let spec = MlBench::MlpS.spec();
//! let network = spec.to_network()?; // weights would come from offline training
//!
//! // Map_Topology: the compile-time NN-to-crossbar mapping.
//! let mapping = map_network(&spec, &HwTarget::prime_default(), CompileOptions::default())?;
//! // Program_Weight + Config_Datapath: program, calibrate and verify.
//! let mut system = PrimeSystem::new(4, 2, 16, 4096);
//! system.deploy(&network, &vec![0.5; 784])?;
//! // Run: inference through the Table I command stream.
//! let outputs = system.infer_batch(&[vec![0.5; 784]])?;
//! // Post_Proc: classification argmax.
//! let out = &outputs[0];
//! let class = (0..out.len()).fold(0, |best, i| if out[i] > out[best] { i } else { best });
//! println!("{} mats per copy, class {class}", mapping.base_mats);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use prime_analyze as analyze;
pub use prime_circuits as circuits;
pub use prime_compiler as compiler;
pub use prime_core as core;
pub use prime_device as device;
pub use prime_mem as mem;
pub use prime_nn as nn;
pub use prime_serve as serve;
pub use prime_sim as sim;
