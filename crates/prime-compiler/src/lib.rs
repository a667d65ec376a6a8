//! Compile-time NN-to-crossbar mapping for PRIME (paper §IV-B).
//!
//! Lowers [`prime_nn::NetworkSpec`]s onto the FF-mat resources of a
//! [`HwTarget`]: small NNs are replicated to amortize peripheral latency,
//! medium NNs are split into mat tiles and merged with adds, and large
//! NNs are pipelined across banks with inter-bank communication. The
//! resulting [`NetworkMapping`] drives both the device command runner
//! (`prime-core`) and the performance/energy simulator (`prime-sim`).
//!
//! # Examples
//!
//! ```
//! use prime_compiler::{map_network, CompileOptions, HwTarget};
//! use prime_nn::MlBench;
//!
//! let hw = HwTarget::prime_default();
//! let mapping = map_network(&MlBench::VggD.spec(), &hw, CompileOptions::default())?;
//! assert!(mapping.banks_per_copy > 1); // VGG-D needs the inter-bank pipeline
//! # Ok::<(), prime_compiler::CompileError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod mapping;
mod placement;
mod target;

pub use error::CompileError;
pub use mapping::{
    enumerate_candidates, lower_layer, map_network, pipeline_credits, tile_spans, weight_matrix,
    CompileOptions, LayerMapping, LayoutFootprint, NetworkMapping, NnScale, Objective,
    PipelineStage,
};
pub use placement::ImagePlacement;
pub use target::HwTarget;
