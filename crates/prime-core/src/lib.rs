//! The PRIME core architecture (paper §III-§IV).
//!
//! Ties the substrates together into the paper's contribution: ReRAM
//! main-memory banks whose *full-function (FF) subarrays* morph between
//! normal storage and NN acceleration. The crate provides:
//!
//! * [`FfMat`] — a functional FF mat: positive/negative crossbar pair,
//!   multi-level wordline drivers, the composing scheme, reconfigurable
//!   sensing, and the ReLU/sigmoid/pooling output units;
//! * [`BufferSubarray`] — the FF-adjacent data buffer with its
//!   random-access connection unit and mat-to-mat bypass register;
//! * [`BankController`] — the Table I command interpreter and the
//!   §III-A2 morphing protocol (migrate -> program -> compute -> wrap up);
//! * [`CommandRunner`] — the execution engine: a network compiled into
//!   per-layer tiles, SA windows and requantization shifts, then run
//!   entirely through Table I commands, with ReLU or the column-mux
//!   sigmoid applied after the partial-sum merge;
//! * [`PrimeSystem`] — every bank behind one object: verified deployment,
//!   bank-parallel and pipelined batched inference, programming noise,
//!   and the OS runtime. With the compiler's `map_network` it is the
//!   Fig. 7 flow: `Map_Topology` (`map_network`), `Program_Weight` and
//!   `Config_Datapath` ([`PrimeSystem::deploy`]), `Run`
//!   ([`PrimeSystem::infer_batch`]), and `Post_Proc` (argmax of the
//!   outputs).
//!
//! # Examples
//!
//! ```
//! use prime_core::FfMat;
//! use prime_mem::MatFunction;
//!
//! // One FF mat computing a 3-input, 2-output signed dot product.
//! let mut mat = FfMat::new();
//! mat.set_function(MatFunction::Program);
//! mat.program_composed(&[10, -10, 20, 5, -30, 15], 3, 2)?;
//! mat.set_function(MatFunction::Compute);
//! let out = mat.compute(&[63, 0, 31])?;
//! assert_eq!(out.len(), 2);
//! # Ok::<(), prime_core::PrimeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
mod controller;
mod error;
mod ff_mat;
mod insitu;
mod runner;
mod search;
mod system;

pub use buffer::BufferSubarray;
pub use controller::BankController;
pub use error::PrimeError;
pub use ff_mat::{FfMat, MatDatapath, MatScratch};
pub use insitu::{InSituEpoch, InSituMlp};
pub use runner::{CommandRunner, ConvPhases, InferScratch};
pub use search::{
    search_mapping, CandidateCost, CandidateReport, CandidateVerdict, MappingCostModel,
    MappingSearch,
};
pub use system::{DeployStats, PrimeSystem, SystemStats};
