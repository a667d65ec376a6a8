//! The repo benchmark: four seeded PRIME workloads measured end to end
//! and, in a separate traced run, layer by layer.
//!
//! * [`workloads`] — what each workload runs and reports;
//! * [`load`] — the open-loop driver (one connection, many requests in
//!   flight, latency from the scheduled send time);
//! * `layers` — per-layer probes that time calls into each layer's
//!   public functions from outside;
//! * `check` — bit-for-bit output checking and the failure tally;
//! * [`catalog`] — metric names, units, directions and bounds (mirrored
//!   by `BENCHMARK.json`);
//! * [`report`] / [`spans`] / [`stats`] — the result line, the traced
//!   spans file, and the order statistics behind both.
//!
//! The `prime-benchmark` binary is the command line; the crate README
//! documents the workloads, metrics and time budget.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
mod check;
mod layers;
pub mod load;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workloads;
