//! Static analysis for the PRIME stack: a deployment verifier and a
//! repo-specific source lint sharing one diagnostics engine.
//!
//! PRIME's correctness hinges on invariants that used to live as
//! scattered runtime asserts — crossbar and precision budgets (paper
//! §III-A/§III-D), bank and FF-buffer capacity, strictly-increasing
//! contiguous pipeline stages (§IV-B), and the FF-subarray morphing
//! protocol (§IV-C). This crate checks them *statically*, before a
//! single cycle is simulated:
//!
//! * **Pass 1 — deployment verifier** ([`analyze`]): a pure function
//!   over a [`prime_nn::NetworkSpec`], a [`Target`], and a
//!   [`prime_compiler::NetworkMapping`] returning [`Diagnostic`]s.
//!   `PrimeSystem::deploy` refuses to deploy on any `Error`-severity
//!   finding.
//! * **Pass 2 — source lint** ([`lint_root`], `prime-lint` binary):
//!   token-level enforcement of the repo rules (no allocation in
//!   `*_into` hot kernels, no panic paths in non-test library code, no
//!   `unsafe` anywhere, no lossy `as` casts on the guarded datapath)
//!   with an allowlist for documented residue.
//! * **Pass 3 — program abstract interpretation** ([`analyze_program`]):
//!   interprets the lowered command program (the runner's planned-op
//!   stream) over four abstract domains — FF-buffer region dataflow,
//!   §III-D interval precision propagation, shared-tile aliasing, and
//!   stage-channel deadlock freedom. [`lower_layout`] is the one
//!   lowering of a network onto its banks: `CommandRunner` compiles
//!   exactly the plan it derives, and [`lower_program`] bounds that
//!   plan's shifts statically for workload audits. `PrimeSystem::deploy`
//!   gates on this pass like Pass 1.
//!
//! Diagnostics carry stable `P0xx` codes cataloged in DESIGN.md §10;
//! all passes render human-readable and JSON output in a canonical
//! deterministic order ([`sort_diagnostics`]).
//!
//! # Examples
//!
//! ```
//! use prime_analyze::{analyze, has_errors, Target};
//! use prime_compiler::{map_network, CompileOptions};
//! use prime_nn::MlBench;
//!
//! let spec = MlBench::MlpS.spec();
//! let target = Target::prime_default();
//! let mapping = map_network(&spec, &target.hw, CompileOptions::default())?;
//! let diags = analyze(&spec, &target, &mapping);
//! assert!(!has_errors(&diags), "the paper's own workloads must deploy");
//! # Ok::<(), prime_compiler::CompileError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod diag;
mod intervals;
mod lint;
mod program;
mod verify;

pub use diag::{
    has_errors, render_human, render_json, sort_diagnostics, unservable_model, Code,
    Diagnostic, Severity, Span,
};
pub use intervals::{
    check_intervals, propagate_intervals, static_shift, Interval, LayerInterval,
};
pub use lint::{lint_root, lint_source, AllowEntry, Allowlist};
pub use program::{
    analyze_program, lower_layout, lower_program, ProgramLayer, ProgramOp, ProgramPlan,
    ProgramStage, ProgramTile,
};
pub use verify::{
    analyze, check_pipeline, check_shared_layout, conv_staging, shared_layout, ConvStaging,
    SharedTileGroup, Target, CONV_RESIDENT_BUDGET_DIVISOR,
    LOW_UTILIZATION_THRESHOLD, WINDOW_IO_CHUNK_WORDS,
};
