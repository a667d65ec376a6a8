//! Peripheral circuit models for PRIME full-function (FF) subarrays.
//!
//! PRIME's key circuit idea is *reuse*: instead of adding DACs and ADCs
//! next to the memory's write drivers and sense amplifiers, the existing
//! peripheral circuits are extended to serve both functions (paper
//! §III-A). This crate models every added/modified block of Fig. 4:
//!
//! * [`WordlineDriver`] — multi-level voltage sources, input latch, and
//!   the memory/computation mode multiplexer (Fig. 4 A);
//! * [`ColumnMux`], [`SubtractionUnit`], [`SigmoidUnit`] — the modified
//!   column multiplexer with analog subtraction and bypassable sigmoid
//!   (Fig. 4 B);
//! * [`ReconfigurableSa`], [`PrecisionController`], [`ReluUnit`],
//!   [`MaxPoolUnit`] — the reconfigurable sense amplifier with its
//!   counter, precision-control register/adder, ReLU, and 4:1 max-pooling
//!   hardware (Fig. 4 C);
//! * [`ComposingScheme`] — the input-and-synapse composing arithmetic that
//!   overcomes the precision challenge (§III-D, Eqs. 2-9).
//!
//! # Examples
//!
//! Composing two 3-bit input signals and two 4-bit cells into a 6-bit x
//! 8-bit multiply, truncated to a 6-bit output exactly as the hardware
//! does:
//!
//! ```
//! use prime_circuits::{part_sums, ComposingScheme};
//!
//! let scheme = ComposingScheme::prime_default();
//! let inputs = vec![40u16; 16];
//! let weights = vec![100i32; 16];
//! let parts = part_sums(&scheme, &inputs, &weights, 1)?;
//! let exact = scheme.exact_target(scheme.full_from_parts(parts[0]));
//! let composed = scheme.compose(parts[0]);
//! assert!((exact - composed).abs() <= scheme.max_composition_error());
//! # Ok::<(), prime_circuits::CircuitError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activation;
mod column_mux;
mod compose;
mod driver;
mod error;
mod pooling;
mod sense_amp;

pub use activation::{ReluUnit, SigmoidUnit};
pub use column_mux::{ColumnMode, ColumnMux, SubtractionUnit};
pub use compose::{part_sums, ComposingScheme, Part, PartSums};
pub use driver::{DriverMode, WordlineDriver};
pub use error::CircuitError;
pub use pooling::{mean_pool_weights, MaxPoolUnit, MAX_POOL_DIFF_WEIGHTS};
pub use sense_amp::{PrecisionController, ReconfigurableSa, MAX_SA_BITS};
