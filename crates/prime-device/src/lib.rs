//! Behavioural ReRAM device models for the PRIME reproduction.
//!
//! This crate is the lowest substrate of the PRIME (ISCA 2016) stack: it
//! models metal-oxide ReRAM cells, their multi-level (MLC) resistance
//! encoding, and the crossbar arrays whose bitline current summation
//! performs analog matrix-vector multiplication — the primitive every
//! higher layer (peripheral circuits, FF subarrays, the mapping compiler,
//! and the evaluation simulator) builds on.
//!
//! # Examples
//!
//! Programming signed synaptic weights into a positive/negative crossbar
//! pair and evaluating a quantized dot product, exactly as an FF mat does:
//!
//! ```
//! use prime_device::{MlcSpec, PairedCrossbar};
//!
//! let mut mat = PairedCrossbar::new(3, 2, MlcSpec::new(4)?);
//! mat.program_signed_matrix(&[
//!     2, -1,
//!     0, 4,
//!     -3, 1,
//! ])?;
//! let bitline_sums = mat.dot_signed(&[1, 2, 1])?;
//! assert_eq!(bitline_sums, vec![1 * 2 - 1 * 3, -1 + 2 * 4 + 1]);
//! # Ok::<(), prime_device::DeviceError>(())
//! ```
//!
//! # Scratch-buffer contract
//!
//! Every dot-product kernel has an allocating form (`dot`, `dot_analog`,
//! `dot_signed`, `dot_signed_analog`, `dot_attenuated`) and an `*_into`
//! form writing into caller-owned buffers ([`Crossbar::dot_into`],
//! [`Crossbar::dot_analog_into`], [`PairedCrossbar::dot_signed_into`],
//! [`PairedCrossbar::dot_signed_analog_into`],
//! [`IrDropModel::dot_attenuated_into`]). The `*_into` forms share one
//! contract:
//!
//! * Output buffers are **cleared and resized** to the kernel's column
//!   count — callers never need to pre-size them, and stale contents are
//!   never read.
//! * Buffers only ever **grow**. After the first call at a given
//!   geometry, repeated calls perform **zero heap allocation**; this is
//!   what the batched inference engine in `prime-core` relies on for its
//!   steady-state allocation-free guarantee.
//! * On error the output buffer contents are unspecified (but the buffer
//!   stays valid for reuse).
//! * The two forms are **bit-identical**: `dot(x)` equals the buffer
//!   `dot_into(x, &mut out)` produces, RNG draw for RNG draw on the
//!   analog paths.
//!
//! [`PairScratch`] bundles the per-polarity bitline currents the paired
//! analog kernel needs, so callers hold a single reusable object. The
//! paired digital kernel sweeps both polarity arrays at once and needs
//! no intermediate. A cell stores its level in one byte (MLC is at most
//! 8 bits), and [`PairedCrossbar::signed_plane`] derives the pair's
//! composed `p - n` levels as one `i16` plane, the form an FF mat keeps
//! for digital evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cell;
mod crossbar;
mod energy;
mod error;
mod ir_drop;
mod mlc;
mod noise;
mod timing;

pub use cell::{ReramCell, DEFAULT_ENDURANCE_WRITES, RESET_VOLTAGE_V, SET_VOLTAGE_V};
pub use crossbar::{Crossbar, PairScratch, PairedCrossbar, MAT_DIM, READ_VOLTAGE_V};
pub use energy::DeviceEnergy;
pub use error::DeviceError;
pub use ir_drop::IrDropModel;
pub use mlc::{MlcSpec, DEFAULT_R_OFF_OHM, DEFAULT_R_ON_OHM};
pub use noise::NoiseModel;
pub use timing::DeviceTiming;
