//! Error type for the PRIME core architecture.

use std::fmt;

use prime_circuits::CircuitError;
use prime_device::DeviceError;
use prime_mem::MemError;
use prime_nn::NnError;

/// Errors raised by FF-subarray, controller, and runner operations.
#[derive(Debug, Clone, PartialEq)]
pub enum PrimeError {
    /// A device-layer failure.
    Device(DeviceError),
    /// A peripheral-circuit failure.
    Circuit(CircuitError),
    /// A memory-system failure.
    Mem(MemError),
    /// An NN-substrate failure.
    Nn(NnError),
    /// An operation was issued to a mat in the wrong function mode.
    WrongMode {
        /// What the operation required.
        expected: &'static str,
        /// The mat's current mode.
        found: &'static str,
    },
    /// The mapped weights do not fit the target mat.
    MatOverflow {
        /// Rows requested.
        rows: usize,
        /// Composed columns requested.
        cols: usize,
    },
    /// The buffer subarray ran out of space.
    BufferOverflow {
        /// Bytes requested.
        requested: u64,
        /// Bytes available.
        capacity: u64,
    },
    /// The runner was given a network/mapping pair that disagrees.
    MappingMismatch {
        /// Human-readable reason.
        reason: String,
    },
    /// The static deployment verifier refused the deployment.
    Rejected {
        /// The `Error`-severity diagnostics that blocked it.
        diagnostics: Vec<prime_analyze::Diagnostic>,
    },
    /// An internal invariant broke (a bug, not a user error).
    Internal {
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for PrimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrimeError::Device(e) => write!(f, "device error: {e}"),
            PrimeError::Circuit(e) => write!(f, "circuit error: {e}"),
            PrimeError::Mem(e) => write!(f, "memory error: {e}"),
            PrimeError::Nn(e) => write!(f, "nn error: {e}"),
            PrimeError::WrongMode { expected, found } => {
                write!(
                    f,
                    "mat is in {found} mode but the operation requires {expected}"
                )
            }
            PrimeError::MatOverflow { rows, cols } => {
                write!(f, "{rows}x{cols} weights do not fit one FF mat")
            }
            PrimeError::BufferOverflow {
                requested,
                capacity,
            } => {
                write!(f, "buffer needs {requested} bytes but holds {capacity}")
            }
            PrimeError::MappingMismatch { reason } => write!(f, "mapping mismatch: {reason}"),
            PrimeError::Rejected { diagnostics } => {
                write!(f, "deployment rejected by the static verifier:")?;
                for d in diagnostics {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
            PrimeError::Internal { reason } => write!(f, "internal invariant broke: {reason}"),
        }
    }
}

impl std::error::Error for PrimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PrimeError::Device(e) => Some(e),
            PrimeError::Circuit(e) => Some(e),
            PrimeError::Mem(e) => Some(e),
            PrimeError::Nn(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DeviceError> for PrimeError {
    fn from(e: DeviceError) -> Self {
        PrimeError::Device(e)
    }
}

impl From<CircuitError> for PrimeError {
    fn from(e: CircuitError) -> Self {
        PrimeError::Circuit(e)
    }
}

impl From<MemError> for PrimeError {
    fn from(e: MemError) -> Self {
        PrimeError::Mem(e)
    }
}

impl From<NnError> for PrimeError {
    fn from(e: NnError) -> Self {
        PrimeError::Nn(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_layer_errors_with_source() {
        let e = PrimeError::from(DeviceError::EnduranceExhausted { row: 0, col: 0 });
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().starts_with("device error"));
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Send + Sync + std::error::Error>() {}
        check::<PrimeError>();
    }
}
