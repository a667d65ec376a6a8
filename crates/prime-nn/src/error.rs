//! Error type for the neural-network substrate.

use std::fmt;

/// Errors raised by tensor, layer, and network operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NnError {
    /// Tensor shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// What the operation expected.
        expected: Vec<usize>,
        /// What it received.
        got: Vec<usize>,
    },
    /// A layer received an input whose element count does not match.
    BadInput {
        /// Layer description.
        layer: String,
        /// Expected element count.
        expected: usize,
        /// Received element count.
        got: usize,
    },
    /// A quantization format parameter is invalid.
    BadFormat {
        /// Human-readable reason.
        reason: &'static str,
    },
    /// The network has no layers or is otherwise malformed.
    EmptyNetwork,
    /// A layer's shape computes nothing: a conv kernel that is zero or
    /// wider than its padded input, or a zero pooling window.
    DegenerateLayer {
        /// The offending layer's description.
        layer: String,
        /// Human-readable reason.
        reason: &'static str,
    },
    /// Training was asked to run on a network containing a layer without
    /// gradient support.
    Untrainable {
        /// The offending layer's description.
        layer: String,
    },
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::ShapeMismatch { expected, got } => {
                write!(f, "shape mismatch: expected {expected:?}, got {got:?}")
            }
            NnError::BadInput { layer, expected, got } => {
                write!(f, "layer {layer} expected {expected} inputs, got {got}")
            }
            NnError::BadFormat { reason } => write!(f, "bad quantization format: {reason}"),
            NnError::EmptyNetwork => write!(f, "network has no layers"),
            NnError::DegenerateLayer { layer, reason } => {
                write!(f, "layer {layer} is degenerate: {reason}")
            }
            NnError::Untrainable { layer } => {
                write!(f, "layer {layer} does not support training")
            }
        }
    }
}

impl std::error::Error for NnError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = NnError::BadInput { layer: "fc 784-500".into(), expected: 784, got: 100 };
        assert_eq!(e.to_string(), "layer fc 784-500 expected 784 inputs, got 100");
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Send + Sync + std::error::Error>() {}
        check::<NnError>();
    }
}
