//! Analog activation circuitry: the sigmoid unit in the column multiplexer
//! (paper Fig. 4 B) and the ReLU unit next to the SA (paper Fig. 4 C).
//!
//! Both units can be bypassed — the sigmoid when a large NN is split
//! across multiple crossbars (the non-linearity must only be applied after
//! the split partial sums are merged), and the ReLU when a layer has no
//! rectification.

use serde::{Deserialize, Serialize};

use crate::sense_amp::MAX_SA_BITS;

/// The analog sigmoid unit \[63\].
///
/// Digitally, the unit maps a signed accumulation to an unsigned
/// `out_bits`-bit code approximating `(2^out_bits - 1) * sigmoid(x / scale)`.
/// `scale` sets the input range mapped onto the sigmoid's linear region;
/// a piecewise-linear circuit implements it in silicon, which the model
/// reflects by quantizing to the output code grid.
///
/// # Examples
///
/// ```
/// use prime_circuits::SigmoidUnit;
///
/// let unit = SigmoidUnit::new(6, 64.0);
/// assert_eq!(unit.apply(0), 32);        // sigmoid(0) = 0.5 -> mid-code
/// assert!(unit.apply(1_000) >= 62);     // saturates high
/// assert!(unit.apply(-1_000) <= 1);     // saturates low
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SigmoidUnit {
    out_bits: u8,
    scale: f64,
    bypass: bool,
}

impl SigmoidUnit {
    /// Creates a sigmoid unit producing `out_bits`-bit codes with input
    /// scaling `scale` (the accumulation value mapped to sigmoid argument
    /// 1.0).
    ///
    /// # Panics
    ///
    /// Panics if `out_bits` is 0 or above [`MAX_SA_BITS`], or `scale` is
    /// not positive.
    pub fn new(out_bits: u8, scale: f64) -> Self {
        assert!((1..=MAX_SA_BITS).contains(&out_bits), "sigmoid output must be 1-8 bits");
        assert!(scale > 0.0, "sigmoid input scale must be positive");
        SigmoidUnit { out_bits, scale, bypass: false }
    }

    /// Output resolution in bits.
    pub fn out_bits(&self) -> u8 {
        self.out_bits
    }

    /// Whether the unit is currently bypassed.
    pub fn is_bypassed(&self) -> bool {
        self.bypass
    }

    /// Sets the bypass switch (`bypass sigmoid` controller command).
    pub fn set_bypass(&mut self, bypass: bool) {
        self.bypass = bypass;
    }

    /// Applies the sigmoid (or passes through when bypassed, clamped to the
    /// non-negative output grid).
    pub fn apply(&self, x: i64) -> u64 {
        let max = (1u64 << self.out_bits) - 1;
        if self.bypass {
            return x.clamp(0, max as i64) as u64;
        }
        let s = 1.0 / (1.0 + (-(x as f64) / self.scale).exp());
        (s * max as f64).round() as u64
    }
}

/// The ReLU unit supporting CNN convolution layers (paper Fig. 4 C).
///
/// The circuit checks the sign bit of the result: it outputs zero when the
/// sign bit is negative and the result itself otherwise.
///
/// # Examples
///
/// ```
/// use prime_circuits::ReluUnit;
///
/// let relu = ReluUnit::new();
/// assert_eq!(relu.apply(17), 17);
/// assert_eq!(relu.apply(-4), 0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReluUnit {
    bypass: bool,
}

impl ReluUnit {
    /// Creates an active (non-bypassed) ReLU unit.
    pub fn new() -> Self {
        ReluUnit { bypass: false }
    }

    /// Whether the unit is currently bypassed.
    pub fn is_bypassed(&self) -> bool {
        self.bypass
    }

    /// Sets the bypass switch.
    pub fn set_bypass(&mut self, bypass: bool) {
        self.bypass = bypass;
    }

    /// Applies `max(x, 0)`, or passes through when bypassed.
    pub fn apply(&self, x: i64) -> i64 {
        if self.bypass {
            x
        } else {
            x.max(0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_is_monotonic() {
        let unit = SigmoidUnit::new(6, 32.0);
        let mut prev = unit.apply(-200);
        for x in (-200..=200).step_by(10) {
            let y = unit.apply(x);
            assert!(y >= prev, "sigmoid not monotonic at {x}");
            prev = y;
        }
    }

    #[test]
    fn sigmoid_midpoint_and_saturation() {
        let unit = SigmoidUnit::new(6, 64.0);
        assert_eq!(unit.apply(0), 32);
        assert_eq!(unit.apply(100_000), 63);
        assert_eq!(unit.apply(-100_000), 0);
    }

    #[test]
    fn sigmoid_bypass_passes_through_clamped() {
        let mut unit = SigmoidUnit::new(4, 8.0);
        unit.set_bypass(true);
        assert_eq!(unit.apply(5), 5);
        assert_eq!(unit.apply(-5), 0);
        assert_eq!(unit.apply(99), 15);
    }

    #[test]
    fn sigmoid_symmetry_around_midpoint() {
        let unit = SigmoidUnit::new(8, 40.0);
        let hi = unit.apply(30) as i64;
        let lo = unit.apply(-30) as i64;
        assert_eq!(hi + lo, 255);
    }

    #[test]
    fn relu_clamps_negatives_only() {
        let relu = ReluUnit::new();
        assert_eq!(relu.apply(0), 0);
        assert_eq!(relu.apply(123), 123);
        assert_eq!(relu.apply(-123), 0);
    }

    #[test]
    fn relu_bypass_is_identity() {
        let mut relu = ReluUnit::new();
        relu.set_bypass(true);
        assert_eq!(relu.apply(-7), -7);
    }
}
