//! Reconfigurable sense amplifier (paper Fig. 4 C).
//!
//! Memory reads need 1-bit sensing; NN computation needs much higher
//! precision. PRIME adopts a fabrication-tested `Po`-bit (`Po <= 8`)
//! reconfigurable SA whose effective precision can be set anywhere from
//! 1 bit up to `Po` bits, controlled by a counter. A precision-control
//! circuit (register + adder) lets low-precision cells produce
//! high-precision results by accumulating shifted partial sums — the
//! hardware half of the input-and-synapse composing scheme.

use serde::{Deserialize, Serialize};

use crate::error::CircuitError;

/// The widest code the reconfigurable SA senses, in bits (the paper's
/// fabrication-tested `Po <= 8`). The sigmoid unit and the composing
/// scheme's output width share this ceiling.
pub const MAX_SA_BITS: u8 = 8;

/// The reconfigurable sense amplifier.
///
/// Converting a full-precision bitline accumulation to an `n`-bit digital
/// output means keeping its highest `n` bits, i.e. right-shifting by
/// `full_bits - n` — exactly how the paper defines the target result
/// (Eq. 3). The SA also saturates: a result wider than `full_bits`
/// clamps at the maximum code.
///
/// # Examples
///
/// ```
/// use prime_circuits::ReconfigurableSa;
///
/// let mut sa = ReconfigurableSa::new(6)?; // PRIME's 6-bit SA
/// sa.set_precision(6)?;
/// // A 13-bit-wide accumulation sensed at 6 bits keeps the top 6 bits:
/// assert_eq!(sa.convert(0b1_0110_1011_0111, 13)?, 0b101101);
/// # Ok::<(), prime_circuits::CircuitError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReconfigurableSa {
    max_bits: u8,
    precision: u8,
}

impl ReconfigurableSa {
    /// Creates an SA with a maximum precision of `max_bits`
    /// (1..=[`MAX_SA_BITS`]), initially configured at full precision.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::PrecisionOutOfRange`] if `max_bits` is 0 or
    /// greater than [`MAX_SA_BITS`].
    pub fn new(max_bits: u8) -> Result<Self, CircuitError> {
        if max_bits == 0 || max_bits > MAX_SA_BITS {
            return Err(CircuitError::PrecisionOutOfRange {
                requested: max_bits,
                max: MAX_SA_BITS,
            });
        }
        Ok(ReconfigurableSa { max_bits, precision: max_bits })
    }

    /// Maximum supported precision in bits.
    pub fn max_bits(&self) -> u8 {
        self.max_bits
    }

    /// Currently configured precision in bits.
    pub fn precision(&self) -> u8 {
        self.precision
    }

    /// Reconfigures the effective precision (1 to `max_bits` bits).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::PrecisionOutOfRange`] for 0 or a value above
    /// `max_bits`.
    pub fn set_precision(&mut self, bits: u8) -> Result<(), CircuitError> {
        if bits == 0 || bits > self.max_bits {
            return Err(CircuitError::PrecisionOutOfRange { requested: bits, max: self.max_bits });
        }
        self.precision = bits;
        Ok(())
    }

    /// Largest output code at the current precision.
    pub fn max_code(&self) -> u64 {
        (1u64 << self.precision) - 1
    }

    /// Converts a non-negative full-precision accumulation whose value is
    /// known to fit in `full_bits` bits, keeping the highest
    /// `precision` bits (right shift by `full_bits - precision`).
    ///
    /// Values that overflow `full_bits` saturate at the maximum code,
    /// mirroring an SA driven past its reference ladder.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::PrecisionOutOfRange`] if `full_bits` is
    /// smaller than the configured precision or larger than 63.
    pub fn convert(&self, full_result: u64, full_bits: u8) -> Result<u64, CircuitError> {
        if full_bits < self.precision || full_bits > 63 {
            return Err(CircuitError::PrecisionOutOfRange {
                requested: full_bits,
                max: self.max_bits,
            });
        }
        let shift = full_bits - self.precision;
        Ok((full_result >> shift).min(self.max_code()))
    }

    /// Memory-mode 1-bit sensing of a bitline: threshold at half the
    /// full-scale value.
    pub fn sense_bit(&self, full_result: u64, full_bits: u8) -> bool {
        full_result >= (1u64 << (full_bits - 1))
    }

    /// Number of sequential conversion steps the counter performs at the
    /// current precision (one per output bit).
    pub fn conversion_steps(&self) -> u8 {
        self.precision
    }
}

/// The precision-control circuit: a register and adder that accumulate
/// shifted partial results so low-precision cells can produce a
/// high-precision weight (paper Fig. 4 C, §III-D).
///
/// # Examples
///
/// ```
/// use prime_circuits::PrecisionController;
///
/// let mut acc = PrecisionController::new();
/// acc.accumulate(5, 4);  // 5 * 2^4
/// acc.accumulate(3, 0);  // + 3
/// assert_eq!(acc.value(), 83);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrecisionController {
    register: i64,
}

impl PrecisionController {
    /// Creates a cleared accumulator register.
    pub fn new() -> Self {
        PrecisionController { register: 0 }
    }

    /// Adds `partial * 2^shift` to the register.
    pub fn accumulate(&mut self, partial: i64, shift: u8) {
        self.register += partial << shift;
    }

    /// Adds `partial >> shift` (arithmetic shift, floor semantics) to the
    /// register — the "take the highest bits" step of the composing scheme.
    pub fn accumulate_truncated(&mut self, partial: i64, shift: u8) {
        self.register += partial >> shift;
    }

    /// The accumulated value.
    pub fn value(&self) -> i64 {
        self.register
    }

    /// Clears the register for the next output.
    pub fn clear(&mut self) {
        self.register = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_invalid_widths() {
        assert!(ReconfigurableSa::new(0).is_err());
        assert!(ReconfigurableSa::new(9).is_err());
        assert!(ReconfigurableSa::new(8).is_ok());
    }

    #[test]
    fn precision_is_reconfigurable_within_range() {
        let mut sa = ReconfigurableSa::new(6).unwrap();
        for p in 1..=6 {
            sa.set_precision(p).unwrap();
            assert_eq!(sa.precision(), p);
            assert_eq!(sa.conversion_steps(), p);
        }
        assert!(sa.set_precision(7).is_err());
        assert!(sa.set_precision(0).is_err());
    }

    #[test]
    fn convert_keeps_highest_bits() {
        let mut sa = ReconfigurableSa::new(8).unwrap();
        sa.set_precision(4).unwrap();
        // 12-bit value 0b1010_1111_0001 -> top 4 bits 0b1010.
        assert_eq!(sa.convert(0b1010_1111_0001, 12).unwrap(), 0b1010);
    }

    #[test]
    fn convert_at_equal_width_is_identity_below_saturation() {
        let sa = ReconfigurableSa::new(6).unwrap();
        assert_eq!(sa.convert(42, 6).unwrap(), 42);
    }

    #[test]
    fn convert_saturates_on_overflow() {
        let sa = ReconfigurableSa::new(6).unwrap();
        // 200 does not fit in 6 bits at shift 0: clamps to 63.
        assert_eq!(sa.convert(200, 6).unwrap(), 63);
    }

    #[test]
    fn convert_rejects_narrower_full_width() {
        let sa = ReconfigurableSa::new(6).unwrap();
        assert!(sa.convert(1, 5).is_err());
    }

    #[test]
    fn sense_bit_thresholds_at_half_scale() {
        let sa = ReconfigurableSa::new(6).unwrap();
        assert!(!sa.sense_bit(127, 8));
        assert!(sa.sense_bit(128, 8));
    }

    #[test]
    fn controller_accumulates_shifted_parts() {
        let mut acc = PrecisionController::new();
        acc.accumulate(1, 8);
        acc.accumulate(-3, 2);
        assert_eq!(acc.value(), 256 - 12);
        acc.accumulate_truncated(-7, 1);
        assert_eq!(acc.value(), 256 - 12 - 4); // -7 >> 1 == -4 (floor)
        acc.clear();
        assert_eq!(acc.value(), 0);
    }
}
