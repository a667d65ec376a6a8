//! Column multiplexer with analog subtraction and sigmoid (paper Fig. 4 B).
//!
//! In computation mode the modified column multiplexer routes the paired
//! positive/negative bitline currents into an analog subtraction unit and
//! then (unless bypassed) into the sigmoid unit, before local SA sensing.
//! In memory mode the analog units are bypassed entirely. One set of this
//! circuitry serves a positive/negative crossbar pair, so only half of the
//! column multiplexers need modification.

use serde::{Deserialize, Serialize};

use crate::activation::SigmoidUnit;
use crate::error::CircuitError;
use crate::sense_amp::ReconfigurableSa;

/// Routing mode of the column multiplexer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ColumnMode {
    /// Bitlines connect straight to the memory sense path.
    Memory,
    /// Bitlines route through subtraction (and optionally sigmoid).
    Computation,
}

/// The analog subtraction unit: difference of the positive- and
/// negative-array results for one output neuron.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubtractionUnit;

impl SubtractionUnit {
    /// Creates the unit.
    pub fn new() -> Self {
        SubtractionUnit
    }

    /// Subtracts the negative-array accumulation from the positive one.
    pub fn subtract(&self, positive: u64, negative: u64) -> i64 {
        positive as i64 - negative as i64
    }
}

/// The computation-mode output path: subtraction -> sigmoid -> SA.
///
/// This composes the peripheral pieces exactly as Fig. 5(a)'s dataflow
/// does: positive and negative bitline results are subtracted, the
/// difference passes the (bypassable) sigmoid, and the SA converts the
/// analog value to a digital code.
///
/// # Examples
///
/// ```
/// use prime_circuits::{ColumnMux, ColumnMode};
///
/// let mut mux = ColumnMux::new(6, 64.0)?;
/// mux.set_mode(ColumnMode::Computation);
/// mux.sigmoid_mut().set_bypass(true);
/// // pos - neg = 40; bypassed sigmoid passes it to the 6-bit SA.
/// assert_eq!(mux.process(100, 60)?, 40);
/// # Ok::<(), prime_circuits::CircuitError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnMux {
    mode: ColumnMode,
    subtraction: SubtractionUnit,
    sigmoid: SigmoidUnit,
    sa: ReconfigurableSa,
}

impl ColumnMux {
    /// Creates a computation output path with an `out_bits`-bit SA and a
    /// sigmoid of the given input scale. Starts in memory mode.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::PrecisionOutOfRange`] for an invalid SA
    /// width.
    pub fn new(out_bits: u8, sigmoid_scale: f64) -> Result<Self, CircuitError> {
        // The SA refuses a bad width with an error; check it before the
        // sigmoid, which panics on one.
        let sa = ReconfigurableSa::new(out_bits)?;
        Ok(ColumnMux {
            mode: ColumnMode::Memory,
            subtraction: SubtractionUnit::new(),
            sigmoid: SigmoidUnit::new(out_bits, sigmoid_scale),
            sa,
        })
    }

    /// Current routing mode.
    pub fn mode(&self) -> ColumnMode {
        self.mode
    }

    /// Switches between memory and computation routing.
    pub fn set_mode(&mut self, mode: ColumnMode) {
        self.mode = mode;
    }

    /// The sigmoid unit, for bypass control.
    pub fn sigmoid_mut(&mut self) -> &mut SigmoidUnit {
        &mut self.sigmoid
    }

    /// The sense amplifier, for precision control.
    pub fn sa_mut(&mut self) -> &mut ReconfigurableSa {
        &mut self.sa
    }

    /// The sense amplifier.
    pub fn sa(&self) -> &ReconfigurableSa {
        &self.sa
    }

    /// Runs the computation path on a pair of bitline accumulations and
    /// returns the digital output code.
    ///
    /// With the sigmoid active, its output is already an SA-width code.
    /// With the sigmoid bypassed, the signed difference is clamped at zero
    /// (negative analog values do not drive the SA) and saturated at the SA
    /// ceiling; callers needing signed partial sums read the subtraction
    /// result via [`subtract`](Self::subtract) instead.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::PrecisionOutOfRange`] if the path is used in
    /// memory mode (a datapath-configuration bug).
    pub fn process(&self, positive: u64, negative: u64) -> Result<u64, CircuitError> {
        if self.mode != ColumnMode::Computation {
            return Err(CircuitError::PrecisionOutOfRange {
                requested: 0,
                max: self.sa.max_bits(),
            });
        }
        let diff = self.subtraction.subtract(positive, negative);
        let activated = self.sigmoid.apply(diff);
        self.sa.convert(activated, self.sa.precision())
    }

    /// Raw signed subtraction, used when results feed the precision
    /// controller (split NNs, composing scheme) rather than an activation.
    pub fn subtract(&self, positive: u64, negative: u64) -> i64 {
        self.subtraction.subtract(positive, negative)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subtraction_is_signed() {
        let s = SubtractionUnit::new();
        assert_eq!(s.subtract(10, 3), 7);
        assert_eq!(s.subtract(3, 10), -7);
    }

    #[test]
    fn new_refuses_an_sa_width_above_8_bits() {
        assert!(matches!(
            ColumnMux::new(9, 64.0),
            Err(CircuitError::PrecisionOutOfRange { requested: 9, max: 8 })
        ));
        assert!(ColumnMux::new(0, 64.0).is_err());
        assert!(ColumnMux::new(8, 64.0).is_ok());
    }

    #[test]
    fn process_requires_computation_mode() {
        let mux = ColumnMux::new(6, 64.0).unwrap();
        assert!(mux.process(1, 0).is_err());
    }

    #[test]
    fn process_with_sigmoid_produces_mid_code_at_zero() {
        let mut mux = ColumnMux::new(6, 64.0).unwrap();
        mux.set_mode(ColumnMode::Computation);
        assert_eq!(mux.process(50, 50).unwrap(), 32);
    }

    #[test]
    fn process_bypassed_clamps_negative_to_zero() {
        let mut mux = ColumnMux::new(6, 64.0).unwrap();
        mux.set_mode(ColumnMode::Computation);
        mux.sigmoid_mut().set_bypass(true);
        assert_eq!(mux.process(3, 10).unwrap(), 0);
        assert_eq!(mux.process(10, 3).unwrap(), 7);
    }

    #[test]
    fn process_saturates_at_sa_ceiling() {
        let mut mux = ColumnMux::new(4, 64.0).unwrap();
        mux.set_mode(ColumnMode::Computation);
        mux.sigmoid_mut().set_bypass(true);
        assert_eq!(mux.process(1000, 0).unwrap(), 15);
    }
}
