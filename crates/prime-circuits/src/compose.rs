//! The input and synapse composing scheme (paper §III-D, Eqs. 2-9).
//!
//! With practical technology assumptions — 3-bit input voltages, 4-bit MLC
//! cells, a 6-bit reconfigurable SA — PRIME reaches higher effective
//! precision by composition: two 3-bit input signals form one `Pin = 6`-bit
//! input, and two 4-bit cells (in adjacent bitlines) form one `Pw = 8`-bit
//! synaptic weight. A full-accuracy crossbar result would carry
//! `Pin + Pw + PN` bits (Eq. 2, with `2^PN` inputs per array); the target
//! output keeps its highest `Po` bits (Eq. 3).
//!
//! Splitting inputs and weights into HIGH/LOW halves (Eqs. 4-5) decomposes
//! the full result into four partial dot products — HH, HL, LH, LL — with
//! binary weights `2^((Pin+Pw)/2)`, `2^(Pw/2)`, `2^(Pin/2)`, `2^0`
//! (Eqs. 6-8). The hardware computes the parts sequentially, truncates
//! each to its significant bits via the reconfigurable SA, and accumulates
//! them with the precision-control adder (Eq. 9). Parts whose kept-bit
//! count would be non-positive (LL under the default assumptions) are
//! skipped.

use serde::{Deserialize, Serialize};

use crate::error::CircuitError;
use crate::sense_amp::MAX_SA_BITS;

/// The four partial dot products of a composed evaluation.
///
/// Each field is the full-precision (signed, after positive/negative array
/// subtraction) accumulation of one input-half x weight-half combination.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartSums {
    /// HIGH input half x HIGH weight half.
    pub hh: i64,
    /// LOW input half x HIGH weight half.
    pub hl: i64,
    /// HIGH input half x LOW weight half.
    pub lh: i64,
    /// LOW input half x LOW weight half.
    pub ll: i64,
}

/// Identifies one of the four composing parts, in the order the hardware
/// evaluates them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Part {
    /// HIGH x HIGH.
    Hh,
    /// LOW x HIGH.
    Hl,
    /// HIGH x LOW.
    Lh,
    /// LOW x LOW.
    Ll,
}

impl Part {
    /// All parts in hardware evaluation order.
    pub const ALL: [Part; 4] = [Part::Hh, Part::Hl, Part::Lh, Part::Ll];
}

/// Parameters of the composing scheme.
///
/// # Examples
///
/// The paper's default assumptions — composed 6-bit inputs from 3-bit
/// signals, composed 8-bit weights from 4-bit cells, 6-bit outputs, 256
/// inputs per crossbar:
///
/// ```
/// use prime_circuits::ComposingScheme;
///
/// let scheme = ComposingScheme::prime_default();
/// assert_eq!(scheme.input_half_bits(), 3);
/// assert_eq!(scheme.weight_half_bits(), 4);
/// assert_eq!(scheme.included_parts().len(), 3); // LL is dropped
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ComposingScheme {
    pin: u8,
    pw: u8,
    po: u8,
    pn: u8,
}

impl ComposingScheme {
    /// Creates a scheme with composed input bits `pin`, composed weight
    /// bits `pw`, output bits `po`, and `2^pn` inputs per crossbar array.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidComposition`] if `pin` or `pw` is odd
    /// or zero, if `po` is zero, wider than the reconfigurable SA
    /// ([`MAX_SA_BITS`]) or wider than the full precision `pin + pw + pn`,
    /// or if any width is implausibly large (> 16).
    pub fn new(pin: u8, pw: u8, po: u8, pn: u8) -> Result<Self, CircuitError> {
        if pin == 0 || !pin.is_multiple_of(2) {
            return Err(CircuitError::InvalidComposition {
                reason: "composed input width must be even and non-zero",
            });
        }
        if pw == 0 || !pw.is_multiple_of(2) {
            return Err(CircuitError::InvalidComposition {
                reason: "composed weight width must be even and non-zero",
            });
        }
        if pin > 16 || pw > 16 || po > 16 || pn > 16 {
            return Err(CircuitError::InvalidComposition {
                reason: "bit widths above 16 are not plausible hardware",
            });
        }
        if po > MAX_SA_BITS {
            return Err(CircuitError::InvalidComposition {
                reason: "output width above 8 bits exceeds the reconfigurable SA",
            });
        }
        if po == 0 || po > pin + pw + pn {
            return Err(CircuitError::InvalidComposition {
                reason: "output width must be in 1..=pin+pw+pn",
            });
        }
        Ok(ComposingScheme { pin, pw, po, pn })
    }

    /// The paper's default: `Pin = 6`, `Pw = 8`, `Po = 6`, `PN = 8`
    /// (256-input mats).
    pub const fn prime_default() -> Self {
        // Constructed directly: even non-zero pin/pw, po within
        // 1..=min(8, pin+pw+pn), all widths <= 16 — the `new` invariants
        // hold.
        ComposingScheme { pin: 6, pw: 8, po: 6, pn: 8 }
    }

    /// Composed input width in bits.
    pub fn input_bits(&self) -> u8 {
        self.pin
    }

    /// Composed weight width in bits (magnitude; sign is carried by the
    /// positive/negative array split).
    pub fn weight_bits(&self) -> u8 {
        self.pw
    }

    /// Target output width in bits.
    pub fn output_bits(&self) -> u8 {
        self.po
    }

    /// `log2` of the number of inputs per crossbar.
    pub fn pn(&self) -> u8 {
        self.pn
    }

    /// Width of each physical input signal (half the composed width).
    pub fn input_half_bits(&self) -> u8 {
        self.pin / 2
    }

    /// Width of each physical cell (half the composed width).
    pub fn weight_half_bits(&self) -> u8 {
        self.pw / 2
    }

    /// Full precision of an uncomposed result (Eq. 2): `pin + pw + pn` bits.
    pub fn full_bits(&self) -> u8 {
        self.pin + self.pw + self.pn
    }

    /// The right shift taking a full-precision result to the target
    /// (Eq. 3): `pin + pw + pn - po`.
    pub fn target_shift(&self) -> u8 {
        self.full_bits() - self.po
    }

    /// Binary scale (exponent) of a part in the full result (Eq. 8).
    pub fn part_scale(&self, part: Part) -> u8 {
        match part {
            Part::Hh => (self.pin + self.pw) / 2,
            Part::Hl => self.pw / 2,
            Part::Lh => self.pin / 2,
            Part::Ll => 0,
        }
    }

    /// How many bits of a part the SA keeps (paper §III-D list); a
    /// non-positive count means the part is skipped.
    pub fn kept_bits(&self, part: Part) -> i8 {
        let offset = match part {
            Part::Hh => 0,
            Part::Hl => self.pin / 2,
            Part::Lh => self.pw / 2,
            Part::Ll => (self.pin + self.pw) / 2,
        };
        self.po as i8 - offset as i8
    }

    /// The parts the hardware actually evaluates (kept bits > 0), in order.
    pub fn included_parts(&self) -> Vec<Part> {
        self.included_parts_iter().collect()
    }

    /// Allocation-free form of [`included_parts`](Self::included_parts),
    /// for hot kernels.
    pub fn included_parts_iter(self) -> impl Iterator<Item = Part> {
        Part::ALL.iter().copied().filter(move |&p| self.kept_bits(p) > 0)
    }

    /// Largest representable composed input code: `2^Pin - 1` (63 for the
    /// paper's 6-bit inputs). The single source of truth for input
    /// quantization clamps.
    pub fn input_code_max(&self) -> u16 {
        ((1u32 << self.pin) - 1) as u16
    }

    /// Largest representable output magnitude: `2^Po - 1` (63 for the
    /// paper's 6-bit outputs); the sign is carried by the subtraction
    /// unit. The single source of truth for output/requantization clamps.
    pub fn output_code_max(&self) -> i64 {
        (1i64 << self.po) - 1
    }

    /// Splits a composed input code into (HIGH, LOW) physical signals.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::CodeOutOfRange`] if the code exceeds
    /// `2^pin - 1`.
    pub fn split_input(&self, code: u16) -> Result<(u16, u16), CircuitError> {
        let max = (1u32 << self.pin) - 1;
        if u32::from(code) > max {
            return Err(CircuitError::CodeOutOfRange { code: u32::from(code), codes: max + 1 });
        }
        let half = self.input_half_bits();
        Ok((code >> half, code & ((1 << half) - 1)))
    }

    /// Splits a composed weight magnitude into (HIGH, LOW) cell levels.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::CodeOutOfRange`] if the magnitude exceeds
    /// `2^pw - 1`.
    pub fn split_weight(&self, magnitude: u16) -> Result<(u16, u16), CircuitError> {
        let max = (1u32 << self.pw) - 1;
        if u32::from(magnitude) > max {
            return Err(CircuitError::CodeOutOfRange {
                code: u32::from(magnitude),
                codes: max + 1,
            });
        }
        let half = self.weight_half_bits();
        Ok((magnitude >> half, magnitude & ((1 << half) - 1)))
    }

    /// Reconstructs the exact full-precision result from the four parts
    /// (Eq. 8) — the mathematical identity the scheme is built on.
    pub fn full_from_parts(&self, parts: PartSums) -> i64 {
        (parts.hh << self.part_scale(Part::Hh))
            + (parts.hl << self.part_scale(Part::Hl))
            + (parts.lh << self.part_scale(Part::Lh))
            + parts.ll
    }

    /// The exact target result: the full-precision value shifted right by
    /// [`target_shift`](Self::target_shift) (arithmetic, floor semantics).
    pub fn exact_target(&self, full: i64) -> i64 {
        full >> self.target_shift()
    }

    /// The hardware-composed target (Eq. 9): each included part is
    /// truncated to its kept bits by the SA and accumulated by the
    /// precision-control adder. Differs from [`exact_target`](Self::exact_target) by at most a
    /// few LSBs (the dropped fractional bits and the skipped LL part).
    pub fn compose(&self, parts: PartSums) -> i64 {
        let shift = self.target_shift();
        let mut acc = 0i64;
        for part in self.included_parts() {
            let scale = self.part_scale(part);
            let value = match part {
                Part::Hh => parts.hh,
                Part::Hl => parts.hl,
                Part::Lh => parts.lh,
                Part::Ll => parts.ll,
            };
            // Contribution of `value * 2^scale` to `full >> shift`.
            if shift >= scale {
                acc += value >> (shift - scale);
            } else {
                acc += value << (scale - shift);
            }
        }
        acc
    }

    /// Worst-case magnitude of `exact_target - compose` for this scheme:
    /// one LSB per truncated part plus the skipped parts' maximum
    /// contribution. Used by tests and by accuracy analysis.
    pub fn max_composition_error(&self) -> i64 {
        let included = self.included_parts();
        let truncation = included.len() as i64;
        let mut skipped = 0i64;
        for part in Part::ALL {
            if !included.contains(&part) {
                let scale = self.part_scale(part);
                let part_max_bits = self.input_half_bits() + self.weight_half_bits() + self.pn;
                let contribution_bits =
                    i32::from(scale) + i32::from(part_max_bits) - i32::from(self.target_shift());
                if contribution_bits > 0 {
                    skipped += 1i64 << contribution_bits;
                } else {
                    skipped += 1;
                }
            }
        }
        truncation + skipped
    }
}

impl Default for ComposingScheme {
    fn default() -> Self {
        ComposingScheme::prime_default()
    }
}

/// Computes the four partial dot products of a composed evaluation in
/// software, from composed inputs and signed composed weights laid out
/// row-major as `weights[i * outputs + j]`.
///
/// This is the reference the FF-subarray hardware path is tested against;
/// it is also used directly by the functional simulator when device-level
/// fidelity is not required.
///
/// # Errors
///
/// Returns [`CircuitError::LatchLengthMismatch`] if `weights.len()` is not
/// `inputs.len() * outputs`, or a code/magnitude range error from the
/// splitting helpers.
pub fn part_sums(
    scheme: &ComposingScheme,
    inputs: &[u16],
    weights: &[i32],
    outputs: usize,
) -> Result<Vec<PartSums>, CircuitError> {
    if weights.len() != inputs.len() * outputs {
        return Err(CircuitError::LatchLengthMismatch {
            got: weights.len(),
            expected: inputs.len() * outputs,
        });
    }
    let mut sums = vec![PartSums::default(); outputs];
    for (i, &code) in inputs.iter().enumerate() {
        let (ih, il) = scheme.split_input(code)?;
        for (j, sum) in sums.iter_mut().enumerate() {
            let w = weights[i * outputs + j];
            let sign = if w < 0 { -1i64 } else { 1 };
            let (wh, wl) = scheme.split_weight(w.unsigned_abs().min(u32::from(u16::MAX)) as u16)?;
            sum.hh += sign * i64::from(ih) * i64::from(wh);
            sum.hl += sign * i64::from(il) * i64::from(wh);
            sum.lh += sign * i64::from(ih) * i64::from(wl);
            sum.ll += sign * i64::from(il) * i64::from(wl);
        }
    }
    Ok(sums)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_assumptions() {
        let s = ComposingScheme::prime_default();
        assert_eq!(s.input_bits(), 6);
        assert_eq!(s.weight_bits(), 8);
        assert_eq!(s.output_bits(), 6);
        assert_eq!(s.full_bits(), 22);
        assert_eq!(s.target_shift(), 16);
    }

    #[test]
    fn kept_bits_follow_paper_breakdown() {
        // Paper: all 6 bits of HH, highest 3 of HL, highest 2 of LH, LL dropped.
        let s = ComposingScheme::prime_default();
        assert_eq!(s.kept_bits(Part::Hh), 6);
        assert_eq!(s.kept_bits(Part::Hl), 3);
        assert_eq!(s.kept_bits(Part::Lh), 2);
        assert_eq!(s.kept_bits(Part::Ll), -1);
        assert_eq!(s.included_parts(), vec![Part::Hh, Part::Hl, Part::Lh]);
    }

    #[test]
    fn new_validates_parameters() {
        assert!(ComposingScheme::new(5, 8, 6, 8).is_err()); // odd pin
        assert!(ComposingScheme::new(6, 7, 6, 8).is_err()); // odd pw
        assert!(ComposingScheme::new(6, 8, 0, 8).is_err()); // zero po
        assert!(ComposingScheme::new(6, 8, 23, 8).is_err()); // po > full
        assert!(ComposingScheme::new(6, 8, 9, 8).is_err()); // po > SA width
        assert!(ComposingScheme::new(2, 2, 7, 2).is_err()); // po > full, <= SA
        assert!(ComposingScheme::new(16, 16, 8, 8).is_ok()); // widest admitted
        assert!(ComposingScheme::new(18, 8, 6, 8).is_err()); // implausible
    }

    #[test]
    fn split_input_and_weight_round_trip() {
        let s = ComposingScheme::prime_default();
        for code in 0..64u16 {
            let (h, l) = s.split_input(code).unwrap();
            assert_eq!((h << 3) | l, code);
            assert!(h < 8 && l < 8);
        }
        for mag in (0..256u16).step_by(7) {
            let (h, l) = s.split_weight(mag).unwrap();
            assert_eq!((h << 4) | l, mag);
            assert!(h < 16 && l < 16);
        }
        assert!(s.split_input(64).is_err());
        assert!(s.split_weight(256).is_err());
    }

    #[test]
    fn full_from_parts_is_exact_identity() {
        let s = ComposingScheme::prime_default();
        let inputs = [63u16, 0, 17, 42];
        let weights = [255i32, -255, 1, -128, 77, 0, -200, 5];
        let outputs = 2;
        let parts = part_sums(&s, &inputs, &weights, outputs).unwrap();
        for j in 0..outputs {
            let direct: i64 = inputs
                .iter()
                .enumerate()
                .map(|(i, &a)| i64::from(a) * i64::from(weights[i * outputs + j]))
                .sum();
            assert_eq!(s.full_from_parts(parts[j]), direct);
        }
    }

    #[test]
    fn compose_approximates_exact_target() {
        let s = ComposingScheme::prime_default();
        let inputs: Vec<u16> = (0..256).map(|i| (i % 64) as u16).collect();
        let weights: Vec<i32> = (0..256).map(|i| ((i * 13) % 511) - 255).collect();
        let parts = part_sums(&s, &inputs, &weights, 1).unwrap();
        let exact = s.exact_target(s.full_from_parts(parts[0]));
        let composed = s.compose(parts[0]);
        assert!(
            (exact - composed).abs() <= s.max_composition_error(),
            "exact {exact}, composed {composed}, bound {}",
            s.max_composition_error()
        );
    }

    #[test]
    fn compose_is_exact_when_no_truncation_needed() {
        // po == full bits: shift is zero and every part is kept.
        let s = ComposingScheme::new(2, 2, 6, 2).unwrap();
        let parts = PartSums { hh: 3, hl: 2, lh: 1, ll: 1 };
        assert_eq!(s.compose(parts), s.full_from_parts(parts));
    }

    #[test]
    fn part_sums_validates_shape() {
        let s = ComposingScheme::prime_default();
        assert!(part_sums(&s, &[1, 2], &[1, 2, 3], 2).is_err());
    }

    #[test]
    fn part_scales_match_equation_8() {
        let s = ComposingScheme::prime_default();
        assert_eq!(s.part_scale(Part::Hh), 7);
        assert_eq!(s.part_scale(Part::Hl), 4);
        assert_eq!(s.part_scale(Part::Lh), 3);
        assert_eq!(s.part_scale(Part::Ll), 0);
    }
}
