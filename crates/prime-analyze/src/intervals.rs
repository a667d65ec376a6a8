//! Pass 3(b) — §III-D interval precision propagation.
//!
//! Pushes per-layer value intervals through the quantizer, the crossbar
//! dot spans, and the Po output truncation of the lowered command
//! program, to statically prove that no merged sum can overflow the
//! 64-bit precision-control register before the scheme clamp fires.
//! The abstract domain is a closed signed interval over merged
//! full-precision units, computed in `i128` so the *analysis* can never
//! wrap while reasoning about whether the *machine* would.
//!
//! Two diagnostics come out of the pass:
//!
//! * [`Code::P027`] (error) — the interval cannot be proven to fit the
//!   merge register (or the requantization shift itself is out of the
//!   register's range), so the §III-D clamp could observe a wrapped
//!   value.
//! * [`Code::P028`] (warning) — the budget is vacuous: the statically
//!   possible output interval collapses to `{0}` after the declared
//!   requantization shift, so the layer provably emits constant zeros.
//!
//! Weight and cell bounds are not hard-coded: they come from the
//! device's [`MlcSpec::composed_weight_magnitude`] interval hook crossed
//! with the composing scheme's quantizer clamp, and the dot-span bound
//! from [`PairedCrossbar::sense_interval`] — the static counterparts of
//! the dynamic SA calibration.

use prime_circuits::ComposingScheme;
use prime_device::{MlcSpec, PairedCrossbar};

use crate::diag::{Code, Diagnostic, Span};
use crate::program::{ProgramLayer, ProgramOp, ProgramPlan};
use crate::verify::Target;

/// Closed signed interval `[lo, hi]`, the abstract value of the §III-D
/// precision analysis. Kept in `i128` so interval arithmetic itself is
/// exact over every value a 64-bit merge register can reach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: i128,
    /// Inclusive upper bound.
    pub hi: i128,
}

impl Interval {
    /// The single value `v`.
    pub fn point(v: i128) -> Self {
        Interval { lo: v, hi: v }
    }

    /// `[-m, m]` for a magnitude bound `m`.
    pub fn symmetric(m: i128) -> Self {
        Interval { lo: -m.max(0), hi: m.max(0) }
    }

    /// Largest absolute value in the interval.
    pub fn abs_max(&self) -> i128 {
        self.lo.abs().max(self.hi.abs())
    }

    /// Least upper bound of two intervals.
    pub fn join(self, other: Interval) -> Interval {
        Interval { lo: self.lo.min(other.lo), hi: self.hi.max(other.hi) }
    }

    /// Widening join: a bound that is still growing jumps straight to
    /// the 64-bit register limit instead of creeping toward it, so the
    /// chunk-boundary fixed-point loop terminates after one unstable
    /// iteration regardless of how many window chunks a conv layer
    /// evaluates.
    pub fn widen_join(self, other: Interval) -> Interval {
        Interval {
            lo: if other.lo < self.lo { i128::from(i64::MIN) } else { self.lo },
            hi: if other.hi > self.hi { i128::from(i64::MAX) } else { self.hi },
        }
    }

    /// Interval sum.
    pub fn plus(self, other: Interval) -> Interval {
        Interval { lo: self.lo + other.lo, hi: self.hi + other.hi }
    }

    /// ReLU transfer function: clamps the lower bound at zero.
    pub fn relu(self) -> Interval {
        Interval { lo: self.lo.max(0), hi: self.hi.max(0) }
    }

    /// Arithmetic right shift of both bounds (the requantization step).
    pub fn shift_right(self, shift: u32) -> Interval {
        Interval { lo: self.lo >> shift, hi: self.hi >> shift }
    }

    /// Clamp transfer function (the scheme's emit clamp).
    pub fn clamp(self, lo: i128, hi: i128) -> Interval {
        Interval { lo: self.lo.clamp(lo, hi), hi: self.hi.clamp(lo, hi) }
    }

    /// Whether every value of the interval fits the 64-bit
    /// precision-control register the merge adder accumulates in.
    pub fn fits_register(&self) -> bool {
        self.lo >= i128::from(i64::MIN) && self.hi <= i128::from(i64::MAX)
    }
}

/// Per-layer result of the propagation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerInterval {
    /// Merged full-precision sums before requantization.
    pub merged: Interval,
    /// Requantized codes handed to the next layer (after ReLU, shift,
    /// and the scheme clamp).
    pub emitted: Interval,
}

/// The composed-weight magnitude bound: the MLC pair's representable
/// range ([`MlcSpec::composed_weight_magnitude`]) crossed with the
/// composing scheme's quantizer clamp — whichever is tighter governs.
pub(crate) fn weight_magnitude(target: &Target) -> i128 {
    let scheme_max = (1i128 << target.scheme.weight_bits()) - 1;
    match MlcSpec::new(target.cell_bits) {
        Ok(spec) => i128::from(spec.composed_weight_magnitude()).min(scheme_max),
        Err(_) => scheme_max,
    }
}

/// The requantization shift the runner would calibrate for a layer
/// whose merged sums peak at `out_max` — the same `bits - Pin` formula
/// `CommandRunner::requant_shift` applies, exposed so the static
/// lowering can derive plan shifts from the interval bounds.
pub fn static_shift(out_max: i128, scheme: &ComposingScheme) -> u8 {
    let out_max = i64::try_from(out_max.max(1)).unwrap_or(i64::MAX);
    let bits = 64 - i64::from(out_max.leading_zeros());
    (bits - i64::from(scheme.input_bits())).clamp(0, 63) as u8
}

/// The merged-sum interval of one weight layer (or mean pool) on input
/// codes bounded by `act`. Dot spans come through the device's
/// [`PairedCrossbar::sense_interval`] hook; a saturated span is reported
/// as an unbounded interval so the register-fit proof fails loudly
/// rather than silently.
pub(crate) fn merged_interval(layer: &ProgramLayer, act: Interval, w_max: i128) -> Interval {
    match (layer.weight_shape, layer.op) {
        (Some((rows, _)), _) => {
            let input_max = i64::try_from(act.abs_max()).unwrap_or(i64::MAX);
            let weight_max = i64::try_from(w_max).unwrap_or(i64::MAX);
            let (lo, hi) = PairedCrossbar::sense_interval(rows, input_max, weight_max);
            let dot = if hi == i64::MAX {
                // The sense span saturated: the true bound exceeds the
                // register, so propagate an unprovable interval.
                Interval { lo: i128::from(i64::MIN) * 2, hi: i128::from(i64::MAX) * 2 }
            } else {
                Interval { lo: i128::from(lo), hi: i128::from(hi) }
            };
            dot.plus(Interval::symmetric(i128::from(layer.bias_peak)))
        }
        (None, ProgramOp::Pool { mean: true, window, level, .. }) => {
            // level * sum of n window codes.
            let n = i128::from((window * window) as u64);
            let l = i128::from(level);
            let scaled = Interval { lo: act.lo * n * l, hi: act.hi * n * l };
            Interval { lo: scaled.lo.min(scaled.hi), hi: scaled.lo.max(scaled.hi) }
        }
        // Winner-code max selects among existing codes.
        (None, _) => act,
    }
}

/// Propagates value intervals through every layer of the plan, returning
/// the per-layer intervals alongside any P027/P028 findings.
pub fn propagate_intervals(
    target: &Target,
    plan: &ProgramPlan,
) -> (Vec<LayerInterval>, Vec<Diagnostic>) {
    let scheme = &target.scheme;
    let code_max = i128::from(scheme.input_code_max());
    let w_max = weight_magnitude(target);
    // Network inputs quantize to [0, input_code_max] (the quantizer
    // clamps below at zero).
    let mut act = Interval { lo: 0, hi: code_max };
    let mut results = Vec::with_capacity(plan.layers.len());
    let mut diags = Vec::new();
    let last = plan.layers.len().saturating_sub(1);
    for (index, layer) in plan.layers.iter().enumerate() {
        let span = Span::Layer { index, entity: layer.op.describe() };
        let per_chunk = merged_interval(layer, act, w_max);
        // Conv window chunks all apply the same weight matrix to values
        // drawn from the same activation interval, so the abstract state
        // at each chunk boundary is the widening join of the per-chunk
        // interval with itself — stable after one iteration. The loop is
        // what keeps this sound if a future schedule makes chunks
        // differ; widening caps it at one unstable step either way.
        let mut merged = per_chunk;
        loop {
            let next = merged.widen_join(per_chunk);
            if next == merged {
                break;
            }
            merged = next;
        }
        let shift = u32::from(layer.requant_shift);
        if !merged.fits_register() {
            diags.push(Diagnostic::new(
                Code::P027,
                span.clone(),
                format!(
                    "merged-sum interval [{}, {}] cannot be proven to fit the 64-bit \
                     precision-control register: the scheme clamp could observe a \
                     wrapped value",
                    merged.lo, merged.hi
                ),
            ));
        } else if shift >= 64 {
            diags.push(Diagnostic::new(
                Code::P027,
                span.clone(),
                format!(
                    "requantization shift {shift} is outside the 64-bit register \
                     (shifts of 64 or more are not defined on the merge datapath)"
                ),
            ));
        }
        // Transfer function of the emit path: ReLU, requantization
        // shift, scheme clamp. Mirror the runner's order exactly.
        let safe_shift = shift.min(63);
        let activated = if layer.relu { merged.relu() } else { merged };
        let emitted = activated.shift_right(safe_shift).clamp(-code_max, code_max);
        // A non-final layer whose possible outputs collapse to {0} from
        // a nonzero merged interval has a vacuous precision budget: the
        // declared shift discards every bit the layer computes.
        if index != last
            && merged != Interval::point(0)
            && emitted == Interval::point(0)
            && merged.fits_register()
        {
            diags.push(Diagnostic::new(
                Code::P028,
                span,
                format!(
                    "requantization shift {shift} collapses the possible output \
                     interval [{}, {}] to zero: the layer provably emits constant \
                     zeros (vacuous §III-D budget)",
                    merged.lo, merged.hi
                ),
            ));
        }
        results.push(LayerInterval { merged, emitted });
        act = emitted;
    }
    (results, diags)
}

/// Pass 3(b) entry point: just the diagnostics of
/// [`propagate_intervals`].
pub fn check_intervals(target: &Target, plan: &ProgramPlan) -> Vec<Diagnostic> {
    propagate_intervals(target, plan).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_transfer_functions() {
        let a = Interval { lo: -8, hi: 16 };
        assert_eq!(a.relu(), Interval { lo: 0, hi: 16 });
        assert_eq!(a.shift_right(2), Interval { lo: -2, hi: 4 });
        assert_eq!(a.clamp(-3, 3), Interval { lo: -3, hi: 3 });
        assert_eq!(a.abs_max(), 16);
        assert!(a.fits_register());
    }

    #[test]
    fn widening_jumps_to_register_bounds() {
        let a = Interval { lo: 0, hi: 10 };
        let wider = Interval { lo: -1, hi: 11 };
        let w = a.widen_join(wider);
        assert_eq!(w.lo, i128::from(i64::MIN));
        assert_eq!(w.hi, i128::from(i64::MAX));
        // Joining with itself is stable.
        assert_eq!(a.widen_join(a), a);
    }

    #[test]
    fn static_shift_matches_bit_arithmetic() {
        let scheme = ComposingScheme::prime_default();
        // Peak already within Pin bits: no shift.
        assert_eq!(static_shift(3, &scheme), 0);
        // One bit over: shift by the excess.
        let over = i128::from(scheme.input_code_max()) * 4;
        assert!(static_shift(over, &scheme) > 0);
    }
}
