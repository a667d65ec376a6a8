//! Hardware target description for the mapping compiler.

use serde::{Deserialize, Serialize};

use prime_mem::MemGeometry;

use crate::error::CompileError;

/// The FF-subarray resources the compiler maps onto.
///
/// `mat_rows` and `mat_cols` are *composed-weight* dimensions: a physical
/// 256x256 crossbar pair holds 256 input rows by 128 composed 8-bit
/// weights (two adjacent 4-bit cells per weight, sign via the
/// positive/negative pair).
///
/// # Examples
///
/// ```
/// use prime_compiler::HwTarget;
/// use prime_mem::MemGeometry;
///
/// let hw = HwTarget::from_geometry(&MemGeometry::prime_default())?;
/// assert_eq!(hw.mats_per_bank(), 128);
/// assert_eq!(hw.total_mats(), 8192);
/// # Ok::<(), prime_compiler::CompileError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct HwTarget {
    /// Input rows per mat (wordlines).
    pub mat_rows: usize,
    /// Composed weight columns per mat.
    pub mat_cols: usize,
    /// Mats per FF subarray.
    pub mats_per_ff_subarray: usize,
    /// FF subarrays per bank.
    pub ff_subarrays_per_bank: usize,
    /// Banks in the memory (PRIME's NPU count).
    pub banks: usize,
}

impl HwTarget {
    /// Derives the target from a memory geometry.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::InvalidTarget`] for degenerate geometries.
    pub fn from_geometry(geometry: &MemGeometry) -> Result<Self, CompileError> {
        let target = HwTarget {
            mat_rows: geometry.mat_rows,
            mat_cols: geometry.mat_cols / 2,
            mats_per_ff_subarray: geometry.mats_per_subarray,
            ff_subarrays_per_bank: geometry.ff_subarrays_per_bank,
            banks: geometry.total_banks(),
        };
        target.validate()?;
        Ok(target)
    }

    /// The paper's default target (derived from the 16 GB geometry).
    pub fn prime_default() -> Self {
        // Falls back to the literal paper resources if the geometry-derived
        // target is ever degenerate, keeping this constructor infallible
        // without a panic path.
        HwTarget::from_geometry(&MemGeometry::prime_default()).unwrap_or(HwTarget {
            mat_rows: 256,
            mat_cols: 128,
            mats_per_ff_subarray: 64,
            ff_subarrays_per_bank: 2,
            banks: 64,
        })
    }

    pub(crate) fn validate(&self) -> Result<(), CompileError> {
        if self.mat_rows == 0 || self.mat_cols == 0 {
            return Err(CompileError::InvalidTarget { reason: "mat dimensions must be non-zero" });
        }
        if self.mats_per_ff_subarray == 0 || self.ff_subarrays_per_bank == 0 || self.banks == 0 {
            return Err(CompileError::InvalidTarget { reason: "FF resources must be non-zero" });
        }
        Ok(())
    }

    /// FF mats available per bank.
    pub fn mats_per_bank(&self) -> usize {
        self.mats_per_ff_subarray * self.ff_subarrays_per_bank
    }

    /// FF mats available across the whole memory.
    pub fn total_mats(&self) -> usize {
        self.mats_per_bank() * self.banks
    }

    /// Composed synaptic weights per mat.
    pub fn synapses_per_mat(&self) -> u64 {
        (self.mat_rows * self.mat_cols) as u64
    }
}

impl Default for HwTarget {
    fn default() -> Self {
        HwTarget::prime_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_target_matches_paper_resources() {
        let hw = HwTarget::prime_default();
        assert_eq!(hw.mat_rows, 256);
        assert_eq!(hw.mat_cols, 128);
        assert_eq!(hw.banks, 64);
        assert_eq!(hw.mats_per_bank(), 128);
        // Full-memory synapse capacity ~2.7e8 (paper §IV-B1).
        let total = hw.total_mats() as u64 * hw.synapses_per_mat();
        assert!((total as f64 / 2.7e8 - 1.0).abs() < 0.01);
    }

    #[test]
    fn degenerate_targets_are_rejected() {
        let mut hw = HwTarget::prime_default();
        hw.banks = 0;
        assert!(hw.validate().is_err());
    }
}
