//! Order statistics shared by the workloads and `--repeat`.
//!
//! Two conventions, deliberately different:
//!
//! * [`percentile`] is the **nearest-rank** percentile used for every
//!   latency a single run reports (it always returns an observed sample);
//! * [`quartiles`] reproduces Python's `statistics.quantiles(values, n=4)`
//!   (the default *exclusive* method, linear interpolation), which is how
//!   run-to-run spread is judged across repeated runs.

use std::time::Duration;

/// Nearest-rank percentile `q` (0–100) of an ascending-sorted slice;
/// `None` when the slice is empty. `q = 0` gives the smallest sample.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    // `q * n` is exact for the integral `q` used here, so the ceiling
    // never rounds an exact rank up.
    let rank = (q * sorted.len() as f64 / 100.0).ceil();
    let index = if rank >= 1.0 {
        (rank as usize - 1).min(last)
    } else {
        0
    };
    sorted.get(index).copied()
}

/// Sorts `values` ascending (total order, so NaN cannot panic the sort).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Nearest-rank percentile of unsorted `values`, in milliseconds when the
/// samples are [`Duration`]s.
pub fn percentile_ms(samples: &[Duration], q: f64) -> Option<f64> {
    let ms = sorted(samples.iter().map(|d| d.as_secs_f64() * 1e3).collect());
    percentile(&ms, q)
}

/// Samples each time slice must hold beyond the percentile taken of it.
pub const SAMPLES_BEYOND: f64 = 100.0;

/// Cuts time-stamped `samples` (`(when, value)`, ascending by time) into
/// equal-length time slices and returns each non-empty slice's
/// nearest-rank percentile `q`.
///
/// Each slice is sized to hold at least [`SAMPLES_BEYOND`] samples
/// beyond the percentile (200 samples for p50, 1000 for p90), so each
/// slice's percentile is a steady estimate in its own right; there are at
/// most `max_slices` slices and at least one. The host's load varies over
/// seconds, so a run's *best* slice reads the code's speed with the least
/// interference; see the crate README.
pub fn slice_percentiles(samples: &[(Duration, f64)], q: f64, max_slices: usize) -> Vec<f64> {
    let (Some(first), Some(last)) = (samples.first(), samples.last()) else {
        return Vec::new();
    };
    // n samples beyond percentile q need n / (1 - q/100) samples; the
    // `100 - q` form stays exact for integral q.
    let per_slice = (SAMPLES_BEYOND * 100.0 / (100.0 - q).max(1e-4))
        .ceil()
        .max(1.0) as usize;
    let slices = (samples.len() / per_slice).clamp(1, max_slices.max(1));
    let span = last.0.saturating_sub(first.0).as_secs_f64();
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); slices];
    for &(at, value) in samples {
        let offset = at.saturating_sub(first.0).as_secs_f64();
        let k = if span > 0.0 {
            (offset / span * slices as f64) as usize
        } else {
            0
        };
        if let Some(bucket) = buckets.get_mut(k.min(slices - 1)) {
            bucket.push(value);
        }
    }
    buckets
        .into_iter()
        .filter_map(|b| percentile(&sorted(b), q))
        .collect()
}

/// First, second and third quartile of `values` exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (method
/// `exclusive`). A single sample is its own quartiles; `None` when empty.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values.to_vec());
    let ld = data.len();
    match ld {
        0 => None,
        1 => Some([data[0]; 3]),
        _ => {
            let n = 4usize;
            let m = ld + 1;
            let mut out = [0.0; 3];
            for (i, slot) in (1..n).zip(out.iter_mut()) {
                let j = (i * m / n).clamp(1, ld - 1);
                // Exact integer weights, as in CPython (may be negative
                // when `j` was clamped up, which extrapolates).
                let delta = (i * m) as f64 - (j * n) as f64;
                *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
            }
            Some(out)
        }
    }
}

/// Median, quartiles and range of repeated measurements of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Smallest value.
    pub min: f64,
    /// First quartile (Python `quantiles` convention).
    pub q1: f64,
    /// Median (the second quartile).
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest value.
    pub max: f64,
}

impl Spread {
    /// Summarizes `values`; `None` when empty.
    pub fn of(values: &[f64]) -> Option<Spread> {
        let [q1, median, q3] = quartiles(values)?;
        let data = sorted(values.to_vec());
        Some(Spread {
            min: *data.first()?,
            q1,
            median,
            q3,
            max: *data.last()?,
        })
    }

    /// Quartile distance as a share of the median — the spread the bound
    /// of an end-to-end metric is held to (0 for a zero median).
    pub fn iqr_frac(&self) -> f64 {
        relative(self.q3 - self.q1, self.median)
    }

    /// Max–min distance as a share of the median.
    pub fn range_frac(&self) -> f64 {
        relative(self.max - self.min, self.median)
    }
}

fn relative(width: f64, median: f64) -> f64 {
    if median == 0.0 {
        0.0
    } else {
        (width / median).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_edges() {
        assert_eq!(percentile(&[], 50.0), None);
        for q in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(percentile(&[7.5], q), Some(7.5), "q={q}");
        }
        let two = [1.0, 2.0];
        assert_eq!(percentile(&two, 50.0), Some(1.0));
        assert_eq!(percentile(&two, 90.0), Some(2.0));
    }

    #[test]
    fn nearest_rank_does_not_overshoot_exact_ranks() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.0), Some(1.0));
        assert_eq!(percentile(&hundred, 50.0), Some(50.0));
        assert_eq!(percentile(&hundred, 90.0), Some(90.0));
        assert_eq!(percentile(&hundred, 99.0), Some(99.0));
        assert_eq!(percentile(&hundred, 100.0), Some(100.0));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 90.0), Some(9.0));
        assert_eq!(percentile(&ten, 99.0), Some(10.0));
    }

    #[test]
    fn percentile_ms_sorts_durations() {
        let samples = [3, 1, 2].map(Duration::from_millis);
        assert_eq!(percentile_ms(&samples, 50.0), Some(2.0));
    }

    #[test]
    fn slices_hold_a_hundred_samples_beyond_the_percentile() {
        let ms = Duration::from_millis;
        // 2000 samples over 20 s: p50 allows 10 slices, p90 two, p99 one.
        let samples: Vec<(Duration, f64)> = (0..2000u64)
            .map(|i| (ms(i * 10), if i < 1000 { 1.0 } else { 2.0 }))
            .collect();
        assert_eq!(slice_percentiles(&samples, 50.0, 20).len(), 10);
        assert_eq!(slice_percentiles(&samples, 90.0, 20), vec![1.0, 2.0]);
        assert_eq!(slice_percentiles(&samples, 99.0, 20), vec![2.0]);
        // Three slices split the 1000 ones and 1000 twos 667 / 333+333 / 667.
        assert_eq!(slice_percentiles(&samples, 50.0, 3), vec![1.0, 1.0, 2.0]);
        assert!(slice_percentiles(&[], 50.0, 10).is_empty());
        assert_eq!(slice_percentiles(&[(ms(5), 3.0)], 50.0, 10), vec![3.0]);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[4.0]), Some([4.0; 3]));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn spread_reports_relative_widths() {
        let s = Spread::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).expect("non-empty");
        assert_eq!((s.min, s.median, s.max), (1.0, 3.0, 5.0));
        assert!((s.iqr_frac() - 1.0).abs() < 1e-12, "(4.5 - 1.5) / 3");
        assert!((s.range_frac() - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(Spread::of(&[0.0, 0.0]).map(|s| s.iqr_frac()), Some(0.0));
    }
}
