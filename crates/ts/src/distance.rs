//! Time series dissimilarity measures.
//!
//! Implements the two distances the paper's baselines rely on:
//!
//! * Euclidean distance — a one-to-one mapping of points (requires equal
//!   length series).
//! * Dynamic Time Warping (DTW) — dynamic-programming alignment with an
//!   optional Sakoe–Chiba warping window, early abandoning against a known
//!   best-so-far, and the `LB_Keogh` lower bound used to prune 1NN searches.

use crate::error::TsError;
use crate::Result;

/// Squared Euclidean distance between two equal-length slices.
fn squared_euclidean(a: &[f64], b: &[f64]) -> Result<f64> {
    if a.len() != b.len() {
        return Err(TsError::LengthMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    Ok(a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum())
}

/// Euclidean distance between two equal-length slices.
pub fn euclidean(a: &[f64], b: &[f64]) -> Result<f64> {
    squared_euclidean(a, b).map(f64::sqrt)
}

/// Options controlling DTW computation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DtwOptions {
    /// Sakoe–Chiba band half-width as a fraction of the series length
    /// (`None` = unconstrained warping).
    pub window_fraction: Option<f64>,
    /// Early-abandon threshold: once every cell of a DP row exceeds this
    /// squared distance, the computation aborts and returns `f64::INFINITY`.
    pub early_abandon: Option<f64>,
}

impl DtwOptions {
    /// Unconstrained DTW.
    pub fn unconstrained() -> Self {
        Self::default()
    }

    /// DTW with a Sakoe–Chiba band expressed as a fraction of series length
    /// (e.g. `0.1` for a 10 % warping window).
    fn with_window(fraction: f64) -> Self {
        DtwOptions {
            window_fraction: Some(fraction),
            early_abandon: None,
        }
    }
}

/// Unconstrained DTW distance between two (possibly different-length) series.
pub fn dtw(a: &[f64], b: &[f64]) -> Result<f64> {
    dtw_with_options(a, b, DtwOptions::unconstrained())
}

/// DTW distance constrained to a Sakoe–Chiba band whose half-width is
/// `window_fraction * max(len)` cells.
pub fn dtw_windowed(a: &[f64], b: &[f64], window_fraction: f64) -> Result<f64> {
    dtw_with_options(a, b, DtwOptions::with_window(window_fraction))
}

/// DTW distance with full options. Returns `f64::INFINITY` when early
/// abandoning triggers.
pub fn dtw_with_options(a: &[f64], b: &[f64], options: DtwOptions) -> Result<f64> {
    if a.is_empty() || b.is_empty() {
        return Err(TsError::EmptySeries);
    }
    if let Some(f) = options.window_fraction {
        if !(0.0..=1.0).contains(&f) {
            return Err(TsError::invalid(
                "window_fraction",
                format!("must be in [0, 1], got {f}"),
            ));
        }
    }
    let n = a.len();
    let m = b.len();
    let band = match options.window_fraction {
        Some(f) => {
            let w = (f * n.max(m) as f64).ceil() as usize;
            // The band must at least cover the length difference, otherwise
            // no warping path exists.
            w.max(n.abs_diff(m))
        }
        None => n.max(m),
    };
    let inf = f64::INFINITY;
    let mut prev = vec![inf; m + 1];
    let mut curr = vec![inf; m + 1];
    prev[0] = 0.0;
    for i in 1..=n {
        curr.fill(inf);
        let j_lo = if i > band { i - band } else { 1 };
        let j_hi = (i + band).min(m);
        if j_lo > j_hi {
            return Ok(inf);
        }
        let mut row_min = inf;
        for j in j_lo..=j_hi {
            let cost = (a[i - 1] - b[j - 1]) * (a[i - 1] - b[j - 1]);
            let best_prev = prev[j].min(prev[j - 1]).min(curr[j - 1]);
            if best_prev.is_finite() {
                curr[j] = cost + best_prev;
                row_min = row_min.min(curr[j]);
            }
        }
        if let Some(thresh) = options.early_abandon {
            if row_min > thresh * thresh {
                return Ok(inf);
            }
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    Ok(prev[m].sqrt())
}

/// `LB_Keogh` lower bound on the windowed DTW distance between `query` and
/// `candidate`. Both series must have equal length; the envelope is built on
/// `candidate` with the given band half-width (in points).
pub fn lb_keogh(query: &[f64], candidate: &[f64], band: usize) -> Result<f64> {
    if query.len() != candidate.len() {
        return Err(TsError::LengthMismatch {
            left: query.len(),
            right: candidate.len(),
        });
    }
    if query.is_empty() {
        return Err(TsError::EmptySeries);
    }
    let n = candidate.len();
    let mut sum = 0.0;
    for (i, &q) in query.iter().enumerate() {
        let lo = i.saturating_sub(band);
        let hi = (i + band + 1).min(n);
        let window = &candidate[lo..hi];
        let upper = window.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let lower = window.iter().cloned().fold(f64::INFINITY, f64::min);
        if q > upper {
            sum += (q - upper) * (q - upper);
        } else if q < lower {
            sum += (q - lower) * (q - lower);
        }
    }
    Ok(sum.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_basic() {
        assert_eq!(euclidean(&[0.0, 0.0], &[3.0, 4.0]).unwrap(), 5.0);
        assert!(euclidean(&[1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn dtw_identical_series_is_zero() {
        let a = [1.0, 2.0, 3.0, 2.0, 1.0];
        assert_eq!(dtw(&a, &a).unwrap(), 0.0);
    }

    #[test]
    fn dtw_handles_phase_shift_better_than_euclidean() {
        // two identical pulses, one shifted by two steps
        let mut a = vec![0.0; 32];
        let mut b = vec![0.0; 32];
        for i in 10..15 {
            a[i] = 1.0;
            b[i + 2] = 1.0;
        }
        let de = euclidean(&a, &b).unwrap();
        let dd = dtw(&a, &b).unwrap();
        assert!(dd < de, "dtw {dd} should beat euclidean {de}");
    }

    #[test]
    fn dtw_less_or_equal_euclidean_for_equal_length() {
        let a = [0.3, 1.2, -0.5, 0.8, 2.0, -1.0];
        let b = [0.1, 1.0, -0.2, 0.9, 1.5, -0.8];
        assert!(dtw(&a, &b).unwrap() <= euclidean(&a, &b).unwrap() + 1e-12);
    }

    #[test]
    fn dtw_different_lengths() {
        let a = [1.0, 2.0, 3.0];
        let b = [1.0, 1.5, 2.0, 2.5, 3.0];
        let d = dtw(&a, &b).unwrap();
        assert!(d.is_finite());
        assert!(d < 1.5);
    }

    #[test]
    fn windowed_dtw_at_least_unconstrained() {
        let a: Vec<f64> = (0..64).map(|i| ((i as f64) * 0.2).sin()).collect();
        let b: Vec<f64> = (0..64).map(|i| ((i as f64) * 0.2 + 0.7).sin()).collect();
        let full = dtw(&a, &b).unwrap();
        let banded = dtw_windowed(&a, &b, 0.05).unwrap();
        assert!(banded >= full - 1e-12);
    }

    #[test]
    fn window_zero_equals_euclidean_for_equal_lengths() {
        let a = [0.5, 1.5, -0.5, 2.5];
        let b = [0.0, 1.0, 0.0, 2.0];
        let banded = dtw_windowed(&a, &b, 0.0).unwrap();
        let e = euclidean(&a, &b).unwrap();
        assert!((banded - e).abs() < 1e-12);
    }

    #[test]
    fn early_abandon_returns_infinity() {
        let a: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..100).map(|i| -(i as f64)).collect();
        let opts = DtwOptions {
            early_abandon: Some(1.0),
            ..DtwOptions::unconstrained()
        };
        assert!(dtw_with_options(&a, &b, opts).unwrap().is_infinite());
    }

    #[test]
    fn lb_keogh_lower_bounds_dtw() {
        let a: Vec<f64> = (0..50).map(|i| ((i as f64) * 0.3).sin()).collect();
        let b: Vec<f64> = (0..50).map(|i| ((i as f64) * 0.31 + 0.4).cos()).collect();
        let band = 5usize;
        let lb = lb_keogh(&a, &b, band).unwrap();
        let d = dtw_windowed(&a, &b, band as f64 / 50.0).unwrap();
        assert!(lb <= d + 1e-9, "lb {lb} must lower-bound dtw {d}");
    }

    #[test]
    fn invalid_window_fraction_rejected() {
        assert!(dtw_windowed(&[1.0, 2.0], &[1.0, 2.0], 1.5).is_err());
    }

    #[test]
    fn empty_inputs_rejected() {
        assert!(dtw(&[], &[1.0]).is_err());
        assert!(lb_keogh(&[], &[], 2).is_err());
    }
}
