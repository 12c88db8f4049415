//! Small numeric helpers shared across the substrate.

/// Arithmetic mean of a slice; `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance of a slice; `0.0` for slices shorter than 1.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Minimum of a slice, ignoring NaN ordering subtleties; `None` when empty.
pub fn min(xs: &[f64]) -> Option<f64> {
    xs.iter().cloned().reduce(f64::min)
}

/// Maximum of a slice; `None` when empty.
pub fn max(xs: &[f64]) -> Option<f64> {
    xs.iter().cloned().reduce(f64::max)
}

/// Sorts a slice ascending in place (a stable sort; NaN compares equal to
/// everything), ready for [`median_of_sorted`] and [`quantile_of_sorted`].
pub fn sort_ascending(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
}

/// Median of an ascending slice (average of the two middle elements for
/// even lengths); `0.0` when empty.
pub fn median_of_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Linear interpolation quantile (`q` in `[0, 1]`) of a slice, from a
/// sorted copy; `0.0` when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut sorted = xs.to_vec();
    sort_ascending(&mut sorted);
    quantile_of_sorted(&sorted, q)
}

/// Linear interpolation quantile (`q` in `[0, 1]`) of an ascending slice;
/// `0.0` when empty.
pub fn quantile_of_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((mean(&xs) - 2.5).abs() < 1e-12);
        assert!((variance(&xs) - 1.25).abs() < 1e-12);
        assert!((std(&xs) - 1.25f64.sqrt()).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
    }

    #[test]
    fn min_max() {
        let xs = [3.0, -1.0, 2.0];
        assert_eq!(min(&xs), Some(-1.0));
        assert_eq!(max(&xs), Some(3.0));
        assert_eq!(min(&[]), None);
    }

    #[test]
    fn median_odd_even() {
        let median = |xs: &[f64]| {
            let mut sorted = xs.to_vec();
            sort_ascending(&mut sorted);
            median_of_sorted(&sorted)
        };
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quantiles() {
        let xs = [4.0, 1.0, 5.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert_eq!(quantile(&xs, 0.5), 3.0);
        assert!((quantile(&xs, 0.25) - 2.0).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
