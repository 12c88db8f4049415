//! Preprocessing routines: z-normalisation, min-max scaling, detrending.
//!
//! The paper notes that visibility graphs are unsuitable for series with
//! monotonic trends, which should be removed before graph generation, and
//! that SVM inputs must be scaled into `[0, 1]`. These helpers implement
//! those transformations on raw value slices.

/// Z-normalises a slice: subtract the mean, divide by the population standard
/// deviation. Constant slices (std below `1e-12`) map to all zeros.
pub fn znormalize(values: &[f64]) -> Vec<f64> {
    let m = crate::stats::mean(values);
    let s = crate::stats::std(values);
    if s < 1e-12 {
        return vec![0.0; values.len()];
    }
    values.iter().map(|v| (v - m) / s).collect()
}

/// Scales a slice linearly into `[0, 1]`. Constant slices map to all `0.5`.
pub fn minmax_scale(values: &[f64]) -> Vec<f64> {
    let lo = crate::stats::min(values).unwrap_or(0.0);
    let hi = crate::stats::max(values).unwrap_or(0.0);
    let range = hi - lo;
    if range < 1e-12 {
        return vec![0.5; values.len()];
    }
    values.iter().map(|v| (v - lo) / range).collect()
}

/// Removes the least-squares linear trend from a slice.
///
/// Fits `y = a + b·t` by ordinary least squares over `t = 0..n` and returns
/// the residuals. Series shorter than 2 points are returned unchanged.
pub fn detrend(values: &[f64]) -> Vec<f64> {
    let n = values.len();
    if n < 2 {
        return values.to_vec();
    }
    let nf = n as f64;
    let t_mean = (nf - 1.0) / 2.0;
    let y_mean = crate::stats::mean(values);
    let mut num = 0.0;
    let mut den = 0.0;
    for (i, &y) in values.iter().enumerate() {
        let dt = i as f64 - t_mean;
        num += dt * (y - y_mean);
        den += dt * dt;
    }
    let slope = if den.abs() < 1e-300 { 0.0 } else { num / den };
    let intercept = y_mean - slope * t_mean;
    values
        .iter()
        .enumerate()
        .map(|(i, &y)| y - (intercept + slope * i as f64))
        .collect()
}

/// First-order differencing: `d[i] = v[i+1] - v[i]`. Returns an empty vector
/// for series shorter than 2 points.
pub fn difference(values: &[f64]) -> Vec<f64> {
    if values.len() < 2 {
        return Vec::new();
    }
    values.windows(2).map(|w| w[1] - w[0]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn znormalize_properties() {
        let v = [2.0, 4.0, 6.0, 8.0];
        let z = znormalize(&v);
        assert!(crate::stats::mean(&z).abs() < 1e-12);
        assert!((crate::stats::std(&z) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn znormalize_constant() {
        assert_eq!(znormalize(&[3.0, 3.0, 3.0]), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn minmax_bounds() {
        let v = [5.0, 10.0, 7.5];
        let m = minmax_scale(&v);
        assert_eq!(m[0], 0.0);
        assert_eq!(m[1], 1.0);
        assert!((m[2] - 0.5).abs() < 1e-12);
        assert_eq!(minmax_scale(&[2.0, 2.0]), vec![0.5, 0.5]);
    }

    #[test]
    fn detrend_removes_linear_ramp() {
        let v: Vec<f64> = (0..50).map(|i| 3.0 + 0.7 * i as f64).collect();
        let d = detrend(&v);
        assert!(d.iter().all(|x| x.abs() < 1e-9));
    }

    #[test]
    fn detrend_preserves_oscillation() {
        let v: Vec<f64> = (0..200)
            .map(|i| (i as f64 * 0.3).sin() + 0.05 * i as f64)
            .collect();
        let d = detrend(&v);
        // trend slope should be gone: regression slope of the output ~ 0
        let n = d.len() as f64;
        let t_mean = (n - 1.0) / 2.0;
        let y_mean = crate::stats::mean(&d);
        let mut num = 0.0;
        let mut den = 0.0;
        for (i, &y) in d.iter().enumerate() {
            num += (i as f64 - t_mean) * (y - y_mean);
            den += (i as f64 - t_mean) * (i as f64 - t_mean);
        }
        assert!((num / den).abs() < 1e-3);
    }

    #[test]
    fn difference_shrinks_by_one() {
        assert_eq!(difference(&[1.0, 4.0, 9.0]), vec![3.0, 5.0]);
        assert!(difference(&[1.0]).is_empty());
    }
}
