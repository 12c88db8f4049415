//! Feature scaling.
//!
//! Tree ensembles are insensitive to monotone feature transformations, but
//! SVM kernels are not: the paper min-max scales every feature into `[0, 1]`
//! before SVM training. Both a min-max scaler and a standard (z-score)
//! scaler are provided; each is fit on training data and then applied to
//! training and test matrices alike.

use crate::data::FeatureMatrix;
use crate::error::MlError;
use crate::Result;

/// Rejects NaN / ±inf anywhere in `what`, naming the first offending
/// column. Without this, `f64::min`/`max` silently *skip* NaN during `fit`
/// and `NaN.clamp(..)` stays NaN through `transform`, so one bad feature
/// poisons every downstream model without an error.
fn reject_non_finite(x: &FeatureMatrix, what: &str) -> Result<()> {
    for (i, row) in x.rows().enumerate() {
        for (j, &v) in row.iter().enumerate() {
            if !v.is_finite() {
                return Err(MlError::InvalidData(format!(
                    "non-finite value {v} in {what} (feature column {j}, row {i})"
                )));
            }
        }
    }
    Ok(())
}

/// Min-max scaler mapping each feature into `[0, 1]`.
#[derive(Debug, Clone, Default)]
pub struct MinMaxScaler {
    mins: Vec<f64>,
    ranges: Vec<f64>,
}

impl MinMaxScaler {
    /// Fits the scaler on a training matrix.
    pub fn fit(x: &FeatureMatrix) -> Result<Self> {
        if x.is_empty() {
            return Err(MlError::InvalidData(
                "cannot fit scaler on empty matrix".into(),
            ));
        }
        reject_non_finite(x, "min-max scaler fit input")?;
        let mut mins = vec![f64::INFINITY; x.n_cols()];
        let mut maxs = vec![f64::NEG_INFINITY; x.n_cols()];
        for row in x.rows() {
            for (j, &v) in row.iter().enumerate() {
                mins[j] = mins[j].min(v);
                maxs[j] = maxs[j].max(v);
            }
        }
        let ranges = mins
            .iter()
            .zip(maxs.iter())
            .map(|(lo, hi)| hi - lo)
            .collect();
        Ok(MinMaxScaler { mins, ranges })
    }

    /// Applies the fitted scaling. Constant features map to `0.5`; values
    /// outside the training range are clipped to `[0, 1]`. Non-finite
    /// inputs are rejected (NaN would survive the clamp otherwise).
    pub fn transform(&self, x: &FeatureMatrix) -> Result<FeatureMatrix> {
        let mut out = x.clone();
        self.transform_in_place(&mut out)?;
        Ok(out)
    }

    /// [`MinMaxScaler::transform`] overwriting `x` instead of copying it.
    pub fn transform_in_place(&self, x: &mut FeatureMatrix) -> Result<()> {
        if x.n_cols() != self.mins.len() {
            return Err(MlError::InvalidData(format!(
                "scaler fitted on {} features, got {}",
                self.mins.len(),
                x.n_cols()
            )));
        }
        reject_non_finite(x, "min-max scaler transform input")?;
        for i in 0..x.n_rows() {
            for j in 0..x.n_cols() {
                let v = if self.ranges[j] < 1e-12 {
                    0.5
                } else {
                    ((x.get(i, j) - self.mins[j]) / self.ranges[j]).clamp(0.0, 1.0)
                };
                x.set(i, j, v);
            }
        }
        Ok(())
    }

    /// Convenience: fit on `x` and transform it in one call.
    pub fn fit_transform(x: &FeatureMatrix) -> Result<(Self, FeatureMatrix)> {
        let scaler = Self::fit(x)?;
        let t = scaler.transform(x)?;
        Ok((scaler, t))
    }

    /// Serialises the fitted scaling parameters (raw `f64` bits, so restored
    /// scalers transform bit-identically).
    pub fn snapshot_bytes(&self, out: &mut Vec<u8>) {
        crate::snapshot::put_f64s(out, &self.mins);
        crate::snapshot::put_f64s(out, &self.ranges);
    }

    /// Rebuilds a fitted scaler from snapshot bytes; `None` on truncation or
    /// mismatched vector lengths (fails closed, like every snapshot reader).
    pub fn from_snapshot(r: &mut crate::snapshot::SnapReader<'_>) -> Option<Self> {
        let mins = r.f64s()?;
        let ranges = r.f64s()?;
        if mins.len() != ranges.len() {
            return None;
        }
        Some(MinMaxScaler { mins, ranges })
    }
}

/// Standard scaler mapping each feature to zero mean and unit variance.
#[derive(Debug, Clone, Default)]
pub struct StandardScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl StandardScaler {
    /// Fits the scaler on a training matrix.
    pub fn fit(x: &FeatureMatrix) -> Result<Self> {
        if x.is_empty() {
            return Err(MlError::InvalidData(
                "cannot fit scaler on empty matrix".into(),
            ));
        }
        reject_non_finite(x, "standard scaler fit input")?;
        let n = x.n_rows() as f64;
        let mut means = vec![0.0; x.n_cols()];
        for row in x.rows() {
            for (j, &v) in row.iter().enumerate() {
                means[j] += v;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut vars = vec![0.0; x.n_cols()];
        for row in x.rows() {
            for (j, &v) in row.iter().enumerate() {
                vars[j] += (v - means[j]) * (v - means[j]);
            }
        }
        let stds = vars.into_iter().map(|v| (v / n).sqrt()).collect();
        Ok(StandardScaler { means, stds })
    }

    /// Applies the fitted scaling; constant features map to zero.
    /// Non-finite inputs are rejected, mirroring [`MinMaxScaler`].
    pub fn transform(&self, x: &FeatureMatrix) -> Result<FeatureMatrix> {
        if x.n_cols() != self.means.len() {
            return Err(MlError::InvalidData(format!(
                "scaler fitted on {} features, got {}",
                self.means.len(),
                x.n_cols()
            )));
        }
        reject_non_finite(x, "standard scaler transform input")?;
        let mut out = x.clone();
        for i in 0..x.n_rows() {
            for j in 0..x.n_cols() {
                let v = if self.stds[j] < 1e-12 {
                    0.0
                } else {
                    (x.get(i, j) - self.means[j]) / self.stds[j]
                };
                out.set(i, j, v);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> FeatureMatrix {
        FeatureMatrix::from_rows(&[
            vec![0.0, 10.0, 5.0],
            vec![5.0, 20.0, 5.0],
            vec![10.0, 40.0, 5.0],
        ])
        .unwrap()
    }

    #[test]
    fn minmax_maps_training_data_into_unit_interval() {
        let (scaler, t) = MinMaxScaler::fit_transform(&toy()).unwrap();
        assert_eq!(t.get(0, 0), 0.0);
        assert_eq!(t.get(2, 0), 1.0);
        assert!((t.get(1, 0) - 0.5).abs() < 1e-12);
        // constant column maps to 0.5
        assert_eq!(t.get(0, 2), 0.5);
        // out-of-range test data is clipped
        let test = FeatureMatrix::from_rows(&[vec![-10.0, 100.0, 7.0]]).unwrap();
        let tt = scaler.transform(&test).unwrap();
        assert_eq!(tt.get(0, 0), 0.0);
        assert_eq!(tt.get(0, 1), 1.0);
    }

    #[test]
    fn standard_scaler_zero_mean_unit_variance() {
        let x = toy();
        let scaler = StandardScaler::fit(&x).unwrap();
        let t = scaler.transform(&x).unwrap();
        for j in 0..2 {
            let col = t.column(j);
            let mean: f64 = col.iter().sum::<f64>() / col.len() as f64;
            let var: f64 =
                col.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / col.len() as f64;
            assert!(mean.abs() < 1e-12);
            assert!((var - 1.0).abs() < 1e-9);
        }
        // constant column → zeros
        assert!(t.column(2).iter().all(|v| *v == 0.0));
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let scaler = MinMaxScaler::fit(&toy()).unwrap();
        let bad = FeatureMatrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        assert!(scaler.transform(&bad).is_err());
        assert!(MinMaxScaler::fit(&FeatureMatrix::default()).is_err());
        assert!(StandardScaler::fit(&FeatureMatrix::default()).is_err());
    }

    // Regression: `f64::min`/`max` skip NaN, so a NaN column used to fit
    // "successfully" (mins stayed +inf) and `NaN.clamp(0, 1)` stayed NaN
    // through transform — the fitted model then consumed NaN silently.
    #[test]
    fn non_finite_fit_input_is_rejected_with_named_column() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let x = FeatureMatrix::from_rows(&[vec![0.0, 1.0, 2.0], vec![1.0, bad, 3.0]]).unwrap();
            let err = MinMaxScaler::fit(&x).unwrap_err().to_string();
            assert!(err.contains("feature column 1"), "{err}");
            assert!(err.contains("row 1"), "{err}");
            let err = StandardScaler::fit(&x).unwrap_err().to_string();
            assert!(err.contains("feature column 1"), "{err}");
        }
    }

    #[test]
    fn non_finite_transform_input_is_rejected() {
        let x = toy();
        let minmax = MinMaxScaler::fit(&x).unwrap();
        let standard = StandardScaler::fit(&x).unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let t = FeatureMatrix::from_rows(&[vec![1.0, 2.0, bad]]).unwrap();
            let err = minmax.transform(&t).unwrap_err().to_string();
            assert!(err.contains("feature column 2"), "{err}");
            let err = standard.transform(&t).unwrap_err().to_string();
            assert!(err.contains("feature column 2"), "{err}");
        }
        // finite out-of-range data still transforms (clipped), as before
        let ok = FeatureMatrix::from_rows(&[vec![1e12, -1e12, 0.0]]).unwrap();
        assert!(minmax.transform(&ok).is_ok());
        assert!(standard.transform(&ok).is_ok());
    }
}
