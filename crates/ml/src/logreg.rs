//! Multinomial logistic regression trained by batch gradient descent.
//!
//! Used directly as a baseline classifier family and as the meta-learner that
//! computes estimator weights in the stacking ensemble (Algorithm 2, line 13).

use crate::data::{n_classes, FeatureMatrix};
use crate::error::MlError;
use crate::traits::{softmax, Classifier};
use crate::Result;

/// Hyper-parameters for [`LogisticRegression`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogisticRegressionParams {
    /// Learning rate.
    pub learning_rate: f64,
    /// Number of gradient descent epochs.
    pub n_epochs: usize,
    /// L2 regularisation strength.
    pub l2: f64,
}

impl Default for LogisticRegressionParams {
    fn default() -> Self {
        LogisticRegressionParams {
            learning_rate: 0.5,
            n_epochs: 300,
            l2: 1e-4,
        }
    }
}

/// Multinomial (softmax) logistic regression.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    params: LogisticRegressionParams,
    /// `weights[class][feature]`, last entry per class is the bias.
    weights: Vec<Vec<f64>>,
    n_classes: usize,
}

impl LogisticRegression {
    /// Creates an unfitted model.
    pub fn new(params: LogisticRegressionParams) -> Self {
        LogisticRegression {
            params,
            weights: Vec::new(),
            n_classes: 0,
        }
    }

    /// The learned weight matrix (one row per class, bias last); empty before
    /// fitting. Exposed so the stacking layer can report estimator weights.
    pub fn weights(&self) -> &[Vec<f64>] {
        &self.weights
    }

    fn logits(&self, row: &[f64]) -> Vec<f64> {
        self.weights
            .iter()
            .map(|w| {
                let bias = w[w.len() - 1];
                w[..w.len() - 1]
                    .iter()
                    .zip(row.iter())
                    .map(|(wi, xi)| wi * xi)
                    .sum::<f64>()
                    + bias
            })
            .collect()
    }
}

impl Classifier for LogisticRegression {
    // index notation (grad[class][j], weights[class][j], y[i]) mirrors the
    // multinomial gradient equations; iterator chains would obscure them
    #[allow(clippy::needless_range_loop)]
    fn fit(&mut self, x: &FeatureMatrix, y: &[usize]) -> Result<()> {
        if x.is_empty() || x.n_rows() != y.len() {
            return Err(MlError::InvalidData(
                "empty or mismatched training data".into(),
            ));
        }
        let n = x.n_rows();
        let d = x.n_cols();
        let k = n_classes(y);
        self.n_classes = k;
        self.weights = vec![vec![0.0; d + 1]; k];
        for _ in 0..self.params.n_epochs {
            // accumulate batch gradient
            let mut grad = vec![vec![0.0f64; d + 1]; k];
            for i in 0..n {
                let row = x.row(i);
                let p = softmax(&self.logits(row));
                for class in 0..k {
                    let target = if y[i] == class { 1.0 } else { 0.0 };
                    let delta = p[class] - target;
                    for j in 0..d {
                        grad[class][j] += delta * row[j];
                    }
                    grad[class][d] += delta;
                }
            }
            let lr = self.params.learning_rate / n as f64;
            for class in 0..k {
                for j in 0..=d {
                    let reg = if j < d {
                        self.params.l2 * self.weights[class][j]
                    } else {
                        0.0
                    };
                    self.weights[class][j] -= lr * grad[class][j] + reg;
                }
            }
        }
        Ok(())
    }

    fn predict_proba(&self, x: &FeatureMatrix) -> Result<Vec<Vec<f64>>> {
        if self.weights.is_empty() {
            return Err(MlError::NotFitted);
        }
        Ok(x.rows().map(|row| softmax(&self.logits(row))).collect())
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn describe(&self) -> String {
        format!(
            "LogisticRegression(lr={}, epochs={})",
            self.params.learning_rate, self.params.n_epochs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;

    fn two_gaussians() -> (FeatureMatrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        let mut state = 5u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        for i in 0..100 {
            let label = i % 2;
            let offset = label as f64 * 3.0;
            rows.push(vec![offset + next(), offset + next()]);
            labels.push(label);
        }
        (FeatureMatrix::from_rows(&rows).unwrap(), labels)
    }

    #[test]
    fn separates_gaussians() {
        let (x, y) = two_gaussians();
        let mut lr = LogisticRegression::new(LogisticRegressionParams::default());
        lr.fit(&x, &y).unwrap();
        assert!(accuracy(&y, &lr.predict(&x).unwrap()) > 0.95);
        assert_eq!(lr.n_classes(), 2);
        assert_eq!(lr.weights().len(), 2);
    }

    #[test]
    fn three_class_softmax() {
        let rows: Vec<Vec<f64>> = (0..90).map(|i| vec![(i / 30) as f64 * 2.0]).collect();
        let labels: Vec<usize> = (0..90).map(|i| i / 30).collect();
        let x = FeatureMatrix::from_rows(&rows).unwrap();
        let mut lr = LogisticRegression::new(LogisticRegressionParams {
            n_epochs: 800,
            learning_rate: 1.0,
            ..Default::default()
        });
        lr.fit(&x, &labels).unwrap();
        assert!(accuracy(&labels, &lr.predict(&x).unwrap()) > 0.9);
        for p in lr.predict_proba(&x).unwrap() {
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn errors_on_unfitted_or_bad_input() {
        let lr = LogisticRegression::new(LogisticRegressionParams::default());
        let x = FeatureMatrix::from_rows(&[vec![0.0]]).unwrap();
        assert!(lr.predict_proba(&x).is_err());
        let mut lr = LogisticRegression::new(LogisticRegressionParams::default());
        assert!(lr.fit(&FeatureMatrix::default(), &[]).is_err());
    }
}
