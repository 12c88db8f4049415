//! Support Vector Machine trained with Sequential Minimal Optimization.
//!
//! Binary soft-margin SVM (Platt's simplified SMO) with linear or RBF
//! kernels, extended to multi-class with a one-vs-rest scheme. Probabilities
//! are obtained by passing decision values through a logistic link and
//! normalising — sufficient for ranking estimators with log-loss during
//! model selection and for stacking.

use crate::data::{n_classes, FeatureMatrix};
use crate::error::MlError;
use crate::traits::{normalize_proba, Classifier};
use crate::Result;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Kernel function choice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SvmKernel {
    /// Plain dot product.
    Linear,
    /// Gaussian radial basis function `exp(-gamma ||x - y||²)`.
    Rbf {
        /// Kernel bandwidth.
        gamma: f64,
    },
}

impl SvmKernel {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        match self {
            SvmKernel::Linear => a.iter().zip(b.iter()).map(|(x, y)| x * y).sum(),
            SvmKernel::Rbf { gamma } => {
                let sq: f64 = a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum();
                (-gamma * sq).exp()
            }
        }
    }
}

/// Hyper-parameters for [`SvmClassifier`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SvmParams {
    /// Soft-margin penalty.
    pub c: f64,
    /// Kernel.
    pub kernel: SvmKernel,
    /// KKT violation tolerance.
    pub tolerance: f64,
    /// Number of passes without updates before stopping.
    pub max_passes: usize,
    /// Hard cap on optimisation sweeps.
    pub max_iterations: usize,
    /// Seed for the SMO partner selection.
    pub seed: u64,
}

impl Default for SvmParams {
    fn default() -> Self {
        SvmParams {
            c: 1.0,
            kernel: SvmKernel::Rbf { gamma: 1.0 },
            tolerance: 1e-3,
            max_passes: 3,
            max_iterations: 200,
            seed: 0,
        }
    }
}

/// One binary SVM (labels ±1) trained by simplified SMO.
#[derive(Debug, Clone)]
struct BinarySvm {
    alphas: Vec<f64>,
    bias: f64,
    support_rows: Vec<Vec<f64>>,
    support_targets: Vec<f64>,
    kernel: SvmKernel,
}

impl BinarySvm {
    fn train(x: &FeatureMatrix, targets: &[f64], params: &SvmParams, seed: u64) -> Self {
        let n = x.n_rows();
        let mut alphas = vec![0.0f64; n];
        let mut bias = 0.0f64;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // precompute the kernel matrix (training sets in this pipeline are
        // modest; memory is n², acceptable for the paper's dataset sizes)
        let mut kmat = vec![0.0f64; n * n];
        for i in 0..n {
            for j in i..n {
                let k = params.kernel.eval(x.row(i), x.row(j));
                kmat[i * n + j] = k;
                kmat[j * n + i] = k;
            }
        }
        let f = |alphas: &[f64], bias: f64, i: usize| -> f64 {
            let mut s = bias;
            for j in 0..n {
                if alphas[j] != 0.0 {
                    s += alphas[j] * targets[j] * kmat[i * n + j];
                }
            }
            s
        };
        let mut passes = 0usize;
        let mut iterations = 0usize;
        while passes < params.max_passes && iterations < params.max_iterations {
            let mut changed = 0usize;
            for i in 0..n {
                let e_i = f(&alphas, bias, i) - targets[i];
                let violates = (targets[i] * e_i < -params.tolerance && alphas[i] < params.c)
                    || (targets[i] * e_i > params.tolerance && alphas[i] > 0.0);
                if !violates {
                    continue;
                }
                let mut j = rng.gen_range(0..n - 1);
                if j >= i {
                    j += 1;
                }
                let e_j = f(&alphas, bias, j) - targets[j];
                let (alpha_i_old, alpha_j_old) = (alphas[i], alphas[j]);
                let (low, high) = if (targets[i] - targets[j]).abs() > 1e-12 {
                    (
                        (alphas[j] - alphas[i]).max(0.0),
                        (params.c + alphas[j] - alphas[i]).min(params.c),
                    )
                } else {
                    (
                        (alphas[i] + alphas[j] - params.c).max(0.0),
                        (alphas[i] + alphas[j]).min(params.c),
                    )
                };
                if (high - low).abs() < 1e-12 {
                    continue;
                }
                let eta = 2.0 * kmat[i * n + j] - kmat[i * n + i] - kmat[j * n + j];
                if eta >= 0.0 {
                    continue;
                }
                let mut alpha_j = alpha_j_old - targets[j] * (e_i - e_j) / eta;
                alpha_j = alpha_j.clamp(low, high);
                if (alpha_j - alpha_j_old).abs() < 1e-6 {
                    continue;
                }
                let alpha_i = alpha_i_old + targets[i] * targets[j] * (alpha_j_old - alpha_j);
                alphas[i] = alpha_i;
                alphas[j] = alpha_j;
                let b1 = bias
                    - e_i
                    - targets[i] * (alpha_i - alpha_i_old) * kmat[i * n + i]
                    - targets[j] * (alpha_j - alpha_j_old) * kmat[i * n + j];
                let b2 = bias
                    - e_j
                    - targets[i] * (alpha_i - alpha_i_old) * kmat[i * n + j]
                    - targets[j] * (alpha_j - alpha_j_old) * kmat[j * n + j];
                bias = if alpha_i > 0.0 && alpha_i < params.c {
                    b1
                } else if alpha_j > 0.0 && alpha_j < params.c {
                    b2
                } else {
                    0.5 * (b1 + b2)
                };
                changed += 1;
            }
            if changed == 0 {
                passes += 1;
            } else {
                passes = 0;
            }
            iterations += 1;
        }
        // keep only support vectors
        let mut support_rows = Vec::new();
        let mut support_targets = Vec::new();
        let mut support_alphas = Vec::new();
        for i in 0..n {
            if alphas[i] > 1e-8 {
                support_rows.push(x.row(i).to_vec());
                support_targets.push(targets[i]);
                support_alphas.push(alphas[i]);
            }
        }
        BinarySvm {
            alphas: support_alphas,
            bias,
            support_rows,
            support_targets,
            kernel: params.kernel,
        }
    }

    fn decision(&self, row: &[f64]) -> f64 {
        let mut s = self.bias;
        for ((alpha, target), sv) in self
            .alphas
            .iter()
            .zip(self.support_targets.iter())
            .zip(self.support_rows.iter())
        {
            s += alpha * target * self.kernel.eval(sv, row);
        }
        s
    }
}

/// One-vs-rest kernel SVM classifier.
#[derive(Debug, Clone)]
pub struct SvmClassifier {
    params: SvmParams,
    machines: Vec<BinarySvm>,
    n_classes: usize,
}

impl SvmClassifier {
    /// Creates an unfitted classifier.
    pub fn new(params: SvmParams) -> Self {
        SvmClassifier {
            params,
            machines: Vec::new(),
            n_classes: 0,
        }
    }
}

impl Classifier for SvmClassifier {
    fn fit(&mut self, x: &FeatureMatrix, y: &[usize]) -> Result<()> {
        if x.is_empty() || x.n_rows() != y.len() {
            return Err(MlError::InvalidData(
                "empty or mismatched training data".into(),
            ));
        }
        if self.params.c <= 0.0 {
            return Err(MlError::invalid("c", "must be positive"));
        }
        self.n_classes = n_classes(y);
        self.machines.clear();
        if self.n_classes < 2 {
            return Err(MlError::InvalidData("need at least two classes".into()));
        }
        for class in 0..self.n_classes {
            let targets: Vec<f64> = y
                .iter()
                .map(|&l| if l == class { 1.0 } else { -1.0 })
                .collect();
            let machine =
                BinarySvm::train(x, &targets, &self.params, self.params.seed + class as u64);
            self.machines.push(machine);
        }
        Ok(())
    }

    fn predict_proba(&self, x: &FeatureMatrix) -> Result<Vec<Vec<f64>>> {
        if self.machines.is_empty() {
            return Err(MlError::NotFitted);
        }
        Ok(x.rows()
            .map(|row| {
                let mut scores: Vec<f64> = self
                    .machines
                    .iter()
                    .map(|m| 1.0 / (1.0 + (-m.decision(row)).exp()))
                    .collect();
                normalize_proba(&mut scores);
                scores
            })
            .collect())
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn describe(&self) -> String {
        match self.params.kernel {
            SvmKernel::Linear => format!("SVM(linear, C={})", self.params.c),
            SvmKernel::Rbf { gamma } => format!("SVM(rbf, C={}, gamma={})", self.params.c, gamma),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;

    fn linearly_separable() -> (FeatureMatrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        let mut state = 17u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) * 0.5
        };
        for i in 0..60 {
            let label = i % 2;
            let offset = if label == 0 { 0.0 } else { 2.0 };
            rows.push(vec![offset + next(), offset + next()]);
            labels.push(label);
        }
        (FeatureMatrix::from_rows(&rows).unwrap(), labels)
    }

    #[test]
    fn separates_linear_data_with_linear_kernel() {
        let (x, y) = linearly_separable();
        let mut svm = SvmClassifier::new(SvmParams {
            kernel: SvmKernel::Linear,
            c: 10.0,
            ..Default::default()
        });
        svm.fit(&x, &y).unwrap();
        assert!(accuracy(&y, &svm.predict(&x).unwrap()) > 0.95);
    }

    #[test]
    fn rbf_kernel_handles_circular_data() {
        // class 0 inside the unit circle, class 1 outside
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..80 {
            let angle = i as f64 * 0.5;
            let r = if i % 2 == 0 { 0.4 } else { 2.0 };
            rows.push(vec![r * angle.cos(), r * angle.sin()]);
            labels.push(i % 2);
        }
        let x = FeatureMatrix::from_rows(&rows).unwrap();
        let mut svm = SvmClassifier::new(SvmParams {
            kernel: SvmKernel::Rbf { gamma: 1.0 },
            c: 10.0,
            ..Default::default()
        });
        svm.fit(&x, &labels).unwrap();
        assert!(accuracy(&labels, &svm.predict(&x).unwrap()) > 0.9);
    }

    #[test]
    fn multiclass_one_vs_rest() {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..90 {
            let class = i / 30;
            rows.push(vec![class as f64 * 3.0 + (i % 30) as f64 * 0.01, 0.0]);
            labels.push(class);
        }
        let x = FeatureMatrix::from_rows(&rows).unwrap();
        let mut svm = SvmClassifier::new(SvmParams {
            kernel: SvmKernel::Linear,
            c: 5.0,
            ..Default::default()
        });
        svm.fit(&x, &labels).unwrap();
        assert_eq!(svm.n_classes(), 3);
        assert!(accuracy(&labels, &svm.predict(&x).unwrap()) > 0.9);
        for p in svm.predict_proba(&x).unwrap() {
            assert_eq!(p.len(), 3);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn invalid_inputs_rejected() {
        let (x, y) = linearly_separable();
        let mut svm = SvmClassifier::new(SvmParams {
            c: -1.0,
            ..Default::default()
        });
        assert!(svm.fit(&x, &y).is_err());
        let svm = SvmClassifier::new(SvmParams::default());
        assert!(svm.predict_proba(&x).is_err());
        let mut svm = SvmClassifier::new(SvmParams::default());
        assert!(svm.fit(&x, &vec![0; x.n_rows()]).is_err()); // single class
    }
}
