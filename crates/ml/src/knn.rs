//! k-nearest-neighbour classification over feature vectors.
//!
//! The 1NN time series baselines (1NN-ED / 1NN-DTW) operate on raw series in
//! the `tsg-baselines` crate; this classifier works on extracted feature
//! vectors with Euclidean distance and is mainly used as a sanity baseline
//! and in tests.

use crate::data::{n_classes, FeatureMatrix};
use crate::error::MlError;
use crate::traits::Classifier;
use crate::Result;

/// k-nearest-neighbour classifier with Euclidean distance and majority vote.
#[derive(Debug, Clone)]
pub struct KnnClassifier {
    k: usize,
    train_x: FeatureMatrix,
    train_y: Vec<usize>,
    n_classes: usize,
}

impl KnnClassifier {
    /// Creates a classifier with the given `k` (must be ≥ 1).
    pub fn new(k: usize) -> Self {
        KnnClassifier {
            k: k.max(1),
            train_x: FeatureMatrix::default(),
            train_y: Vec::new(),
            n_classes: 0,
        }
    }
}

impl Classifier for KnnClassifier {
    fn fit(&mut self, x: &FeatureMatrix, y: &[usize]) -> Result<()> {
        if x.is_empty() || x.n_rows() != y.len() {
            return Err(MlError::InvalidData(
                "empty or mismatched training data".into(),
            ));
        }
        self.train_x = x.clone();
        self.train_y = y.to_vec();
        self.n_classes = n_classes(y);
        Ok(())
    }

    fn predict_proba(&self, x: &FeatureMatrix) -> Result<Vec<Vec<f64>>> {
        if self.train_x.is_empty() {
            return Err(MlError::NotFitted);
        }
        let k = self.k.min(self.train_x.n_rows());
        Ok(x.rows()
            .map(|row| {
                let mut dists: Vec<(f64, usize)> = self
                    .train_x
                    .rows()
                    .zip(self.train_y.iter())
                    .map(|(t, &label)| {
                        let d: f64 = t
                            .iter()
                            .zip(row.iter())
                            .map(|(a, b)| (a - b) * (a - b))
                            .sum();
                        (d, label)
                    })
                    .collect();
                dists.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
                let mut votes = vec![0.0; self.n_classes];
                for &(_, label) in dists.iter().take(k) {
                    votes[label] += 1.0;
                }
                for v in &mut votes {
                    *v /= k as f64;
                }
                votes
            })
            .collect())
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn describe(&self) -> String {
        format!("KNN(k={})", self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;

    #[test]
    fn one_nearest_neighbour_memorises_training_set() {
        let x = FeatureMatrix::from_rows(&[vec![0.0], vec![1.0], vec![10.0], vec![11.0]]).unwrap();
        let y = vec![0, 0, 1, 1];
        let mut knn = KnnClassifier::new(1);
        knn.fit(&x, &y).unwrap();
        assert_eq!(knn.predict(&x).unwrap(), y);
        let test = FeatureMatrix::from_rows(&[vec![0.4], vec![10.6]]).unwrap();
        assert_eq!(knn.predict(&test).unwrap(), vec![0, 1]);
    }

    #[test]
    fn k_three_majority_vote() {
        let x = FeatureMatrix::from_rows(&[vec![0.0], vec![0.1], vec![0.2], vec![5.0]]).unwrap();
        let y = vec![0, 0, 1, 1];
        let mut knn = KnnClassifier::new(3);
        knn.fit(&x, &y).unwrap();
        let test = FeatureMatrix::from_rows(&[vec![0.05]]).unwrap();
        // 3 nearest are labels 0, 0, 1 → majority 0
        assert_eq!(knn.predict(&test).unwrap(), vec![0]);
        let proba = &knn.predict_proba(&test).unwrap()[0];
        assert!((proba[0] - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn accuracy_on_separated_clusters() {
        let rows: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![(i % 3) as f64 * 10.0 + (i / 3) as f64 * 0.05])
            .collect();
        let labels: Vec<usize> = (0..60).map(|i| i % 3).collect();
        let x = FeatureMatrix::from_rows(&rows).unwrap();
        let mut knn = KnnClassifier::new(5);
        knn.fit(&x, &labels).unwrap();
        assert!(accuracy(&labels, &knn.predict(&x).unwrap()) > 0.95);
    }

    #[test]
    fn unfitted_errors() {
        let knn = KnnClassifier::new(1);
        let x = FeatureMatrix::from_rows(&[vec![0.0]]).unwrap();
        assert!(knn.predict_proba(&x).is_err());
    }
}
