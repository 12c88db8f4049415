//! Dense feature matrices, stratified folds and oversampling.

use crate::error::MlError;
use crate::Result;
use rand::seq::SliceRandom;
use rand::Rng;

/// A dense row-major feature matrix.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FeatureMatrix {
    data: Vec<f64>,
    n_rows: usize,
    n_cols: usize,
}

impl FeatureMatrix {
    /// Creates a matrix from row vectors. All rows must have equal length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() {
            return Ok(FeatureMatrix::default());
        }
        let n_cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * n_cols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != n_cols {
                return Err(MlError::InvalidData(format!(
                    "row {i} has {} columns, expected {n_cols}",
                    row.len()
                )));
            }
            data.extend_from_slice(row);
        }
        Ok(FeatureMatrix {
            data,
            n_rows: rows.len(),
            n_cols,
        })
    }

    /// Creates a matrix from a flat row-major buffer.
    pub fn from_flat(data: Vec<f64>, n_rows: usize, n_cols: usize) -> Result<Self> {
        if data.len() != n_rows * n_cols {
            return Err(MlError::InvalidData(format!(
                "buffer of length {} cannot be a {n_rows}x{n_cols} matrix",
                data.len()
            )));
        }
        Ok(FeatureMatrix {
            data,
            n_rows,
            n_cols,
        })
    }

    /// Number of rows (samples).
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns (features).
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Whether the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// The `i`-th row.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n_cols..(i + 1) * self.n_cols]
    }

    /// One column as an owned vector.
    pub fn column(&self, j: usize) -> Vec<f64> {
        (0..self.n_rows).map(|i| self.get(i, j)).collect()
    }

    /// The value at `(i, j)`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n_cols + j]
    }

    /// Sets the value at `(i, j)`.
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        self.data[i * self.n_cols + j] = value;
    }

    /// A new matrix consisting of the selected rows (cloned).
    pub fn select_rows(&self, indices: &[usize]) -> FeatureMatrix {
        let mut data = Vec::with_capacity(indices.len() * self.n_cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        FeatureMatrix {
            data,
            n_rows: indices.len(),
            n_cols: self.n_cols,
        }
    }

    /// Iterates over rows.
    pub fn rows(&self) -> impl Iterator<Item = &[f64]> {
        (0..self.n_rows).map(move |i| self.row(i))
    }
}

/// Number of distinct classes, assuming labels are dense `0..k` indices.
pub fn n_classes(labels: &[usize]) -> usize {
    labels.iter().copied().max().map(|m| m + 1).unwrap_or(0)
}

/// Per-class counts, indexed by label.
pub fn class_counts(labels: &[usize]) -> Vec<usize> {
    let k = n_classes(labels);
    let mut counts = vec![0usize; k];
    for &l in labels {
        counts[l] += 1;
    }
    counts
}

/// Stratified k-fold splitter: every fold preserves the class balance of the
/// full label vector as closely as possible.
#[derive(Debug, Clone)]
pub struct StratifiedKFold {
    n_splits: usize,
    seed: u64,
}

impl StratifiedKFold {
    /// Creates a splitter with `n_splits` folds (must be ≥ 2).
    pub fn new(n_splits: usize, seed: u64) -> Result<Self> {
        if n_splits < 2 {
            return Err(MlError::invalid("n_splits", "must be at least 2"));
        }
        Ok(StratifiedKFold { n_splits, seed })
    }

    /// Produces `(train_indices, validation_indices)` pairs, one per fold.
    ///
    /// Classes with fewer samples than folds still appear in every training
    /// split; their few samples are spread over the validation folds.
    pub fn split(&self, labels: &[usize]) -> Vec<(Vec<usize>, Vec<usize>)> {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(self.seed);
        let k = n_classes(labels);
        // shuffle indices within each class, then deal them round-robin
        let mut fold_of = vec![0usize; labels.len()];
        for class in 0..k {
            let mut idx: Vec<usize> = (0..labels.len()).filter(|&i| labels[i] == class).collect();
            idx.shuffle(&mut rng);
            for (pos, &i) in idx.iter().enumerate() {
                fold_of[i] = pos % self.n_splits;
            }
        }
        (0..self.n_splits)
            .map(|fold| {
                let mut train = Vec::new();
                let mut valid = Vec::new();
                for (i, &f) in fold_of.iter().enumerate() {
                    if f == fold {
                        valid.push(i);
                    } else {
                        train.push(i);
                    }
                }
                (train, valid)
            })
            .collect()
    }
}

/// Randomly oversamples minority classes until every class has as many
/// samples as the largest class. Returns the indices (into the original
/// arrays) of the resampled training set; the original indices always appear
/// first so no information is lost.
pub fn random_oversample<R: Rng + ?Sized>(labels: &[usize], rng: &mut R) -> Vec<usize> {
    let counts = class_counts(labels);
    let max_count = counts.iter().copied().max().unwrap_or(0);
    let mut out: Vec<usize> = (0..labels.len()).collect();
    for (class, &count) in counts.iter().enumerate() {
        if count == 0 || count == max_count {
            continue;
        }
        let members: Vec<usize> = (0..labels.len()).filter(|&i| labels[i] == class).collect();
        for _ in 0..(max_count - count) {
            out.push(members[rng.gen_range(0..members.len())]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn matrix_construction_and_access() {
        let m =
            FeatureMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        assert_eq!(m.n_rows(), 3);
        assert_eq!(m.n_cols(), 2);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.get(2, 1), 6.0);
        assert_eq!(m.column(0), vec![1.0, 3.0, 5.0]);
        assert!(!m.is_empty());
        assert!(FeatureMatrix::from_rows(&[]).unwrap().is_empty());
    }

    #[test]
    fn ragged_rows_rejected() {
        assert!(FeatureMatrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(FeatureMatrix::from_flat(vec![1.0; 5], 2, 2).is_err());
    }

    #[test]
    fn select_rows_reorders() {
        let m =
            FeatureMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        let s = m.select_rows(&[2, 0]);
        assert_eq!(s.row(0), &[5.0, 6.0]);
        assert_eq!(s.row(1), &[1.0, 2.0]);
    }

    #[test]
    fn class_count_helpers() {
        let labels = [0, 1, 1, 2, 2, 2];
        assert_eq!(n_classes(&labels), 3);
        assert_eq!(class_counts(&labels), vec![1, 2, 3]);
        assert_eq!(n_classes(&[]), 0);
    }

    #[test]
    fn stratified_folds_preserve_balance() {
        // 30 samples of class 0, 15 of class 1, 6 of class 2
        let mut labels = vec![0usize; 30];
        labels.extend(vec![1usize; 15]);
        labels.extend(vec![2usize; 6]);
        let folds = StratifiedKFold::new(3, 7).unwrap().split(&labels);
        assert_eq!(folds.len(), 3);
        for (train, valid) in &folds {
            assert_eq!(train.len() + valid.len(), labels.len());
            // each validation fold should hold roughly a third of each class
            let c = class_counts(&valid.iter().map(|&i| labels[i]).collect::<Vec<_>>());
            assert_eq!(c[0], 10);
            assert_eq!(c[1], 5);
            assert_eq!(c[2], 2);
            // no overlap
            for i in valid {
                assert!(!train.contains(i));
            }
        }
    }

    #[test]
    fn stratified_folds_are_seed_reproducible() {
        let labels: Vec<usize> = (0..57).map(|i| i % 3).collect();
        let reference = StratifiedKFold::new(3, 42).unwrap().split(&labels);
        // the same seed must reproduce identical folds on every call
        for _ in 0..3 {
            assert_eq!(
                StratifiedKFold::new(3, 42).unwrap().split(&labels),
                reference
            );
        }
        // and a different seed must actually reshuffle
        assert_ne!(
            StratifiedKFold::new(3, 43).unwrap().split(&labels),
            reference
        );
    }

    #[test]
    fn stratified_folds_with_tiny_classes() {
        let labels = vec![0, 0, 0, 0, 0, 1, 2];
        let folds = StratifiedKFold::new(3, 1).unwrap().split(&labels);
        for (train, valid) in &folds {
            assert!(!train.is_empty());
            assert!(!valid.is_empty() || valid.is_empty()); // folds may be small but never panic
            assert_eq!(train.len() + valid.len(), labels.len());
        }
        assert!(StratifiedKFold::new(1, 0).is_err());
    }

    #[test]
    fn oversampling_balances_classes() {
        let labels = vec![0, 0, 0, 0, 0, 0, 1, 1, 2];
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let resampled = random_oversample(&labels, &mut rng);
        let new_labels: Vec<usize> = resampled.iter().map(|&i| labels[i]).collect();
        let counts = class_counts(&new_labels);
        assert_eq!(counts, vec![6, 6, 6]);
        // original indices preserved as a prefix
        assert_eq!(
            &resampled[..labels.len()],
            &(0..labels.len()).collect::<Vec<_>>()[..]
        );
    }

    #[test]
    fn oversampling_noop_when_balanced() {
        let labels = vec![0, 1, 0, 1];
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        assert_eq!(random_oversample(&labels, &mut rng).len(), 4);
    }
}
