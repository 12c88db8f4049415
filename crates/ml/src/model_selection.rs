//! Cross-validation and grid search.
//!
//! The paper tunes each classifier family by stratified 3-fold
//! cross-validation scored with cross-entropy (equation 5), searching a small
//! hyper-parameter grid. The components here are classifier-agnostic: models
//! are supplied as *builder* closures so the same machinery drives XGBoost-
//! style boosting, random forests and SVMs, as well as the per-family
//! selection step of the stacking ensemble.

use crate::data::{FeatureMatrix, StratifiedKFold};
use crate::error::MlError;
use crate::metrics::log_loss;
use crate::traits::Classifier;
use crate::Result;
use tsg_parallel::ThreadPool;

/// A closure that produces a fresh, unfitted classifier.
pub type ClassifierBuilder = Box<dyn Fn() -> Box<dyn Classifier> + Send + Sync>;

/// Mean cross-validated log-loss of the model produced by `builder`.
///
/// Folds are stratified; the same seed yields the same folds across calls so
/// different candidates are compared on identical splits.
pub fn cross_val_log_loss(
    builder: &dyn Fn() -> Box<dyn Classifier>,
    x: &FeatureMatrix,
    y: &[usize],
    n_folds: usize,
    seed: u64,
) -> Result<f64> {
    if x.n_rows() != y.len() || x.is_empty() {
        return Err(MlError::InvalidData("empty or mismatched data".into()));
    }
    let folds = StratifiedKFold::new(n_folds, seed)?.split(y);
    let mut total = 0.0;
    let mut used = 0usize;
    for (train_idx, valid_idx) in folds {
        if train_idx.is_empty() || valid_idx.is_empty() {
            continue;
        }
        let x_train = x.select_rows(&train_idx);
        let y_train: Vec<usize> = train_idx.iter().map(|&i| y[i]).collect();
        let x_valid = x.select_rows(&valid_idx);
        let y_valid: Vec<usize> = valid_idx.iter().map(|&i| y[i]).collect();
        let mut model = builder();
        model.fit(&x_train, &y_train)?;
        let proba = model.predict_proba(&x_valid)?;
        total += log_loss(&y_valid, &proba);
        used += 1;
    }
    if used == 0 {
        return Err(MlError::InvalidData("no usable folds".into()));
    }
    Ok(total / used as f64)
}

/// Result of evaluating one grid-search candidate.
#[derive(Debug, Clone)]
pub struct GridSearchResult {
    /// Index into the candidate list.
    pub candidate: usize,
    /// Candidate description.
    pub description: String,
    /// Mean cross-validated log-loss (lower is better).
    pub log_loss: f64,
}

/// Exhaustive search over a list of candidate model configurations, ranked by
/// stratified-CV cross-entropy.
pub struct GridSearch {
    candidates: Vec<(String, ClassifierBuilder)>,
    /// Number of CV folds (the paper uses 3).
    pub n_folds: usize,
    /// Seed shared across candidates so folds are identical.
    pub seed: u64,
    /// Worker threads for candidate evaluation (`0` = process default).
    /// Candidates are independent, share one seed and are collected in
    /// registration order, so results are identical for every thread count.
    pub n_threads: usize,
}

impl GridSearch {
    /// Creates an empty grid search with 3 folds on the default worker pool.
    pub fn new(seed: u64) -> Self {
        GridSearch {
            candidates: Vec::new(),
            n_folds: 3,
            seed,
            n_threads: 0,
        }
    }

    /// Adds a candidate configuration.
    pub fn add(&mut self, description: impl Into<String>, builder: ClassifierBuilder) -> &mut Self {
        self.candidates.push((description.into(), builder));
        self
    }

    /// Number of registered candidates.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Whether no candidates have been registered.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Evaluates all candidates and returns the results sorted by log-loss
    /// (best first).
    pub fn evaluate(&self, x: &FeatureMatrix, y: &[usize]) -> Result<Vec<GridSearchResult>> {
        if self.candidates.is_empty() {
            return Err(MlError::InvalidData("grid search has no candidates".into()));
        }
        let indices: Vec<usize> = (0..self.candidates.len()).collect();
        let mut results = ThreadPool::new(self.n_threads).try_map(&indices, |&idx| {
            let (description, builder) = &self.candidates[idx];
            let loss = cross_val_log_loss(builder.as_ref(), x, y, self.n_folds, self.seed)?;
            Ok(GridSearchResult {
                candidate: idx,
                description: description.clone(),
                log_loss: loss,
            })
        })?;
        results.sort_by(|a, b| {
            a.log_loss
                .partial_cmp(&b.log_loss)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        Ok(results)
    }

    /// Evaluates all candidates, refits the best one on the full data and
    /// returns `(fitted model, results)`.
    pub fn fit_best(
        &self,
        x: &FeatureMatrix,
        y: &[usize],
    ) -> Result<(Box<dyn Classifier>, Vec<GridSearchResult>)> {
        let results = self.evaluate(x, y)?;
        let best = &self.candidates[results[0].candidate];
        let mut model = (best.1)();
        model.fit(x, y)?;
        Ok((model, results))
    }

    /// Builds a fresh unfitted model for candidate `idx`.
    pub fn build(&self, idx: usize) -> Box<dyn Classifier> {
        (self.candidates[idx].1)()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gbt::{GradientBoosting, GradientBoostingParams};
    use crate::tree::{DecisionTree, DecisionTreeParams};

    fn dataset() -> (FeatureMatrix, Vec<usize>) {
        let rows: Vec<Vec<f64>> = (0..60)
            .map(|i| {
                let label = i % 2;
                vec![
                    label as f64 * 2.0 + (i as f64 * 0.618) % 0.5,
                    (i as f64 * 0.33) % 1.0,
                ]
            })
            .collect();
        let labels: Vec<usize> = (0..60).map(|i| i % 2).collect();
        (FeatureMatrix::from_rows(&rows).unwrap(), labels)
    }

    #[test]
    fn cross_validation_scores_good_model_better_than_weak() {
        let (x, y) = dataset();
        let strong = |_: ()| {};
        let _ = strong;
        let good = cross_val_log_loss(
            &|| Box::new(DecisionTree::new(DecisionTreeParams::default())) as Box<dyn Classifier>,
            &x,
            &y,
            3,
            0,
        )
        .unwrap();
        let weak = cross_val_log_loss(
            &|| {
                Box::new(DecisionTree::new(DecisionTreeParams {
                    max_depth: 0,
                    ..Default::default()
                })) as Box<dyn Classifier>
            },
            &x,
            &y,
            3,
            0,
        )
        .unwrap();
        assert!(good < weak, "good {good} vs weak {weak}");
    }

    #[test]
    fn grid_search_ranks_candidates_and_fits_best() {
        let (x, y) = dataset();
        let mut grid = GridSearch::new(42);
        grid.add(
            "gbt_shallow",
            Box::new(|| {
                Box::new(GradientBoosting::new(GradientBoostingParams {
                    n_estimators: 10,
                    max_depth: 2,
                    ..Default::default()
                })) as Box<dyn Classifier>
            }),
        );
        grid.add(
            "stump_forest",
            Box::new(|| {
                Box::new(DecisionTree::new(DecisionTreeParams {
                    max_depth: 0,
                    ..Default::default()
                })) as Box<dyn Classifier>
            }),
        );
        assert_eq!(grid.len(), 2);
        let (model, results) = grid.fit_best(&x, &y).unwrap();
        assert_eq!(results.len(), 2);
        assert!(results[0].log_loss <= results[1].log_loss);
        // the degenerate stump should never win
        assert_eq!(results[0].description, "gbt_shallow");
        let pred = model.predict(&x).unwrap();
        assert_eq!(pred.len(), y.len());
    }

    fn two_candidate_grid(seed: u64, n_threads: usize) -> GridSearch {
        let mut grid = GridSearch::new(seed);
        grid.n_threads = n_threads;
        grid.add(
            "gbt_shallow",
            Box::new(|| {
                Box::new(GradientBoosting::new(GradientBoostingParams {
                    n_estimators: 10,
                    max_depth: 2,
                    ..Default::default()
                })) as Box<dyn Classifier>
            }),
        );
        grid.add(
            "tree",
            Box::new(|| {
                Box::new(DecisionTree::new(DecisionTreeParams::default())) as Box<dyn Classifier>
            }),
        );
        grid
    }

    #[test]
    fn same_seed_reproduces_identical_grid_search() {
        let (x, y) = dataset();
        let reference = two_candidate_grid(11, 1).evaluate(&x, &y).unwrap();
        // repeated runs and every thread count must reproduce the winner and
        // the exact loss values (same folds, same candidate order)
        for n_threads in [1, 1, 2, 7] {
            let results = two_candidate_grid(11, n_threads).evaluate(&x, &y).unwrap();
            assert_eq!(results[0].candidate, reference[0].candidate);
            for (a, b) in results.iter().zip(reference.iter()) {
                assert_eq!(a.candidate, b.candidate, "n_threads = {n_threads}");
                assert_eq!(
                    a.log_loss.to_bits(),
                    b.log_loss.to_bits(),
                    "n_threads = {n_threads}"
                );
            }
        }
    }

    #[test]
    fn cross_val_is_seed_reproducible() {
        let (x, y) = dataset();
        let builder =
            || Box::new(DecisionTree::new(DecisionTreeParams::default())) as Box<dyn Classifier>;
        let a = cross_val_log_loss(&builder, &x, &y, 3, 99).unwrap();
        let b = cross_val_log_loss(&builder, &x, &y, 3, 99).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn grid_search_propagates_candidate_errors() {
        let (x, y) = dataset();
        let mut grid = two_candidate_grid(0, 2);
        grid.add(
            "broken",
            Box::new(|| {
                // n_estimators = 0 fails validation inside fit
                Box::new(GradientBoosting::new(GradientBoostingParams {
                    n_estimators: 0,
                    ..Default::default()
                })) as Box<dyn Classifier>
            }),
        );
        assert!(grid.evaluate(&x, &y).is_err());
    }

    #[test]
    fn empty_grid_rejected() {
        let (x, y) = dataset();
        let grid = GridSearch::new(0);
        assert!(grid.is_empty());
        assert!(grid.evaluate(&x, &y).is_err());
    }
}
