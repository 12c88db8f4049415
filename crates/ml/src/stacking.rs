//! Stacked generalization (Algorithm 2 of the paper).
//!
//! The ensemble is built in three steps:
//!
//! 1. every candidate base configuration is scored by stratified k-fold
//!    cross-validation with cross-entropy (equation 5);
//! 2. the top-k configurations are kept;
//! 3. a logistic-regression meta-learner computes estimator weights from the
//!    out-of-fold probability predictions of the selected estimators, and the
//!    selected estimators are refit on the full training set.
//!
//! At prediction time the base estimators produce class probabilities which
//! the meta-learner combines into the final prediction.

use crate::data::{FeatureMatrix, StratifiedKFold};
use crate::error::MlError;
use crate::logreg::{LogisticRegression, LogisticRegressionParams};
use crate::model_selection::{cross_val_log_loss, ClassifierBuilder};
use crate::traits::Classifier;
use crate::Result;
use tsg_parallel::ThreadPool;

/// Hyper-parameters for [`StackingEnsemble`].
#[derive(Debug, Clone, Copy)]
pub struct StackingParams {
    /// Number of best base configurations to keep (Algorithm 2's `k`).
    pub top_k: usize,
    /// Number of stratified CV folds used both for selection and for the
    /// out-of-fold meta-features (the paper uses 3).
    pub cv_folds: usize,
    /// Random seed (fold assignment).
    pub seed: u64,
    /// Worker threads for candidate scoring, out-of-fold meta-features and
    /// base refits (`0` = process default). Candidates are independent and
    /// collected in registration order, so the fitted ensemble is identical
    /// for every thread count.
    pub n_threads: usize,
}

impl Default for StackingParams {
    fn default() -> Self {
        StackingParams {
            top_k: 5,
            cv_folds: 3,
            seed: 0,
            n_threads: 0,
        }
    }
}

/// Report of the selection phase for one candidate.
#[derive(Debug, Clone)]
pub struct CandidateScore {
    /// Candidate description.
    pub description: String,
    /// Cross-validated log-loss.
    pub log_loss: f64,
    /// Whether the candidate was kept in the ensemble.
    pub selected: bool,
}

/// A stacked generalization ensemble over heterogeneous base classifiers.
pub struct StackingEnsemble {
    params: StackingParams,
    candidates: Vec<(String, ClassifierBuilder)>,
    selected: Vec<usize>,
    scores: Vec<CandidateScore>,
    fitted_bases: Vec<Box<dyn Classifier>>,
    meta: Option<LogisticRegression>,
    n_classes: usize,
}

impl StackingEnsemble {
    /// Creates an empty ensemble.
    pub fn new(params: StackingParams) -> Self {
        StackingEnsemble {
            params,
            candidates: Vec::new(),
            selected: Vec::new(),
            scores: Vec::new(),
            fitted_bases: Vec::new(),
            meta: None,
            n_classes: 0,
        }
    }

    /// Registers a candidate base configuration.
    pub fn add_candidate(
        &mut self,
        description: impl Into<String>,
        builder: ClassifierBuilder,
    ) -> &mut Self {
        self.candidates.push((description.into(), builder));
        self
    }

    /// Scores from the selection phase (available after fitting).
    pub fn candidate_scores(&self) -> &[CandidateScore] {
        &self.scores
    }

    /// Builds the out-of-fold meta-feature matrix for the selected base
    /// estimators: one block of `n_classes` probability columns per
    /// estimator.
    fn out_of_fold_meta_features(
        &self,
        x: &FeatureMatrix,
        y: &[usize],
        k: usize,
    ) -> Result<FeatureMatrix> {
        let folds = StratifiedKFold::new(self.params.cv_folds, self.params.seed)?.split(y);
        let n = x.n_rows();
        // one probability block of k columns per selected estimator, each
        // computed independently on the pool
        let blocks: Vec<Vec<Vec<f64>>> =
            ThreadPool::new(self.params.n_threads).try_map(&self.selected, |&cand| {
                let mut block = vec![vec![1.0 / k as f64; k]; n];
                for (train_idx, valid_idx) in &folds {
                    if train_idx.is_empty() || valid_idx.is_empty() {
                        continue;
                    }
                    let x_train = x.select_rows(train_idx);
                    let y_train: Vec<usize> = train_idx.iter().map(|&i| y[i]).collect();
                    let x_valid = x.select_rows(valid_idx);
                    let mut model = (self.candidates[cand].1)();
                    model.fit(&x_train, &y_train)?;
                    let proba = model.predict_proba(&x_valid)?;
                    for (row_in_valid, &orig_row) in valid_idx.iter().enumerate() {
                        for (class, slot) in block[orig_row].iter_mut().enumerate() {
                            *slot = proba[row_in_valid].get(class).copied().unwrap_or(0.0);
                        }
                    }
                }
                Ok(block)
            })?;
        let n_meta_cols = self.selected.len() * k;
        let mut meta = vec![vec![0.0; n_meta_cols]; n];
        for (slot, block) in blocks.iter().enumerate() {
            for (row, probs) in block.iter().enumerate() {
                meta[row][slot * k..(slot + 1) * k].copy_from_slice(probs);
            }
        }
        FeatureMatrix::from_rows(&meta)
    }

    /// Meta-features at prediction time: stacked probabilities from the
    /// fitted base estimators.
    fn prediction_meta_features(&self, x: &FeatureMatrix) -> Result<FeatureMatrix> {
        let k = self.n_classes;
        let mut meta = vec![vec![0.0; self.fitted_bases.len() * k]; x.n_rows()];
        for (slot, base) in self.fitted_bases.iter().enumerate() {
            let proba = base.predict_proba(x)?;
            for (i, p) in proba.iter().enumerate() {
                for class in 0..k {
                    meta[i][slot * k + class] = p.get(class).copied().unwrap_or(0.0);
                }
            }
        }
        FeatureMatrix::from_rows(&meta)
    }
}

impl Classifier for StackingEnsemble {
    fn fit(&mut self, x: &FeatureMatrix, y: &[usize]) -> Result<()> {
        if self.candidates.is_empty() {
            return Err(MlError::InvalidData(
                "stacking ensemble has no candidates".into(),
            ));
        }
        if x.is_empty() || x.n_rows() != y.len() {
            return Err(MlError::InvalidData(
                "empty or mismatched training data".into(),
            ));
        }
        self.n_classes = crate::data::n_classes(y);
        let pool = ThreadPool::new(self.params.n_threads);
        // 1. score every candidate (independent CV runs on shared folds)
        let indices: Vec<usize> = (0..self.candidates.len()).collect();
        let mut scored: Vec<(usize, f64)> = pool.try_map(&indices, |&idx| {
            let loss = cross_val_log_loss(
                self.candidates[idx].1.as_ref(),
                x,
                y,
                self.params.cv_folds,
                self.params.seed,
            )?;
            Ok((idx, loss))
        })?;
        scored.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        // 2. keep the top-k
        let keep = self.params.top_k.max(1).min(scored.len());
        self.selected = scored.iter().take(keep).map(|(i, _)| *i).collect();
        self.scores = scored
            .iter()
            .map(|(i, loss)| CandidateScore {
                description: self.candidates[*i].0.clone(),
                log_loss: *loss,
                selected: self.selected.contains(i),
            })
            .collect();
        // 3. meta-learner on out-of-fold probabilities
        let meta_x = self.out_of_fold_meta_features(x, y, self.n_classes)?;
        let mut meta = LogisticRegression::new(LogisticRegressionParams {
            n_epochs: 400,
            learning_rate: 1.0,
            l2: 1e-4,
        });
        meta.fit(&meta_x, y)?;
        self.meta = Some(meta);
        // refit selected bases on the full training data
        self.fitted_bases = pool.try_map(&self.selected, |&cand| {
            let mut model = (self.candidates[cand].1)();
            model.fit(x, y)?;
            Ok(model)
        })?;
        Ok(())
    }

    fn predict_proba(&self, x: &FeatureMatrix) -> Result<Vec<Vec<f64>>> {
        let meta = self.meta.as_ref().ok_or(MlError::NotFitted)?;
        let meta_x = self.prediction_meta_features(x)?;
        meta.predict_proba(&meta_x)
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn describe(&self) -> String {
        format!(
            "Stacking(top_k={}, candidates={}, folds={})",
            self.params.top_k,
            self.candidates.len(),
            self.params.cv_folds
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gbt::{GradientBoosting, GradientBoostingParams};
    use crate::metrics::accuracy;
    use crate::svm::{SvmClassifier, SvmKernel, SvmParams};
    use crate::tree::{DecisionTree, DecisionTreeParams};

    fn dataset() -> (FeatureMatrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        let mut state = 2024u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        for i in 0..90 {
            let label = i % 3;
            rows.push(vec![label as f64 * 2.0 + next() * 0.8, next()]);
            labels.push(label);
        }
        (FeatureMatrix::from_rows(&rows).unwrap(), labels)
    }

    fn make_ensemble(top_k: usize) -> StackingEnsemble {
        let mut ens = StackingEnsemble::new(StackingParams {
            top_k,
            cv_folds: 3,
            seed: 1,
            ..Default::default()
        });
        ens.add_candidate(
            "gbt",
            Box::new(|| {
                Box::new(GradientBoosting::new(GradientBoostingParams {
                    n_estimators: 15,
                    max_depth: 3,
                    ..Default::default()
                })) as Box<dyn Classifier>
            }),
        );
        ens.add_candidate(
            "tree",
            Box::new(|| {
                Box::new(DecisionTree::new(DecisionTreeParams::default())) as Box<dyn Classifier>
            }),
        );
        ens.add_candidate(
            "svm",
            Box::new(|| {
                Box::new(SvmClassifier::new(SvmParams {
                    kernel: SvmKernel::Rbf { gamma: 0.5 },
                    seed: 1,
                    ..Default::default()
                })) as Box<dyn Classifier>
            }),
        );
        ens.add_candidate(
            "stump",
            Box::new(|| {
                Box::new(DecisionTree::new(DecisionTreeParams {
                    max_depth: 0,
                    ..Default::default()
                })) as Box<dyn Classifier>
            }),
        );
        ens
    }

    #[test]
    fn stacking_learns_and_reports_scores() {
        let (x, y) = dataset();
        let mut ens = make_ensemble(2);
        ens.fit(&x, &y).unwrap();
        assert_eq!(ens.candidates.len(), 4);
        assert_eq!(ens.candidate_scores().len(), 4);
        assert_eq!(
            ens.candidate_scores().iter().filter(|s| s.selected).count(),
            2
        );
        // the degenerate stump must not be selected ahead of real models
        let stump = ens
            .candidate_scores()
            .iter()
            .find(|s| s.description == "stump")
            .unwrap();
        assert!(!stump.selected);
        let pred = ens.predict(&x).unwrap();
        assert!(
            accuracy(&y, &pred) > 0.85,
            "accuracy {}",
            accuracy(&y, &pred)
        );
        for p in ens.predict_proba(&x).unwrap() {
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn stacking_at_least_matches_members_on_train() {
        let (x, y) = dataset();
        let mut ens = make_ensemble(3);
        ens.fit(&x, &y).unwrap();
        let stack_acc = accuracy(&y, &ens.predict(&x).unwrap());
        // weakest candidate baseline: majority class stump
        let mut stump = DecisionTree::new(DecisionTreeParams {
            max_depth: 0,
            ..Default::default()
        });
        stump.fit(&x, &y).unwrap();
        let stump_acc = accuracy(&y, &stump.predict(&x).unwrap());
        assert!(stack_acc >= stump_acc);
    }

    #[test]
    fn thread_count_invariant() {
        let (x, y) = dataset();
        let fit_with = |n_threads: usize| {
            let mut ens = make_ensemble(2);
            ens.params.n_threads = n_threads;
            ens.fit(&x, &y).unwrap();
            let scores: Vec<u64> = ens
                .candidate_scores()
                .iter()
                .map(|s| s.log_loss.to_bits())
                .collect();
            (scores, ens.predict_proba(&x).unwrap())
        };
        let (ref_scores, ref_proba) = fit_with(1);
        for threads in [2, 7] {
            let (scores, proba) = fit_with(threads);
            assert_eq!(scores, ref_scores, "n_threads = {threads}");
            for (a, b) in proba.iter().flatten().zip(ref_proba.iter().flatten()) {
                assert_eq!(a.to_bits(), b.to_bits(), "n_threads = {threads}");
            }
        }
    }

    #[test]
    fn unfitted_and_empty_errors() {
        let (x, y) = dataset();
        let ens = make_ensemble(2);
        assert!(ens.predict_proba(&x).is_err());
        let mut empty = StackingEnsemble::new(StackingParams::default());
        assert!(empty.fit(&x, &y).is_err());
    }
}
