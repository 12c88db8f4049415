//! Random Forest: bagged CART trees with per-split feature subsampling.

use crate::data::{n_classes, FeatureMatrix};
use crate::error::MlError;
use crate::traits::Classifier;
use crate::tree::{DecisionTree, DecisionTreeParams};
use crate::Result;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tsg_parallel::ThreadPool;

/// Hyper-parameters for [`RandomForest`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomForestParams {
    /// Number of trees.
    pub n_estimators: usize,
    /// Maximum depth of each tree.
    pub max_depth: usize,
    /// Minimum samples required to split a node.
    pub min_samples_split: usize,
    /// Number of features per split; `None` = `sqrt(n_features)`.
    pub max_features: Option<usize>,
    /// Random seed (bootstrap + feature subsampling).
    pub seed: u64,
    /// Worker threads for tree fitting (`0` = process default). Each tree
    /// draws from its own seed-derived RNG, so the fitted forest is
    /// identical for every thread count.
    pub n_threads: usize,
}

impl Default for RandomForestParams {
    fn default() -> Self {
        RandomForestParams {
            n_estimators: 100,
            max_depth: 12,
            min_samples_split: 2,
            max_features: None,
            seed: 0,
            n_threads: 0,
        }
    }
}

/// Decorrelates the RNG stream of tree `t` from the forest seed (splitmix64
/// finaliser). Deriving per-tree seeds — rather than drawing all bootstraps
/// from one sequential RNG — is what makes tree fitting order-free and thus
/// safely parallel.
fn tree_seed(seed: u64, t: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(t.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A Random Forest classifier (probability averaging over bootstrapped
/// trees).
#[derive(Debug, Clone)]
pub struct RandomForest {
    params: RandomForestParams,
    trees: Vec<DecisionTree>,
    n_classes: usize,
    n_features: usize,
}

impl RandomForest {
    /// Creates an unfitted forest.
    pub fn new(params: RandomForestParams) -> Self {
        RandomForest {
            params,
            trees: Vec::new(),
            n_classes: 0,
            n_features: 0,
        }
    }

    /// Mean decrease in impurity per feature, normalised to sum to 1.
    pub fn feature_importance(&self) -> Vec<f64> {
        let mut total = vec![0.0; self.n_features];
        for tree in &self.trees {
            for (j, &imp) in tree.feature_importance().iter().enumerate() {
                total[j] += imp;
            }
        }
        let sum: f64 = total.iter().sum();
        if sum > 0.0 {
            for v in &mut total {
                *v /= sum;
            }
        }
        total
    }
}

impl Classifier for RandomForest {
    fn fit(&mut self, x: &FeatureMatrix, y: &[usize]) -> Result<()> {
        if x.is_empty() || x.n_rows() != y.len() {
            return Err(MlError::InvalidData(
                "empty or mismatched training data".into(),
            ));
        }
        if self.params.n_estimators == 0 {
            return Err(MlError::invalid("n_estimators", "must be positive"));
        }
        self.n_classes = n_classes(y);
        self.n_features = x.n_cols();
        self.trees.clear();
        let max_features = self
            .params
            .max_features
            .unwrap_or_else(|| (x.n_cols() as f64).sqrt().ceil() as usize)
            .clamp(1, x.n_cols());
        let params = self.params;
        let tree_ids: Vec<u64> = (0..params.n_estimators as u64).collect();
        self.trees = ThreadPool::new(params.n_threads).try_map(&tree_ids, |&t| {
            // bootstrap sample of the rows, from this tree's own RNG stream
            let mut rng = ChaCha8Rng::seed_from_u64(tree_seed(params.seed, t));
            let indices: Vec<usize> = (0..x.n_rows())
                .map(|_| rng.gen_range(0..x.n_rows()))
                .collect();
            let xb = x.select_rows(&indices);
            let yb: Vec<usize> = indices.iter().map(|&i| y[i]).collect();
            // classes present in the bootstrap may miss rare classes; remap is
            // avoided by training on the global label space (leaf probabilities
            // are sized by the labels seen, so pad afterwards if needed)
            let mut tree = DecisionTree::new(DecisionTreeParams {
                max_depth: params.max_depth,
                min_samples_split: params.min_samples_split,
                min_samples_leaf: 1,
                max_features: Some(max_features),
                seed: tree_seed(params.seed, t).wrapping_add(1),
            });
            tree.fit(&xb, &yb)?;
            Ok(tree)
        })?;
        Ok(())
    }

    fn predict_proba(&self, x: &FeatureMatrix) -> Result<Vec<Vec<f64>>> {
        if self.trees.is_empty() {
            return Err(MlError::NotFitted);
        }
        let mut out = vec![vec![0.0; self.n_classes]; x.n_rows()];
        for tree in &self.trees {
            let proba = tree.predict_proba(x)?;
            for (acc, p) in out.iter_mut().zip(proba.iter()) {
                for (j, &v) in p.iter().enumerate() {
                    if j < acc.len() {
                        acc[j] += v;
                    }
                }
            }
        }
        for p in &mut out {
            for v in p.iter_mut() {
                *v /= self.trees.len() as f64;
            }
        }
        Ok(out)
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn describe(&self) -> String {
        format!(
            "RandomForest(n_estimators={}, max_depth={})",
            self.params.n_estimators, self.params.max_depth
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;

    fn blobs(n_per_class: usize) -> (FeatureMatrix, Vec<usize>) {
        // three well-separated clusters in 2-D, deterministic pseudo-noise
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        let centers = [(0.0, 0.0), (5.0, 5.0), (0.0, 5.0)];
        let mut state = 12345u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        for (c, &(cx, cy)) in centers.iter().enumerate() {
            for _ in 0..n_per_class {
                rows.push(vec![cx + next(), cy + next()]);
                labels.push(c);
            }
        }
        (FeatureMatrix::from_rows(&rows).unwrap(), labels)
    }

    #[test]
    fn classifies_blobs() {
        let (x, y) = blobs(30);
        let mut rf = RandomForest::new(RandomForestParams {
            n_estimators: 20,
            max_depth: 6,
            ..Default::default()
        });
        rf.fit(&x, &y).unwrap();
        let pred = rf.predict(&x).unwrap();
        assert!(accuracy(&y, &pred) > 0.95);
        assert_eq!(rf.n_classes(), 3);
    }

    #[test]
    fn probabilities_are_distributions() {
        let (x, y) = blobs(20);
        let mut rf = RandomForest::new(RandomForestParams {
            n_estimators: 10,
            ..Default::default()
        });
        rf.fit(&x, &y).unwrap();
        for p in rf.predict_proba(&x).unwrap() {
            assert_eq!(p.len(), 3);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn feature_importance_sums_to_one() {
        let (x, y) = blobs(20);
        let mut rf = RandomForest::new(RandomForestParams {
            n_estimators: 10,
            ..Default::default()
        });
        rf.fit(&x, &y).unwrap();
        let imp = rf.feature_importance();
        assert_eq!(imp.len(), 2);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = blobs(15);
        let mut a = RandomForest::new(RandomForestParams {
            n_estimators: 5,
            seed: 9,
            ..Default::default()
        });
        let mut b = RandomForest::new(RandomForestParams {
            n_estimators: 5,
            seed: 9,
            ..Default::default()
        });
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(a.predict(&x).unwrap(), b.predict(&x).unwrap());
    }

    #[test]
    fn thread_count_invariant() {
        let (x, y) = blobs(15);
        let fit_with = |n_threads: usize| {
            let mut rf = RandomForest::new(RandomForestParams {
                n_estimators: 12,
                seed: 21,
                n_threads,
                ..Default::default()
            });
            rf.fit(&x, &y).unwrap();
            rf.predict_proba(&x).unwrap()
        };
        let reference = fit_with(1);
        for threads in [2, 7] {
            let proba = fit_with(threads);
            for (a, b) in proba.iter().flatten().zip(reference.iter().flatten()) {
                assert_eq!(a.to_bits(), b.to_bits(), "n_threads = {threads}");
            }
        }
    }

    #[test]
    fn invalid_inputs_rejected() {
        let mut rf = RandomForest::new(RandomForestParams {
            n_estimators: 0,
            ..Default::default()
        });
        let (x, y) = blobs(5);
        assert!(rf.fit(&x, &y).is_err());
        let rf = RandomForest::new(RandomForestParams::default());
        assert!(rf.predict_proba(&x).is_err());
    }
}
