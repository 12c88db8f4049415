//! CART decision trees for classification.
//!
//! Greedy binary trees with Gini impurity splits, optional per-split feature
//! subsampling (used by the random forest) and probability estimates from
//! leaf class frequencies.

use crate::data::{n_classes, FeatureMatrix};
use crate::error::MlError;
use crate::traits::Classifier;
use crate::Result;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Hyper-parameters for [`DecisionTree`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionTreeParams {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum number of samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum number of samples in each leaf.
    pub min_samples_leaf: usize,
    /// Number of features considered per split (`None` = all features).
    pub max_features: Option<usize>,
    /// Seed for feature subsampling.
    pub seed: u64,
}

impl Default for DecisionTreeParams {
    fn default() -> Self {
        DecisionTreeParams {
            max_depth: 10,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: None,
            seed: 0,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        proba: Vec<f64>,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A CART classification tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    params: DecisionTreeParams,
    nodes: Vec<Node>,
    n_classes: usize,
    /// Gini importance accumulated per feature during training.
    feature_importance: Vec<f64>,
}

impl DecisionTree {
    /// Creates an unfitted tree with the given parameters.
    pub fn new(params: DecisionTreeParams) -> Self {
        DecisionTree {
            params,
            nodes: Vec::new(),
            n_classes: 0,
            feature_importance: Vec::new(),
        }
    }

    /// Gini importances per feature (unnormalised impurity decrease sums).
    pub fn feature_importance(&self) -> &[f64] {
        &self.feature_importance
    }

    fn gini(counts: &[usize], total: usize) -> f64 {
        if total == 0 {
            return 0.0;
        }
        let t = total as f64;
        1.0 - counts
            .iter()
            .map(|&c| {
                let p = c as f64 / t;
                p * p
            })
            .sum::<f64>()
    }

    fn leaf_proba(&self, indices: &[usize], y: &[usize]) -> Vec<f64> {
        let mut counts = vec![0.0; self.n_classes];
        for &i in indices {
            counts[y[i]] += 1.0;
        }
        let total: f64 = counts.iter().sum();
        if total > 0.0 {
            for c in &mut counts {
                *c /= total;
            }
        }
        counts
    }

    #[allow(clippy::too_many_arguments)]
    fn build(
        &mut self,
        x: &FeatureMatrix,
        y: &[usize],
        indices: Vec<usize>,
        depth: usize,
        rng: &mut ChaCha8Rng,
    ) -> usize {
        let class_counts = {
            let mut counts = vec![0usize; self.n_classes];
            for &i in &indices {
                counts[y[i]] += 1;
            }
            counts
        };
        let node_impurity = Self::gini(&class_counts, indices.len());
        let is_pure = class_counts.iter().filter(|&&c| c > 0).count() <= 1;
        if depth >= self.params.max_depth
            || indices.len() < self.params.min_samples_split
            || is_pure
        {
            let proba = self.leaf_proba(&indices, y);
            self.nodes.push(Node::Leaf { proba });
            return self.nodes.len() - 1;
        }

        // candidate features
        let n_features = x.n_cols();
        let mut features: Vec<usize> = (0..n_features).collect();
        if let Some(k) = self.params.max_features {
            features.shuffle(rng);
            features.truncate(k.clamp(1, n_features));
        }

        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, weighted_gini)
        for &feature in &features {
            // sort indices by this feature
            let mut order: Vec<usize> = indices.clone();
            order.sort_by(|&a, &b| {
                x.get(a, feature)
                    .partial_cmp(&x.get(b, feature))
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let mut left_counts = vec![0usize; self.n_classes];
            let mut right_counts = class_counts.clone();
            let total = order.len();
            for split_pos in 1..total {
                let moved = order[split_pos - 1];
                left_counts[y[moved]] += 1;
                right_counts[y[moved]] -= 1;
                let prev_val = x.get(order[split_pos - 1], feature);
                let next_val = x.get(order[split_pos], feature);
                if prev_val == next_val {
                    continue; // cannot split between equal values
                }
                if split_pos < self.params.min_samples_leaf
                    || total - split_pos < self.params.min_samples_leaf
                {
                    continue;
                }
                let gini_left = Self::gini(&left_counts, split_pos);
                let gini_right = Self::gini(&right_counts, total - split_pos);
                let weighted = (split_pos as f64 * gini_left
                    + (total - split_pos) as f64 * gini_right)
                    / total as f64;
                if best.map(|(_, _, g)| weighted < g).unwrap_or(true) {
                    best = Some((feature, 0.5 * (prev_val + next_val), weighted));
                }
            }
        }

        let Some((feature, threshold, weighted_gini)) = best else {
            let proba = self.leaf_proba(&indices, y);
            self.nodes.push(Node::Leaf { proba });
            return self.nodes.len() - 1;
        };

        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
            .iter()
            .partition(|&&i| x.get(i, feature) <= threshold);
        if left_idx.is_empty() || right_idx.is_empty() {
            let proba = self.leaf_proba(&indices, y);
            self.nodes.push(Node::Leaf { proba });
            return self.nodes.len() - 1;
        }

        // impurity decrease weighted by node size, for feature importance
        self.feature_importance[feature] +=
            indices.len() as f64 * (node_impurity - weighted_gini).max(0.0);

        // placeholder node; children are appended after
        self.nodes.push(Node::Leaf { proba: Vec::new() });
        let node_id = self.nodes.len() - 1;
        let left = self.build(x, y, left_idx, depth + 1, rng);
        let right = self.build(x, y, right_idx, depth + 1, rng);
        self.nodes[node_id] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        node_id
    }

    fn predict_row(&self, row: &[f64]) -> &[f64] {
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                Node::Leaf { proba } => return proba,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

impl Classifier for DecisionTree {
    fn fit(&mut self, x: &FeatureMatrix, y: &[usize]) -> Result<()> {
        if x.is_empty() || y.is_empty() {
            return Err(MlError::InvalidData("empty training data".into()));
        }
        if x.n_rows() != y.len() {
            return Err(MlError::InvalidData(format!(
                "{} rows but {} labels",
                x.n_rows(),
                y.len()
            )));
        }
        self.nodes.clear();
        self.n_classes = n_classes(y);
        self.feature_importance = vec![0.0; x.n_cols()];
        let mut rng = ChaCha8Rng::seed_from_u64(self.params.seed);
        let root = self.build(x, y, (0..x.n_rows()).collect(), 0, &mut rng);
        debug_assert_eq!(root, 0);
        Ok(())
    }

    fn predict_proba(&self, x: &FeatureMatrix) -> Result<Vec<Vec<f64>>> {
        if self.nodes.is_empty() {
            return Err(MlError::NotFitted);
        }
        Ok(x.rows().map(|row| self.predict_row(row).to_vec()).collect())
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn describe(&self) -> String {
        format!("DecisionTree(max_depth={})", self.params.max_depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn separable() -> (FeatureMatrix, Vec<usize>) {
        // class 0: x0 < 0, class 1: x0 > 0
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let sign = if i % 2 == 0 { -1.0 } else { 1.0 };
                vec![sign * (1.0 + (i as f64) * 0.1), (i as f64 * 37.0) % 5.0]
            })
            .collect();
        let labels: Vec<usize> = (0..40).map(|i| i % 2).collect();
        (FeatureMatrix::from_rows(&rows).unwrap(), labels)
    }

    #[test]
    fn fits_separable_data_perfectly() {
        let (x, y) = separable();
        let mut tree = DecisionTree::new(DecisionTreeParams::default());
        tree.fit(&x, &y).unwrap();
        let pred = tree.predict(&x).unwrap();
        assert_eq!(pred, y);
        // the informative feature gets all the importance
        assert!(tree.feature_importance()[0] > 0.0);
        assert_eq!(tree.feature_importance()[1], 0.0);
    }

    #[test]
    fn respects_max_depth_zero() {
        let (x, y) = separable();
        let mut tree = DecisionTree::new(DecisionTreeParams {
            max_depth: 0,
            ..Default::default()
        });
        tree.fit(&x, &y).unwrap();
        // a single leaf predicts the majority class for everything
        let proba = tree.predict_proba(&x).unwrap();
        assert!(proba.iter().all(|p| p == &proba[0]));
    }

    #[test]
    fn probabilities_sum_to_one() {
        let (x, y) = separable();
        let mut tree = DecisionTree::new(DecisionTreeParams {
            max_depth: 3,
            ..Default::default()
        });
        tree.fit(&x, &y).unwrap();
        for p in tree.predict_proba(&x).unwrap() {
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn three_class_problem() {
        let rows: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![(i / 20) as f64 * 10.0 + (i % 20) as f64 * 0.1])
            .collect();
        let labels: Vec<usize> = (0..60).map(|i| i / 20).collect();
        let x = FeatureMatrix::from_rows(&rows).unwrap();
        let mut tree = DecisionTree::new(DecisionTreeParams::default());
        tree.fit(&x, &labels).unwrap();
        assert_eq!(tree.n_classes(), 3);
        assert_eq!(tree.predict(&x).unwrap(), labels);
    }

    #[test]
    fn unfitted_and_invalid_inputs_error() {
        let tree = DecisionTree::new(DecisionTreeParams::default());
        let x = FeatureMatrix::from_rows(&[vec![1.0]]).unwrap();
        assert!(tree.predict_proba(&x).is_err());
        let mut tree = DecisionTree::new(DecisionTreeParams::default());
        assert!(tree.fit(&FeatureMatrix::default(), &[]).is_err());
        assert!(tree.fit(&x, &[0, 1]).is_err());
    }

    #[test]
    fn constant_features_give_single_leaf() {
        let x = FeatureMatrix::from_rows(&[vec![1.0], vec![1.0], vec![1.0], vec![1.0]]).unwrap();
        let y = vec![0, 1, 0, 1];
        let mut tree = DecisionTree::new(DecisionTreeParams::default());
        tree.fit(&x, &y).unwrap();
        let proba = tree.predict_proba(&x).unwrap();
        assert!((proba[0][0] - 0.5).abs() < 1e-9);
    }
}
