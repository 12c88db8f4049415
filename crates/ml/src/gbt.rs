//! Gradient-boosted decision trees with the XGBoost objective.
//!
//! Implements the parts of XGBoost the paper's pipeline relies on:
//! second-order (gradient + hessian) boosting of regression trees on the
//! softmax objective, shrinkage (learning rate), L2 leaf regularisation
//! (`lambda`), minimum split gain (`gamma`), minimum child hessian weight,
//! row subsampling and per-tree column subsampling, plus gain-based feature
//! importances used for Figure 10.

use crate::data::{n_classes, FeatureMatrix};
use crate::error::MlError;
use crate::snapshot;
use crate::traits::{softmax, Classifier};
use crate::Result;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Hyper-parameters for [`GradientBoosting`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GradientBoostingParams {
    /// Number of boosting rounds (each round fits one tree per class).
    pub n_estimators: usize,
    /// Shrinkage applied to every leaf weight.
    pub learning_rate: f64,
    /// Maximum depth of each regression tree.
    pub max_depth: usize,
    /// L2 regularisation on leaf weights (XGBoost `lambda`).
    pub lambda: f64,
    /// Minimum loss reduction required to split (XGBoost `gamma`).
    pub gamma: f64,
    /// Minimum sum of hessians in a child (XGBoost `min_child_weight`).
    pub min_child_weight: f64,
    /// Fraction of rows sampled per boosting round.
    pub subsample: f64,
    /// Fraction of columns sampled per tree.
    pub colsample_bytree: f64,
    /// Random seed for row/column subsampling.
    pub seed: u64,
}

impl Default for GradientBoostingParams {
    fn default() -> Self {
        GradientBoostingParams {
            n_estimators: 50,
            learning_rate: 0.1,
            max_depth: 4,
            lambda: 1.0,
            gamma: 0.0,
            min_child_weight: 1.0,
            subsample: 1.0,
            colsample_bytree: 1.0,
            seed: 0,
        }
    }
}

/// One node of a regression tree; stored flat.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum RegNode {
    Leaf {
        weight: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct RegressionTree {
    nodes: Vec<RegNode>,
}

impl RegressionTree {
    fn predict_row(&self, row: &[f64]) -> f64 {
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                RegNode::Leaf { weight } => return *weight,
                RegNode::Split {
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

/// The exact greedy split search over presorted column blocks (Chen &
/// Guestrin, KDD 2016), with buffers reused across trees and rounds.
///
/// Once per boosting round, [`ColumnBlocks::presort`] stable-sorts the
/// round's rows by every column; the round's class trees share that order.
/// Each tree copies its sampled columns into a segment buffer in which every
/// open node owns the same `lo..hi` range of every column, sorted by value.
/// A split stable-partitions each column's range, left rows first, so the
/// children's ranges are sorted too.
///
/// This is bit-identical to stable-sorting each node's rows per feature:
/// partitions are stable, so a node's rows are always a subsequence of the
/// round's rows in round order, and a stable sort of them orders ties by
/// round position, exactly as the partitioned round sort does. The scan
/// thus visits the same rows in the same order and accumulates the same
/// sums. That argument needs a total order on the values, i.e. finite
/// inputs (`partial_cmp` does not order NaN); every `MvgClassifier` path
/// scales through `MinMaxScaler`, which rejects non-finite values.
#[derive(Default)]
struct ColumnBlocks {
    /// Rows in the round, `m` of them.
    m: usize,
    /// `n_cols` blocks of `m`: the round's rows sorted by each column.
    /// Rows only, to keep the shared order small; a tree gathers the
    /// values of its sampled columns.
    round_rows: Vec<u32>,
    /// The tree's sampled columns, one block of `m` per feature, in
    /// feature order; each node's rows sit at its `lo..hi` in every block.
    seg_vals: Vec<f64>,
    seg_rows: Vec<u32>,
    /// Each node's rows in round order, at the node's `lo..hi`.
    indices: Vec<u32>,
    /// Per row: whether the current split sends it left.
    goes_left: Vec<bool>,
    /// Scratch for sorting and for the right halves of partitions.
    pairs: Vec<(f64, u32)>,
    scratch_vals: Vec<f64>,
    scratch_rows: Vec<u32>,
}

impl ColumnBlocks {
    /// Stable-sorts the round's rows by every column of `x`.
    fn presort(&mut self, x: &FeatureMatrix, row_indices: &[u32]) {
        let m = row_indices.len();
        self.m = m;
        self.round_rows.clear();
        // exact sizes: growth by doubling would hold up to twice the memory
        self.round_rows.reserve_exact(x.n_cols() * m);
        for col in 0..x.n_cols() {
            self.pairs.clear();
            self.pairs
                .extend(row_indices.iter().map(|&i| (x.get(i as usize, col), i)));
            self.pairs
                .sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            self.round_rows.extend(self.pairs.iter().map(|p| p.1));
        }
        self.goes_left.resize(x.n_rows(), false);
    }

    /// Lays out one tree's columns and its root node's rows.
    fn start_tree(&mut self, x: &FeatureMatrix, features: &[usize], row_indices: &[u32]) {
        let m = self.m;
        self.seg_vals.clear();
        self.seg_rows.clear();
        self.seg_vals.reserve_exact(features.len() * m);
        self.seg_rows.reserve_exact(features.len() * m);
        for &f in features {
            let rows = &self.round_rows[f * m..(f + 1) * m];
            self.seg_rows.extend_from_slice(rows);
            self.seg_vals
                .extend(rows.iter().map(|&i| x.get(i as usize, f)));
        }
        self.indices.clear();
        self.indices.extend_from_slice(row_indices);
    }

    /// Stable-partitions the node rows at `lo..hi` by `goes_left`, left
    /// rows first, returning the left count; with `columns`, every
    /// column's range too.
    fn partition(&mut self, lo: usize, hi: usize, columns: bool) -> usize {
        let goes_left = &self.goes_left;
        let n_left = stable_partition(
            &mut self.indices[lo..hi],
            &mut self.scratch_rows,
            |_, &i| goes_left[i as usize],
        );
        if columns {
            let blocks = self
                .seg_rows
                .chunks_exact_mut(self.m)
                .zip(self.seg_vals.chunks_exact_mut(self.m));
            for (rows, vals) in blocks {
                let rows = &mut rows[lo..hi];
                // values first: their side is read off the unmoved rows
                stable_partition(&mut vals[lo..hi], &mut self.scratch_vals, |pos, _| {
                    goes_left[rows[pos] as usize]
                });
                stable_partition(rows, &mut self.scratch_rows, |_, &i| goes_left[i as usize]);
            }
        }
        n_left
    }
}

/// Moves the items for which `goes_left(position, item)` holds to the front
/// of `items`, keeping the order on both sides, and returns their count.
/// Each position is tested before anything is written to it.
fn stable_partition<T: Copy>(
    items: &mut [T],
    scratch: &mut Vec<T>,
    goes_left: impl Fn(usize, &T) -> bool,
) -> usize {
    scratch.clear();
    let mut n_left = 0;
    for pos in 0..items.len() {
        let item = items[pos];
        if goes_left(pos, &item) {
            items[n_left] = item;
            n_left += 1;
        } else {
            scratch.push(item);
        }
    }
    items[n_left..].copy_from_slice(scratch);
    n_left
}

struct TreeBuilder<'a> {
    x: &'a FeatureMatrix,
    grad: &'a [f64],
    hess: &'a [f64],
    params: &'a GradientBoostingParams,
    features: &'a [usize],
    blocks: &'a mut ColumnBlocks,
    nodes: Vec<RegNode>,
    importance: &'a mut [f64],
}

impl<'a> TreeBuilder<'a> {
    fn leaf_weight(&self, g: f64, h: f64) -> f64 {
        -g / (h + self.params.lambda)
    }

    fn leaf(&mut self, g: f64, h: f64) -> usize {
        let weight = self.leaf_weight(g, h);
        self.nodes.push(RegNode::Leaf { weight });
        self.nodes.len() - 1
    }

    /// Grows the subtree of the node whose rows sit at `lo..hi`.
    fn build(&mut self, lo: usize, hi: usize, depth: usize) -> usize {
        let indices = &self.blocks.indices[lo..hi];
        let g_total: f64 = indices.iter().map(|&i| self.grad[i as usize]).sum();
        let h_total: f64 = indices.iter().map(|&i| self.hess[i as usize]).sum();
        if depth >= self.params.max_depth || hi - lo < 2 {
            return self.leaf(g_total, h_total);
        }
        let parent_score = g_total * g_total / (h_total + self.params.lambda);
        let m = self.blocks.m;
        let mut best: Option<(usize, f64, f64)> = None; // feature, threshold, gain
        for (slot, &feature) in self.features.iter().enumerate() {
            let base = slot * m;
            let vals = &self.blocks.seg_vals[base + lo..base + hi];
            let rows = &self.blocks.seg_rows[base + lo..base + hi];
            let mut g_left = 0.0;
            let mut h_left = 0.0;
            for pos in 1..vals.len() {
                let moved = rows[pos - 1] as usize;
                g_left += self.grad[moved];
                h_left += self.hess[moved];
                let prev_val = vals[pos - 1];
                let next_val = vals[pos];
                if prev_val == next_val {
                    continue;
                }
                let g_right = g_total - g_left;
                let h_right = h_total - h_left;
                if h_left < self.params.min_child_weight || h_right < self.params.min_child_weight {
                    continue;
                }
                let gain = 0.5
                    * (g_left * g_left / (h_left + self.params.lambda)
                        + g_right * g_right / (h_right + self.params.lambda)
                        - parent_score)
                    - self.params.gamma;
                if gain > 0.0 && best.map(|(_, _, g)| gain > g).unwrap_or(true) {
                    best = Some((feature, 0.5 * (prev_val + next_val), gain));
                }
            }
        }
        let Some((feature, threshold, gain)) = best else {
            return self.leaf(g_total, h_total);
        };
        let mut n_left = 0;
        for &i in &self.blocks.indices[lo..hi] {
            let left = self.x.get(i as usize, feature) <= threshold;
            self.blocks.goes_left[i as usize] = left;
            n_left += usize::from(left);
        }
        if n_left == 0 || n_left == hi - lo {
            return self.leaf(g_total, h_total);
        }
        // children at max depth are leaves: they only need their rows' sums
        let children_split = depth + 1 < self.params.max_depth;
        let mid = lo + self.blocks.partition(lo, hi, children_split);
        self.importance[feature] += gain;
        self.nodes.push(RegNode::Leaf { weight: 0.0 });
        let node_id = self.nodes.len() - 1;
        let left = self.build(lo, mid, depth + 1);
        let right = self.build(mid, hi, depth + 1);
        self.nodes[node_id] = RegNode::Split {
            feature,
            threshold,
            left,
            right,
        };
        node_id
    }
}

/// Gradient-boosted trees with a softmax multi-class objective.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GradientBoosting {
    params: GradientBoostingParams,
    /// `trees[round][class]`
    trees: Vec<Vec<RegressionTree>>,
    base_score: Vec<f64>,
    n_classes: usize,
    n_features: usize,
    feature_importance: Vec<f64>,
}

impl GradientBoosting {
    /// Creates an unfitted booster.
    pub fn new(params: GradientBoostingParams) -> Self {
        GradientBoosting {
            params,
            trees: Vec::new(),
            base_score: Vec::new(),
            n_classes: 0,
            n_features: 0,
            feature_importance: Vec::new(),
        }
    }

    /// The booster's hyper-parameters.
    pub fn params(&self) -> &GradientBoostingParams {
        &self.params
    }

    /// Total split gain accumulated per feature ("gain" importance),
    /// normalised to sum to 1. Empty before fitting.
    pub fn feature_importance(&self) -> Vec<f64> {
        let sum: f64 = self.feature_importance.iter().sum();
        if sum <= 0.0 {
            return self.feature_importance.clone();
        }
        self.feature_importance.iter().map(|v| v / sum).collect()
    }

    fn raw_scores(&self, row: &[f64]) -> Vec<f64> {
        let mut scores = self.base_score.clone();
        for round in &self.trees {
            for (class, tree) in round.iter().enumerate() {
                scores[class] += self.params.learning_rate * tree.predict_row(row);
            }
        }
        scores
    }

    /// Rebuilds a fitted booster from the body of a [`snapshot`] blob (the
    /// bytes after the [`snapshot::TAG_GBT`] tag). Fails closed with `None`
    /// on truncation or on any structurally invalid tree — node references
    /// must point strictly forward (the builder always emits children after
    /// their parent, which also guarantees `predict_row` terminates) and
    /// feature indices must be in range, so a corrupt snapshot can never
    /// panic or loop at prediction time.
    pub fn from_snapshot(r: &mut snapshot::SnapReader<'_>) -> Option<Self> {
        let params = GradientBoostingParams {
            n_estimators: r.u64()? as usize,
            learning_rate: r.f64()?,
            max_depth: r.u64()? as usize,
            lambda: r.f64()?,
            gamma: r.f64()?,
            min_child_weight: r.f64()?,
            subsample: r.f64()?,
            colsample_bytree: r.f64()?,
            seed: r.u64()?,
        };
        let n_classes = r.u64()? as usize;
        let n_features = r.u64()? as usize;
        let base_score = r.f64s()?;
        let feature_importance = r.f64s()?;
        if base_score.len() != n_classes || feature_importance.len() != n_features {
            return None;
        }
        let n_rounds = r.u32()? as usize;
        let mut trees = Vec::with_capacity(n_rounds.min(1 << 16));
        for _ in 0..n_rounds {
            let n_trees = r.u32()? as usize;
            if n_trees != n_classes {
                return None; // every round carries exactly one tree per class
            }
            let mut round = Vec::with_capacity(n_trees.min(1 << 16));
            for _ in 0..n_trees {
                round.push(read_tree(r, n_features)?);
            }
            trees.push(round);
        }
        Some(GradientBoosting {
            params,
            trees,
            base_score,
            n_classes,
            n_features,
            feature_importance,
        })
    }
}

/// Reads one regression tree, validating every node reference (see
/// [`GradientBoosting::from_snapshot`]).
fn read_tree(r: &mut snapshot::SnapReader<'_>, n_features: usize) -> Option<RegressionTree> {
    let n_nodes = r.u32()? as usize;
    let mut nodes = Vec::with_capacity(n_nodes.min(1 << 16));
    for node_id in 0..n_nodes {
        let node = match r.u8()? {
            0 => RegNode::Leaf { weight: r.f64()? },
            1 => {
                let feature = r.u32()? as usize;
                let threshold = r.f64()?;
                let left = r.u32()? as usize;
                let right = r.u32()? as usize;
                if feature >= n_features
                    || left <= node_id
                    || right <= node_id
                    || left >= n_nodes
                    || right >= n_nodes
                {
                    return None;
                }
                RegNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                }
            }
            _ => return None,
        };
        nodes.push(node);
    }
    if nodes.is_empty() {
        return None; // predict_row dereferences node 0 unconditionally
    }
    Some(RegressionTree { nodes })
}

impl Classifier for GradientBoosting {
    fn fit(&mut self, x: &FeatureMatrix, y: &[usize]) -> Result<()> {
        if x.is_empty() || x.n_rows() != y.len() {
            return Err(MlError::InvalidData(
                "empty or mismatched training data".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.params.subsample) || self.params.subsample <= 0.0 {
            return Err(MlError::invalid("subsample", "must be in (0, 1]"));
        }
        if !(0.0..=1.0).contains(&self.params.colsample_bytree)
            || self.params.colsample_bytree <= 0.0
        {
            return Err(MlError::invalid("colsample_bytree", "must be in (0, 1]"));
        }
        let n = x.n_rows();
        if u32::try_from(n).is_err() {
            return Err(MlError::InvalidData(format!(
                "{n} rows: the tree builder indexes rows with u32"
            )));
        }
        let k = n_classes(y);
        self.n_classes = k;
        self.n_features = x.n_cols();
        self.feature_importance = vec![0.0; x.n_cols()];
        self.trees.clear();
        // base score: log prior per class
        let mut prior = vec![0.0f64; k];
        for &label in y {
            prior[label] += 1.0;
        }
        self.base_score = prior
            .iter()
            .map(|c| ((c / n as f64).max(1e-12)).ln())
            .collect();

        let mut rng = ChaCha8Rng::seed_from_u64(self.params.seed);
        // raw scores per sample per class
        let mut scores: Vec<Vec<f64>> = vec![self.base_score.clone(); n];
        let mut blocks = ColumnBlocks::default();
        let mut grad = vec![0.0f64; n];
        let mut hess = vec![0.0f64; n];
        let mut importance = vec![0.0f64; x.n_cols()];

        for _round in 0..self.params.n_estimators {
            // softmax probabilities
            let probs: Vec<Vec<f64>> = scores.iter().map(|s| softmax(s)).collect();
            // row subsample
            let mut row_indices: Vec<u32> = (0..n as u32).collect();
            if self.params.subsample < 1.0 {
                row_indices.shuffle(&mut rng);
                let keep = ((n as f64 * self.params.subsample).round() as usize)
                    .max(2)
                    .min(n);
                row_indices.truncate(keep);
            }
            blocks.presort(x, &row_indices);
            let mut round_trees = Vec::with_capacity(k);
            for class in 0..k {
                // gradients / hessians of softmax cross-entropy
                for i in 0..n {
                    let p = probs[i][class];
                    let target = if y[i] == class { 1.0 } else { 0.0 };
                    grad[i] = p - target;
                    hess[i] = (p * (1.0 - p)).max(1e-16);
                }
                // column subsample
                let mut features: Vec<usize> = (0..x.n_cols()).collect();
                if self.params.colsample_bytree < 1.0 {
                    features.shuffle(&mut rng);
                    let keep = ((x.n_cols() as f64 * self.params.colsample_bytree).round()
                        as usize)
                        .max(1)
                        .min(x.n_cols());
                    features.truncate(keep);
                }
                blocks.start_tree(x, &features, &row_indices);
                importance.fill(0.0);
                let mut builder = TreeBuilder {
                    x,
                    grad: &grad,
                    hess: &hess,
                    params: &self.params,
                    features: &features,
                    blocks: &mut blocks,
                    nodes: Vec::new(),
                    importance: &mut importance,
                };
                builder.build(0, row_indices.len(), 0);
                let tree = RegressionTree {
                    nodes: builder.nodes,
                };
                for (total, v) in self.feature_importance.iter_mut().zip(&importance) {
                    *total += v;
                }
                // update scores for all rows; row index i addresses both the
                // score matrix and the feature matrix, as in the boosting
                // update equations
                #[allow(clippy::needless_range_loop)]
                for i in 0..n {
                    scores[i][class] += self.params.learning_rate * tree.predict_row(x.row(i));
                }
                round_trees.push(tree);
            }
            self.trees.push(round_trees);
        }
        Ok(())
    }

    fn predict_proba(&self, x: &FeatureMatrix) -> Result<Vec<Vec<f64>>> {
        if self.trees.is_empty() {
            return Err(MlError::NotFitted);
        }
        Ok(x.rows().map(|row| softmax(&self.raw_scores(row))).collect())
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn describe(&self) -> String {
        format!(
            "GradientBoosting(n_estimators={}, lr={}, max_depth={})",
            self.params.n_estimators, self.params.learning_rate, self.params.max_depth
        )
    }

    fn snapshot_state(&self, out: &mut Vec<u8>) -> bool {
        snapshot::put_u8(out, snapshot::TAG_GBT);
        snapshot::put_u64(out, self.params.n_estimators as u64);
        snapshot::put_f64(out, self.params.learning_rate);
        snapshot::put_u64(out, self.params.max_depth as u64);
        snapshot::put_f64(out, self.params.lambda);
        snapshot::put_f64(out, self.params.gamma);
        snapshot::put_f64(out, self.params.min_child_weight);
        snapshot::put_f64(out, self.params.subsample);
        snapshot::put_f64(out, self.params.colsample_bytree);
        snapshot::put_u64(out, self.params.seed);
        snapshot::put_u64(out, self.n_classes as u64);
        snapshot::put_u64(out, self.n_features as u64);
        snapshot::put_f64s(out, &self.base_score);
        snapshot::put_f64s(out, &self.feature_importance);
        snapshot::put_u32(out, self.trees.len() as u32);
        for round in &self.trees {
            snapshot::put_u32(out, round.len() as u32);
            for tree in round {
                snapshot::put_u32(out, tree.nodes.len() as u32);
                for node in &tree.nodes {
                    match node {
                        RegNode::Leaf { weight } => {
                            snapshot::put_u8(out, 0);
                            snapshot::put_f64(out, *weight);
                        }
                        RegNode::Split {
                            feature,
                            threshold,
                            left,
                            right,
                        } => {
                            snapshot::put_u8(out, 1);
                            snapshot::put_u32(out, *feature as u32);
                            snapshot::put_f64(out, *threshold);
                            snapshot::put_u32(out, *left as u32);
                            snapshot::put_u32(out, *right as u32);
                        }
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{accuracy, log_loss};

    fn xor_like() -> (FeatureMatrix, Vec<usize>) {
        // XOR pattern, not linearly separable
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        let mut state = 777u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) * 0.4 - 0.2
        };
        for i in 0..120 {
            let (cx, cy, label) = match i % 4 {
                0 => (0.0, 0.0, 0usize),
                1 => (1.0, 1.0, 0),
                2 => (0.0, 1.0, 1),
                _ => (1.0, 0.0, 1),
            };
            rows.push(vec![cx + next(), cy + next()]);
            labels.push(label);
        }
        (FeatureMatrix::from_rows(&rows).unwrap(), labels)
    }

    #[test]
    fn learns_xor() {
        let (x, y) = xor_like();
        let mut gbt = GradientBoosting::new(GradientBoostingParams {
            n_estimators: 30,
            max_depth: 3,
            learning_rate: 0.3,
            ..Default::default()
        });
        gbt.fit(&x, &y).unwrap();
        let pred = gbt.predict(&x).unwrap();
        assert!(
            accuracy(&y, &pred) > 0.95,
            "accuracy {}",
            accuracy(&y, &pred)
        );
    }

    #[test]
    fn multiclass_probabilities_valid_and_loss_decreases() {
        // three classes along one axis
        let rows: Vec<Vec<f64>> = (0..90)
            .map(|i| vec![(i / 30) as f64 + (i % 30) as f64 / 100.0])
            .collect();
        let labels: Vec<usize> = (0..90).map(|i| i / 30).collect();
        let x = FeatureMatrix::from_rows(&rows).unwrap();
        let mut weak = GradientBoosting::new(GradientBoostingParams {
            n_estimators: 1,
            ..Default::default()
        });
        weak.fit(&x, &labels).unwrap();
        let mut strong = GradientBoosting::new(GradientBoostingParams {
            n_estimators: 40,
            ..Default::default()
        });
        strong.fit(&x, &labels).unwrap();
        let weak_loss = log_loss(&labels, &weak.predict_proba(&x).unwrap());
        let strong_loss = log_loss(&labels, &strong.predict_proba(&x).unwrap());
        assert!(strong_loss < weak_loss);
        for p in strong.predict_proba(&x).unwrap() {
            assert_eq!(p.len(), 3);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn subsampling_still_learns() {
        let (x, y) = xor_like();
        let mut gbt = GradientBoosting::new(GradientBoostingParams {
            n_estimators: 40,
            max_depth: 3,
            learning_rate: 0.3,
            subsample: 0.5,
            colsample_bytree: 0.5,
            seed: 5,
            ..Default::default()
        });
        gbt.fit(&x, &y).unwrap();
        assert!(accuracy(&y, &gbt.predict(&x).unwrap()) > 0.85);
    }

    #[test]
    fn feature_importance_highlights_informative_feature() {
        // feature 0 informative, feature 1 pure noise
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        let mut state = 42u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        for i in 0..100 {
            let label = i % 2;
            rows.push(vec![label as f64 + 0.2 * next(), next()]);
            labels.push(label);
        }
        let x = FeatureMatrix::from_rows(&rows).unwrap();
        let mut gbt = GradientBoosting::new(GradientBoostingParams {
            n_estimators: 10,
            ..Default::default()
        });
        gbt.fit(&x, &labels).unwrap();
        let imp = gbt.feature_importance();
        assert!(
            imp[0] > 0.9,
            "informative feature should dominate, got {imp:?}"
        );
    }

    #[test]
    fn invalid_parameters_rejected() {
        let (x, y) = xor_like();
        let mut gbt = GradientBoosting::new(GradientBoostingParams {
            subsample: 0.0,
            ..Default::default()
        });
        assert!(gbt.fit(&x, &y).is_err());
        let mut gbt = GradientBoosting::new(GradientBoostingParams {
            colsample_bytree: 1.5,
            ..Default::default()
        });
        assert!(gbt.fit(&x, &y).is_err());
        let gbt = GradientBoosting::new(GradientBoostingParams::default());
        assert!(gbt.predict_proba(&x).is_err());
    }

    #[test]
    fn snapshot_roundtrips_bit_identically_and_fails_closed() {
        let (x, y) = xor_like();
        let mut gbt = GradientBoosting::new(GradientBoostingParams {
            n_estimators: 8,
            max_depth: 3,
            subsample: 0.7,
            colsample_bytree: 0.7,
            seed: 3,
            ..Default::default()
        });
        gbt.fit(&x, &y).unwrap();
        let mut bytes = Vec::new();
        assert!(gbt.snapshot_state(&mut bytes));
        let restored = crate::snapshot::restore_classifier(&bytes).unwrap();
        assert_eq!(restored.n_classes(), gbt.n_classes());
        for (a, b) in gbt
            .predict_proba(&x)
            .unwrap()
            .iter()
            .zip(restored.predict_proba(&x).unwrap().iter())
        {
            for (va, vb) in a.iter().zip(b.iter()) {
                assert_eq!(va.to_bits(), vb.to_bits(), "restored model drifted");
            }
        }
        // a second snapshot of the restored model is byte-identical
        let mut again = Vec::new();
        assert!(restored.snapshot_state(&mut again));
        assert_eq!(again, bytes);
        // every truncation fails closed — no panic, no partial model
        for cut in [0, 1, 9, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                crate::snapshot::restore_classifier(&bytes[..cut]).is_none(),
                "truncation at {cut} restored a model"
            );
        }
        // trailing garbage is rejected outright
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(crate::snapshot::restore_classifier(&padded).is_none());
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = xor_like();
        let params = GradientBoostingParams {
            n_estimators: 5,
            subsample: 0.7,
            colsample_bytree: 0.7,
            seed: 11,
            ..Default::default()
        };
        let mut a = GradientBoosting::new(params);
        let mut b = GradientBoosting::new(params);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(a.predict_proba(&x).unwrap(), b.predict_proba(&x).unwrap());
    }
}
