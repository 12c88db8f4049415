//! Fast-Shapelets-style shapelet decision tree.
//!
//! The original Fast Shapelets algorithm (Rakthanmanon & Keogh, 2013) speeds
//! up exhaustive shapelet discovery by projecting SAX words of candidate
//! subsequences randomly and keeping only the most discriminative candidates
//! for exact evaluation. This implementation keeps the same overall
//! structure — a binary decision tree whose internal nodes hold a (shapelet,
//! threshold) pair chosen by information gain — and replaces the SAX
//! random-projection filter with seeded random candidate subsampling, which
//! preserves the accuracy/runtime trade-off the paper's Table 3 measures
//! (candidate evaluation still dominates the cost and scales with
//! `series length × shapelet length × training size`).

use crate::error::BaselineError;
use crate::traits::TscClassifier;
use crate::Result;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tsg_ts::preprocess::znormalize;
use tsg_ts::{Dataset, TimeSeries};

/// Hyper-parameters for [`FastShapelets`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FastShapeletsParams {
    /// Candidate shapelet lengths, as fractions of the series length.
    pub length_fractions: [f64; 3],
    /// Number of random candidates evaluated per length per node.
    pub candidates_per_length: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum node size to keep splitting.
    pub min_node_size: usize,
    /// Random seed (candidate sampling).
    pub seed: u64,
}

impl Default for FastShapeletsParams {
    fn default() -> Self {
        FastShapeletsParams {
            length_fractions: [0.1, 0.2, 0.35],
            candidates_per_length: 10,
            max_depth: 6,
            min_node_size: 4,
            seed: 0,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        label: usize,
    },
    Split {
        shapelet: Vec<f64>,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// Shapelet decision tree classifier.
#[derive(Debug, Clone)]
pub struct FastShapelets {
    params: FastShapeletsParams,
    nodes: Vec<Node>,
}

/// Minimum z-normalised Euclidean distance between `shapelet` and any
/// subsequence of `series` of the same length, normalised by shapelet length.
fn shapelet_distance(series: &[f64], shapelet: &[f64]) -> f64 {
    let m = shapelet.len();
    if m == 0 || series.len() < m {
        return f64::INFINITY;
    }
    let mut best = f64::INFINITY;
    for start in 0..=(series.len() - m) {
        let window = znormalize(&series[start..start + m]);
        let mut dist = 0.0;
        for (a, b) in window.iter().zip(shapelet.iter()) {
            dist += (a - b) * (a - b);
            if dist >= best {
                break; // early abandon
            }
        }
        best = best.min(dist);
    }
    best / m as f64
}

fn entropy(labels: &[usize]) -> f64 {
    if labels.is_empty() {
        return 0.0;
    }
    let k = labels.iter().copied().max().unwrap_or(0) + 1;
    let mut counts = vec![0usize; k];
    for &l in labels {
        counts[l] += 1;
    }
    let n = labels.len() as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.log2()
        })
        .sum()
}

fn majority(labels: &[usize]) -> usize {
    let k = labels.iter().copied().max().unwrap_or(0) + 1;
    let mut counts = vec![0usize; k];
    for &l in labels {
        counts[l] += 1;
    }
    counts
        .iter()
        .enumerate()
        .max_by_key(|(_, &c)| c)
        .map(|(i, _)| i)
        .unwrap_or(0)
}

impl FastShapelets {
    /// Creates an unfitted classifier.
    pub fn new(params: FastShapeletsParams) -> Self {
        FastShapelets {
            params,
            nodes: Vec::new(),
        }
    }

    /// Best information-gain split of `distances` against `labels`; returns
    /// `(threshold, gain)`.
    fn best_threshold(distances: &[f64], labels: &[usize]) -> (f64, f64) {
        let mut order: Vec<usize> = (0..distances.len()).collect();
        order.sort_by(|&a, &b| {
            distances[a]
                .partial_cmp(&distances[b])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let parent_entropy = entropy(labels);
        let n = labels.len() as f64;
        let mut best_gain = 0.0;
        let mut best_threshold = f64::INFINITY;
        for split in 1..order.len() {
            let d_prev = distances[order[split - 1]];
            let d_next = distances[order[split]];
            if d_prev == d_next {
                continue;
            }
            let left: Vec<usize> = order[..split].iter().map(|&i| labels[i]).collect();
            let right: Vec<usize> = order[split..].iter().map(|&i| labels[i]).collect();
            let gain = parent_entropy
                - (left.len() as f64 / n) * entropy(&left)
                - (right.len() as f64 / n) * entropy(&right);
            if gain > best_gain {
                best_gain = gain;
                best_threshold = 0.5 * (d_prev + d_next);
            }
        }
        (best_threshold, best_gain)
    }

    fn build(
        &mut self,
        series: &[Vec<f64>],
        labels: &[usize],
        indices: Vec<usize>,
        depth: usize,
        rng: &mut ChaCha8Rng,
    ) -> usize {
        let node_labels: Vec<usize> = indices.iter().map(|&i| labels[i]).collect();
        let pure = node_labels.windows(2).all(|w| w[0] == w[1]);
        if depth >= self.params.max_depth || indices.len() < self.params.min_node_size || pure {
            self.nodes.push(Node::Leaf {
                label: majority(&node_labels),
            });
            return self.nodes.len() - 1;
        }
        // sample candidate shapelets from the node's series
        let min_len = series.iter().map(|s| s.len()).min().unwrap_or(0);
        let mut best: Option<(Vec<f64>, f64, f64)> = None; // shapelet, threshold, gain
        for &fraction in &self.params.length_fractions {
            let len = ((min_len as f64 * fraction).round() as usize).clamp(3, min_len.max(3));
            if len >= min_len {
                continue;
            }
            for _ in 0..self.params.candidates_per_length {
                let &source = indices.choose(rng).expect("non-empty node");
                let s = &series[source];
                if s.len() <= len {
                    continue;
                }
                let start = rng.gen_range_usize(s.len() - len);
                let candidate = znormalize(&s[start..start + len]);
                let distances: Vec<f64> = indices
                    .iter()
                    .map(|&i| shapelet_distance(&series[i], &candidate))
                    .collect();
                let (threshold, gain) = Self::best_threshold(&distances, &node_labels);
                if gain > best.as_ref().map(|(_, _, g)| *g).unwrap_or(0.0) {
                    best = Some((candidate, threshold, gain));
                }
            }
        }
        let Some((shapelet, threshold, _gain)) = best else {
            self.nodes.push(Node::Leaf {
                label: majority(&node_labels),
            });
            return self.nodes.len() - 1;
        };
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
            .iter()
            .partition(|&&i| shapelet_distance(&series[i], &shapelet) <= threshold);
        if left_idx.is_empty() || right_idx.is_empty() {
            self.nodes.push(Node::Leaf {
                label: majority(&node_labels),
            });
            return self.nodes.len() - 1;
        }
        self.nodes.push(Node::Leaf { label: 0 });
        let node_id = self.nodes.len() - 1;
        let left = self.build(series, labels, left_idx, depth + 1, rng);
        let right = self.build(series, labels, right_idx, depth + 1, rng);
        self.nodes[node_id] = Node::Split {
            shapelet,
            threshold,
            left,
            right,
        };
        node_id
    }
}

/// Small extension so candidate sampling reads naturally above.
trait GenRangeUsize {
    fn gen_range_usize(&mut self, upper: usize) -> usize;
}

impl GenRangeUsize for ChaCha8Rng {
    fn gen_range_usize(&mut self, upper: usize) -> usize {
        use rand::Rng;
        if upper == 0 {
            0
        } else {
            self.gen_range(0..upper)
        }
    }
}

impl TscClassifier for FastShapelets {
    fn name(&self) -> String {
        "FastShapelets".to_string()
    }

    fn fit(&mut self, train: &Dataset) -> Result<()> {
        if train.is_empty() {
            return Err(BaselineError::InvalidTrainingData(
                "empty training set".into(),
            ));
        }
        let labels = train
            .labels_required()
            .map_err(|e| BaselineError::InvalidTrainingData(e.to_string()))?;
        let series: Vec<Vec<f64>> = train.series().iter().map(|s| s.values().to_vec()).collect();
        self.nodes.clear();
        let mut rng = ChaCha8Rng::seed_from_u64(self.params.seed);
        self.build(&series, &labels, (0..series.len()).collect(), 0, &mut rng);
        Ok(())
    }

    fn predict_series(&self, series: &TimeSeries) -> Result<usize> {
        if self.nodes.is_empty() {
            return Err(BaselineError::NotFitted);
        }
        let values = series.values();
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                Node::Leaf { label } => return Ok(*label),
                Node::Split {
                    shapelet,
                    threshold,
                    left,
                    right,
                } => {
                    node = if shapelet_distance(values, shapelet) <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tsg_ts::generators;

    fn shapelet_dataset(n_per_class: usize, seed: u64) -> Dataset {
        // class decided by which local pattern is embedded in noise
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut d = Dataset::new("shapelets");
        for i in 0..n_per_class * 2 {
            let label = i % 2;
            let background = generators::gaussian_noise(&mut rng, 96, 0.3);
            let pattern = if label == 0 {
                generators::bump_pattern(20)
            } else {
                let mut p = generators::bump_pattern(20);
                // class 1: double bump
                for (k, v) in p.iter_mut().enumerate() {
                    *v *= if k < 10 { 1.0 } else { -1.0 };
                }
                p
            };
            let values = generators::inject_pattern(&mut rng, background, &pattern, 4.0);
            d.push(TimeSeries::with_label(values, label));
        }
        d
    }

    #[test]
    fn learns_local_patterns() {
        let train = shapelet_dataset(12, 1);
        let test = shapelet_dataset(10, 2);
        let mut fs = FastShapelets::new(FastShapeletsParams {
            candidates_per_length: 15,
            seed: 3,
            ..Default::default()
        });
        fs.fit(&train).unwrap();
        let err = fs.error_rate(&test).unwrap();
        assert!(err < 0.4, "error {err}");
        assert_eq!(fs.name(), "FastShapelets");
    }

    #[test]
    fn shapelet_distance_zero_for_contained_pattern() {
        let pattern = znormalize(&[0.0, 1.0, 2.0, 1.0, 0.0]);
        let mut series = vec![5.0; 30];
        series[10] = 0.0;
        series[11] = 1.0;
        series[12] = 2.0;
        series[13] = 1.0;
        series[14] = 0.0;
        let d = shapelet_distance(&series, &pattern);
        assert!(d < 1e-9, "distance {d}");
    }

    #[test]
    fn shapelet_distance_handles_degenerate_inputs() {
        assert!(shapelet_distance(&[1.0, 2.0], &[1.0, 2.0, 3.0]).is_infinite());
        assert!(shapelet_distance(&[1.0, 2.0, 3.0], &[]).is_infinite());
    }

    #[test]
    fn threshold_search_finds_separating_split() {
        let distances = [0.1, 0.2, 0.15, 5.0, 6.0, 5.5];
        let labels = [0, 0, 0, 1, 1, 1];
        let (threshold, gain) = FastShapelets::best_threshold(&distances, &labels);
        assert!(threshold > 0.2 && threshold < 5.0);
        assert!((gain - 1.0).abs() < 1e-9); // perfect split of 2 balanced classes
    }

    #[test]
    fn unfitted_errors() {
        let fs = FastShapelets::new(FastShapeletsParams::default());
        assert!(fs.predict_series(&TimeSeries::new(vec![0.0; 32])).is_err());
    }
}
