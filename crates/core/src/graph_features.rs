//! Per-graph feature blocks.
//!
//! For a single visibility graph the extractor produces either the motif
//! probability distribution alone ("MPDs") or the MPDs followed by the other
//! statistical features (density, maximum coreness, assortativity, degree
//! statistics) — the two configurations compared in columns A/C vs B/D of
//! Table 2.

use crate::motif_groups::{
    motif_feature_index, motif_feature_names, motif_probability_distribution, N_MOTIF_FEATURES,
};
use tsg_graph::motifs::count_motifs;
use tsg_graph::stats::GraphStatistics;
use tsg_graph::Graph;

/// Computes the feature block for one graph.
///
/// * `include_other_stats = false` → 17 motif probabilities.
/// * `include_other_stats = true`  → 17 motif probabilities followed by 7
///   scalar statistics.
///
/// Motif counting reuses the calling thread's
/// [`MotifWorkspace`](tsg_graph::motifs::MotifWorkspace).
pub fn graph_feature_block(graph: &Graph, include_other_stats: bool) -> Vec<f64> {
    let mut features = motif_probability_distribution(&count_motifs(graph));
    if include_other_stats {
        features.extend(GraphStatistics::compute(graph).to_features());
    }
    features
}

/// Names for [`graph_feature_block`], in the same order.
pub fn graph_feature_names(include_other_stats: bool) -> Vec<String> {
    let mut names = motif_feature_names();
    if include_other_stats {
        names.extend(
            GraphStatistics::feature_names()
                .iter()
                .map(|s| s.to_string()),
        );
    }
    names
}

/// The position of a [`graph_feature_names`] entry within the block, parsed
/// from the same tables without allocating.
pub(crate) fn graph_feature_index(name: &str, include_other_stats: bool) -> Option<usize> {
    motif_feature_index(name).or_else(|| {
        let mut stats = GraphStatistics::feature_names().iter();
        let index = stats
            .position(|n| *n == name)
            .filter(|_| include_other_stats)?;
        Some(N_MOTIF_FEATURES + index)
    })
}

/// Number of features in one block.
pub fn block_len(include_other_stats: bool) -> usize {
    if include_other_stats {
        N_MOTIF_FEATURES + GraphStatistics::feature_names().len()
    } else {
        N_MOTIF_FEATURES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsg_graph::visibility::{horizontal_visibility_graph, visibility_graph};

    fn series() -> Vec<f64> {
        (0..128)
            .map(|i| ((i as f64) * 0.3).sin() + 0.3 * ((i as f64) * 0.05).cos())
            .collect()
    }

    #[test]
    fn block_lengths_match_names() {
        let g = visibility_graph(&series());
        for include in [false, true] {
            let block = graph_feature_block(&g, include);
            let names = graph_feature_names(include);
            assert_eq!(block.len(), names.len());
            assert_eq!(block.len(), block_len(include));
        }
    }

    #[test]
    fn names_parse_back_to_their_block_position() {
        for include in [false, true] {
            for (i, name) in graph_feature_names(include).iter().enumerate() {
                assert_eq!(graph_feature_index(name, include), Some(i), "{name}");
            }
        }
        assert_eq!(graph_feature_index("density", false), None);
        assert_eq!(graph_feature_index("P(M44", true), None);
        assert_eq!(graph_feature_index("P(M99)", true), None);
    }

    #[test]
    fn features_are_finite() {
        for g in [
            visibility_graph(&series()),
            horizontal_visibility_graph(&series()),
        ] {
            let block = graph_feature_block(&g, true);
            assert!(block.iter().all(|v| v.is_finite()), "{block:?}");
        }
    }

    #[test]
    fn mpds_prefix_is_shared() {
        let g = visibility_graph(&series());
        let short = graph_feature_block(&g, false);
        let long = graph_feature_block(&g, true);
        assert_eq!(&long[..short.len()], &short[..]);
        assert!(long.len() > short.len());
    }

    #[test]
    fn vg_and_hvg_blocks_differ() {
        let s = series();
        let vg_block = graph_feature_block(&visibility_graph(&s), true);
        let hvg_block = graph_feature_block(&horizontal_visibility_graph(&s), true);
        assert_ne!(vg_block, hvg_block);
    }
}
