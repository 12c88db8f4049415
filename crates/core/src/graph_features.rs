//! Per-graph feature blocks.
//!
//! For a single visibility graph the extractor produces either the motif
//! probability distribution alone ("MPDs") or the MPDs followed by the other
//! statistical features (density, maximum coreness, assortativity, degree
//! statistics) — the two configurations compared in columns A/C vs B/D of
//! Table 2.

use crate::motif_groups::{motif_feature_index, motif_feature_names, N_MOTIF_FEATURES};
use tsg_graph::stats::GraphStatistics;

/// Names of the feature block of one graph, in extraction order.
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
    use crate::extractor::{extract_series_features, FeatureConfig};
    use tsg_graph::visibility::VisibilityKind;
    use tsg_ts::TimeSeries;

    fn series() -> TimeSeries {
        TimeSeries::new(
            (0..128)
                .map(|i| ((i as f64) * 0.3).sin() + 0.3 * ((i as f64) * 0.05).cos())
                .collect(),
        )
    }

    /// The block of one graph: the uniscale features of a single kind.
    fn block(kind: VisibilityKind, include_other_stats: bool) -> Vec<f64> {
        extract_series_features(
            &series(),
            &FeatureConfig::uniscale_single(kind, include_other_stats),
        )
    }

    #[test]
    fn block_lengths_match_names() {
        for include in [false, true] {
            let block = block(VisibilityKind::Natural, include);
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
        for kind in [VisibilityKind::Natural, VisibilityKind::Horizontal] {
            let block = block(kind, true);
            assert!(block.iter().all(|v| v.is_finite()), "{block:?}");
        }
    }

    #[test]
    fn mpds_prefix_is_shared() {
        let short = block(VisibilityKind::Natural, false);
        let long = block(VisibilityKind::Natural, true);
        assert_eq!(&long[..short.len()], &short[..]);
        assert!(long.len() > short.len());
    }

    #[test]
    fn vg_and_hvg_blocks_differ() {
        let vg_block = block(VisibilityKind::Natural, true);
        let hvg_block = block(VisibilityKind::Horizontal, true);
        assert_ne!(vg_block, hvg_block);
    }
}
