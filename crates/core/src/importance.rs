//! Feature importance reporting (the basis of Figure 10).

/// One named feature with its importance weight.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureImportance {
    /// Feature name, e.g. `T0 HVG P(M44)`.
    pub name: String,
    /// Importance weight (normalised gain for boosting, mean impurity
    /// decrease for forests).
    pub importance: f64,
}

/// Pairs names with importances and sorts descending by importance.
///
/// When the two slices have different lengths (e.g. no importances are
/// available for the chosen classifier) the shorter length wins; an empty
/// importance vector therefore yields an empty ranking.
pub fn rank_features(names: &[String], importances: &[f64]) -> Vec<FeatureImportance> {
    let mut out: Vec<FeatureImportance> = names
        .iter()
        .zip(importances.iter())
        .map(|(name, &importance)| FeatureImportance {
            name: name.clone(),
            importance,
        })
        .collect();
    out.sort_by(|a, b| {
        b.importance
            .partial_cmp(&a.importance)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    out
}

/// The `k` most important features.
pub fn top_k(ranked: &[FeatureImportance], k: usize) -> Vec<FeatureImportance> {
    ranked.iter().take(k).cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranking_sorts_descending() {
        let names: Vec<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
        let ranked = rank_features(&names, &[0.1, 0.7, 0.2]);
        assert_eq!(ranked[0].name, "b");
        assert_eq!(ranked[1].name, "c");
        assert_eq!(ranked[2].name, "a");
    }

    #[test]
    fn mismatched_lengths_truncate() {
        let names: Vec<String> = ["a", "b"].iter().map(|s| s.to_string()).collect();
        assert_eq!(rank_features(&names, &[]).len(), 0);
        assert_eq!(rank_features(&names, &[1.0]).len(), 1);
    }

    #[test]
    fn top_k_takes_prefix() {
        let names: Vec<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
        let ranked = rank_features(&names, &[0.3, 0.5, 0.2]);
        let top = top_k(&ranked, 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].name, "b");
        assert_eq!(top_k(&ranked, 10).len(), 3);
    }
}
