//! Friedman test and Nemenyi post-hoc critical difference.
//!
//! Figures 6 and 7 of the paper compare classifier variants with a
//! critical-difference diagram: methods are placed at their average rank and
//! groups whose rank difference is below the Nemenyi critical difference
//! `CD = q_α · sqrt(k (k + 1) / (6 N))` are connected by an insignificance
//! bar. This module computes the average ranks, the Friedman chi-square
//! statistic and the CD value, plus the grouping of methods into
//! insignificance cliques — everything needed to draw the diagram.

use crate::ranks::average_ranks;

/// Studentised range statistic `q_α / sqrt(2)` for α = 0.05, indexed by the
/// number of methods `k` (2 ≤ k ≤ 10). Values from Demšar (2006), the
/// standard reference for critical-difference diagrams.
const NEMENYI_Q_ALPHA_05: [f64; 9] = [
    1.960, // k = 2
    2.343, // k = 3
    2.569, // k = 4
    2.728, // k = 5
    2.850, // k = 6
    2.949, // k = 7
    3.031, // k = 8
    3.102, // k = 9
    3.164, // k = 10
];

/// Result of the Friedman test.
#[derive(Debug, Clone, PartialEq)]
pub struct FriedmanResult {
    /// Average rank per method (rank 1 = best).
    pub average_ranks: Vec<f64>,
    /// Friedman chi-square statistic.
    pub chi_square: f64,
    /// Number of datasets.
    pub n_datasets: usize,
    /// Number of methods.
    pub n_methods: usize,
}

/// Runs the Friedman test on a `datasets × methods` error-rate matrix.
pub fn friedman_test(error_rates: &[Vec<f64>]) -> FriedmanResult {
    let n = error_rates.len();
    let k = error_rates.first().map(|r| r.len()).unwrap_or(0);
    let ranks = average_ranks(error_rates);
    let nf = n as f64;
    let kf = k as f64;
    let sum_sq: f64 = ranks.iter().map(|r| r * r).sum();
    let chi_square = if n == 0 || k < 2 {
        0.0
    } else {
        12.0 * nf / (kf * (kf + 1.0)) * (sum_sq - kf * (kf + 1.0) * (kf + 1.0) / 4.0)
    };
    FriedmanResult {
        average_ranks: ranks,
        chi_square,
        n_datasets: n,
        n_methods: k,
    }
}

/// Critical-difference data for a Nemenyi post-hoc comparison at α = 0.05.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalDifference {
    /// Method names, in the input column order.
    pub methods: Vec<String>,
    /// Average rank per method.
    pub average_ranks: Vec<f64>,
    /// The critical difference value.
    pub cd: f64,
    /// Groups of method indices that are *not* significantly different
    /// (maximal cliques of the insignificance relation, as drawn by the bold
    /// bars of a CD diagram).
    pub insignificant_groups: Vec<Vec<usize>>,
}

/// Computes the Nemenyi critical difference at α = 0.05.
///
/// `error_rates` is a `datasets × methods` matrix and `methods` the matching
/// column names. Supports 2–10 methods (the range the q table covers).
pub fn nemenyi_critical_difference(
    error_rates: &[Vec<f64>],
    methods: &[&str],
) -> CriticalDifference {
    let k = methods.len();
    assert!(
        (2..=10).contains(&k),
        "Nemenyi table covers 2..=10 methods, got {k}"
    );
    let n = error_rates.len().max(1);
    let ranks = average_ranks(error_rates);
    let q = NEMENYI_Q_ALPHA_05[k - 2];
    let cd = q * (k as f64 * (k as f64 + 1.0) / (6.0 * n as f64)).sqrt();
    // group methods by rank proximity: sort by rank, then sweep maximal
    // windows whose extreme ranks differ by less than CD
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by(|&a, &b| {
        ranks[a]
            .partial_cmp(&ranks[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for start in 0..k {
        let mut end = start;
        while end + 1 < k && ranks[order[end + 1]] - ranks[order[start]] < cd {
            end += 1;
        }
        if end > start {
            let group: Vec<usize> = order[start..=end].to_vec();
            // keep only maximal groups
            if !groups.iter().any(|g| group.iter().all(|m| g.contains(m))) {
                groups.push(group);
            }
        }
    }
    CriticalDifference {
        methods: methods.iter().map(|s| s.to_string()).collect(),
        average_ranks: ranks,
        cd,
        insignificant_groups: groups,
    }
}

impl CriticalDifference {
    /// A plain-text rendering of the critical-difference diagram.
    pub fn render(&self) -> String {
        let mut order: Vec<usize> = (0..self.methods.len()).collect();
        order.sort_by(|&a, &b| {
            self.average_ranks[a]
                .partial_cmp(&self.average_ranks[b])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut out = format!("CD = {:.4} (alpha = 0.05)\n", self.cd);
        for &i in &order {
            out.push_str(&format!(
                "  rank {:>5.3}  {}\n",
                self.average_ranks[i], self.methods[i]
            ));
        }
        for (g, group) in self.insignificant_groups.iter().enumerate() {
            let names: Vec<&str> = group.iter().map(|&i| self.methods[i].as_str()).collect();
            out.push_str(&format!(
                "  group {}: {} (not significantly different)\n",
                g + 1,
                names.join(" ~ ")
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix_with_clear_winner() -> Vec<Vec<f64>> {
        // method 0 always best, method 2 always worst, 20 datasets
        (0..20)
            .map(|i| {
                vec![
                    0.10 + 0.001 * i as f64,
                    0.20 + 0.001 * i as f64,
                    0.30 + 0.001 * i as f64,
                ]
            })
            .collect()
    }

    #[test]
    fn friedman_detects_consistent_ordering() {
        let result = friedman_test(&matrix_with_clear_winner());
        assert_eq!(result.n_methods, 3);
        assert_eq!(result.n_datasets, 20);
        assert!((result.average_ranks[0] - 1.0).abs() < 1e-12);
        assert!((result.average_ranks[2] - 3.0).abs() < 1e-12);
        // chi-square for a perfectly consistent ranking of k=3 over N=20 is 2N
        assert!((result.chi_square - 40.0).abs() < 1e-9);
    }

    #[test]
    fn nemenyi_cd_matches_paper_magnitudes() {
        // the paper reports CD = 0.5307 for k = 3 over the 39-dataset table
        let errors: Vec<Vec<f64>> = (0..39)
            .map(|i| vec![0.1, 0.2, 0.3 + i as f64 * 0.0])
            .collect();
        let cd = nemenyi_critical_difference(&errors, &["XGBoost", "RF", "SVM"]);
        assert!((cd.cd - 0.5307).abs() < 0.01, "cd = {}", cd.cd);
        // and CD = 0.7511 for k = 4 over 39 datasets
        let errors4: Vec<Vec<f64>> = (0..39).map(|_| vec![0.1, 0.2, 0.3, 0.4]).collect();
        let cd4 = nemenyi_critical_difference(&errors4, &["a", "b", "c", "d"]);
        assert!((cd4.cd - 0.7511).abs() < 0.01, "cd = {}", cd4.cd);
    }

    #[test]
    fn significant_and_insignificant_pairs() {
        let errors = matrix_with_clear_winner();
        let cd = nemenyi_critical_difference(&errors, &["best", "mid", "worst"]);
        assert!((cd.average_ranks[0] - cd.average_ranks[2]).abs() >= cd.cd);
        assert!(!cd
            .insignificant_groups
            .iter()
            .any(|g| g.contains(&0) && g.contains(&2)));
        let rendered = cd.render();
        assert!(rendered.contains("best"));
        assert!(rendered.contains("CD ="));
    }

    #[test]
    fn noisy_methods_group_together() {
        // two methods statistically indistinguishable, few datasets
        let errors: Vec<Vec<f64>> = (0..6)
            .map(|i| {
                if i % 2 == 0 {
                    vec![0.2, 0.21]
                } else {
                    vec![0.21, 0.2]
                }
            })
            .collect();
        let cd = nemenyi_critical_difference(&errors, &["a", "b"]);
        assert!((cd.average_ranks[0] - cd.average_ranks[1]).abs() < cd.cd);
        assert_eq!(cd.insignificant_groups.len(), 1);
    }

    #[test]
    #[should_panic]
    fn too_many_methods_panics() {
        let errors = vec![vec![0.0; 11]];
        let names: Vec<&str> = (0..11).map(|_| "m").collect();
        nemenyi_critical_difference(&errors, &names);
    }
}
