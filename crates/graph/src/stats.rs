//! Scalar statistical graph features: density, degree statistics, and the
//! combined per-graph record the feature extractor consumes.

use crate::assortativity::degree_assortativity;
use crate::graph::Graph;
use crate::kcore::max_coreness;

/// Graph density (equation 2): `2|E| / (|V| (|V| - 1))`, in `[0, 1]`.
/// Zero for graphs with fewer than two vertices.
pub fn density(graph: &Graph) -> f64 {
    let n = graph.n_vertices();
    if n < 2 {
        return 0.0;
    }
    2.0 * graph.n_edges() as f64 / (n as f64 * (n as f64 - 1.0))
}

/// Minimum, maximum and mean degree of a graph.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DegreeStatistics {
    /// Smallest vertex degree.
    pub min: f64,
    /// Largest vertex degree.
    pub max: f64,
    /// Mean vertex degree.
    pub mean: f64,
    /// Standard deviation of the degree distribution.
    pub std: f64,
}

/// Computes degree statistics; all zeros for the empty graph. With the CSR
/// graph, degrees stream straight off the offset array — no allocation.
pub fn degree_statistics(graph: &Graph) -> DegreeStatistics {
    let n = graph.n_vertices();
    if n == 0 {
        return DegreeStatistics::default();
    }
    let mut min = usize::MAX;
    let mut max = 0usize;
    let mut sum = 0usize;
    for d in graph.degrees() {
        min = min.min(d);
        max = max.max(d);
        sum += d;
    }
    let mean = sum as f64 / n as f64;
    let var = graph
        .degrees()
        .map(|d| (d as f64 - mean) * (d as f64 - mean))
        .sum::<f64>()
        / n as f64;
    DegreeStatistics {
        min: min as f64,
        max: max as f64,
        mean,
        std: var.sqrt(),
    }
}

/// The scalar (non-motif) statistical features the paper extracts from every
/// visibility graph: density, maximum coreness, assortativity and degree
/// statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GraphStatistics {
    /// Graph density (equation 2).
    pub density: f64,
    /// Maximum core number (equation 3).
    pub max_coreness: f64,
    /// Degree assortativity coefficient (equation 4).
    pub assortativity: f64,
    /// Degree statistics (min / max / mean / std).
    pub degrees: DegreeStatistics,
}

impl GraphStatistics {
    /// Computes all scalar statistics for a graph.
    pub fn compute(graph: &Graph) -> Self {
        GraphStatistics {
            density: density(graph),
            max_coreness: max_coreness(graph) as f64,
            assortativity: degree_assortativity(graph),
            degrees: degree_statistics(graph),
        }
    }

    /// Flattens the record into a feature vector in a stable order.
    pub fn to_features(&self) -> Vec<f64> {
        vec![
            self.density,
            self.max_coreness,
            self.assortativity,
            self.degrees.min,
            self.degrees.max,
            self.degrees.mean,
            self.degrees.std,
        ]
    }

    /// Names matching [`GraphStatistics::to_features`], used for feature
    /// importance reporting.
    pub fn feature_names() -> &'static [&'static str] {
        &[
            "density",
            "max_coreness",
            "assortativity",
            "degree_min",
            "degree_max",
            "degree_mean",
            "degree_std",
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::visibility::visibility_graph;

    #[test]
    fn density_of_complete_graph_is_one() {
        let mut edges = Vec::new();
        for i in 0..5usize {
            for j in (i + 1)..5 {
                edges.push((i, j));
            }
        }
        let g = Graph::from_edges(5, edges);
        assert!((density(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn density_of_path_graph() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        assert!((density(&g) - 0.5).abs() < 1e-12);
        assert_eq!(density(&Graph::new(1)), 0.0);
        assert_eq!(density(&Graph::new(0)), 0.0);
    }

    #[test]
    fn degree_statistics_basic() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (1, 3)]);
        let s = degree_statistics(&g);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.mean, 2.0);
        assert!(s.std > 0.0);
        assert_eq!(
            degree_statistics(&Graph::new(0)),
            DegreeStatistics::default()
        );
    }

    #[test]
    fn combined_statistics_on_visibility_graph() {
        let v: Vec<f64> = (0..64).map(|i| ((i as f64) * 0.4).sin()).collect();
        let g = visibility_graph(&v);
        let s = GraphStatistics::compute(&g);
        assert!(s.density > 0.0 && s.density <= 1.0);
        assert!(s.max_coreness >= 1.0);
        assert!((-1.0..=1.0).contains(&s.assortativity));
        assert!(s.degrees.mean >= 2.0 * (1.0 - 1.0 / 64.0)); // connected graph mean degree ≥ ~2
        let f = s.to_features();
        assert_eq!(f.len(), GraphStatistics::feature_names().len());
    }

    #[test]
    fn feature_vector_order_is_stable() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
        let s = GraphStatistics::compute(&g);
        let f = s.to_features();
        assert_eq!(f[0], s.density);
        assert_eq!(f[1], s.max_coreness);
        assert_eq!(f[2], s.assortativity);
        assert_eq!(f[3], s.degrees.min);
    }
}
