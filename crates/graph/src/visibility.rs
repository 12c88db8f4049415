//! Visibility graph construction.
//!
//! * **Natural visibility graph (VG)** — Definition 2.3: vertices `i` and `j`
//!   are connected iff every intermediate bar stays strictly below the
//!   straight line between the tops of bars `i` and `j`.
//! * **Horizontal visibility graph (HVG)** — Definition 2.4: `i` and `j` are
//!   connected iff every intermediate value is strictly smaller than both
//!   endpoints.
//!
//! Two VG builders are provided: a reference `O(n²)` sweep
//! ([`visibility_graph_naive`]) and a divide-and-conquer builder
//! ([`visibility_graph`]) that recurses around range maxima and runs in
//! `O(n log n)` for typical (noisy) series. The two are equivalence-tested
//! against each other. The HVG builder uses the classic monotone stack and
//! runs in `O(n)`.

use crate::graph::Graph;

/// Which visibility criterion to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VisibilityKind {
    /// Natural visibility graph (Definition 2.3).
    Natural,
    /// Horizontal visibility graph (Definition 2.4).
    Horizontal,
}

impl VisibilityKind {
    /// Builds the corresponding graph from a series.
    pub fn build(self, values: &[f64]) -> Graph {
        match self {
            VisibilityKind::Natural => visibility_graph(values),
            VisibilityKind::Horizontal => horizontal_visibility_graph(values),
        }
    }

    /// Short name used in feature labels (`"VG"` / `"HVG"`).
    pub fn short_name(self) -> &'static str {
        match self {
            VisibilityKind::Natural => "VG",
            VisibilityKind::Horizontal => "HVG",
        }
    }
}

/// Reference natural visibility graph: for every start vertex `i`, sweep
/// right keeping the maximum slope seen so far; `j` is visible from `i` iff
/// its slope exceeds every intermediate slope. `O(n²)` worst case; edges are
/// emitted into a flat buffer and finalized into CSR in one `O(n + m)` pass.
pub fn visibility_graph_naive(values: &[f64]) -> Graph {
    let n = values.len();
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(4 * n);
    for i in 0..n {
        let mut max_slope = f64::NEG_INFINITY;
        for j in (i + 1)..n {
            let slope = (values[j] - values[i]) / (j - i) as f64;
            if slope > max_slope {
                edges.push((i as u32, j as u32));
            }
            max_slope = max_slope.max(slope);
        }
    }
    Graph::from_edge_buffer(n, &edges)
}

/// Divide-and-conquer natural visibility graph.
///
/// The maximum of the current range is visible from a prefix of nodes on its
/// left and right (found with the same max-slope sweep restricted to the
/// range); the range is then split at the maximum and both halves are
/// processed recursively. Expected `O(n log n)` for series without long
/// monotone runs; worst case `O(n²)` (same asymptotics as the naive builder).
pub fn visibility_graph(values: &[f64]) -> Graph {
    let n = values.len();
    if n == 0 {
        return Graph::new(0);
    }
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(4 * n);
    // Explicit stack of (lo, hi) inclusive ranges to avoid deep recursion on
    // monotone series.
    let mut stack: Vec<(usize, usize)> = vec![(0, n - 1)];
    while let Some((lo, hi)) = stack.pop() {
        if hi <= lo {
            continue;
        }
        // index of the maximum value in [lo, hi]
        let mut max_idx = lo;
        for i in lo..=hi {
            if values[i] > values[max_idx] {
                max_idx = i;
            }
        }
        // sweep left of the maximum
        if max_idx > lo {
            let mut max_slope = f64::NEG_INFINITY;
            for j in (lo..max_idx).rev() {
                let slope = (values[j] - values[max_idx]) / (max_idx - j) as f64;
                if slope > max_slope {
                    edges.push((max_idx as u32, j as u32));
                }
                max_slope = max_slope.max(slope);
            }
        }
        // sweep right of the maximum
        if max_idx < hi {
            let mut max_slope = f64::NEG_INFINITY;
            for j in (max_idx + 1)..=hi {
                let slope = (values[j] - values[max_idx]) / (j - max_idx) as f64;
                if slope > max_slope {
                    edges.push((max_idx as u32, j as u32));
                }
                max_slope = max_slope.max(slope);
            }
        }
        if max_idx > lo {
            stack.push((lo, max_idx - 1));
        }
        if max_idx < hi {
            stack.push((max_idx + 1, hi));
        }
    }
    let g = Graph::from_edge_buffer(n, &edges);
    // The divide-and-conquer recursion only links vertices to range maxima;
    // visibility pairs fully inside one side of a split that do not involve
    // that side's maximum are discovered deeper in the recursion, but pairs
    // that straddle a split are blocked by the maximum by definition —
    // except neighbours of the maximum on opposite sides are NOT mutually
    // visible through it (it is higher), so no straddling edges are missed.
    g
}

/// Horizontal visibility graph via a monotone stack, `O(n)`.
pub fn horizontal_visibility_graph(values: &[f64]) -> Graph {
    let n = values.len();
    // every bar is pushed and popped at most once, so m ≤ 2n - 3
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(2 * n);
    // stack of indices with strictly decreasing values from bottom to top
    let mut stack: Vec<u32> = Vec::new();
    for j in 0..n {
        while let Some(&top) = stack.last() {
            if values[top as usize] < values[j] {
                edges.push((top, j as u32));
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&top) = stack.last() {
            // the first element ≥ values[j] is still horizontally visible
            edges.push((top, j as u32));
            if values[top as usize] == values[j] {
                // an equal bar blocks everything behind it from seeing past j
                stack.pop();
            }
        }
        stack.push(j as u32);
    }
    Graph::from_edge_buffer(n, &edges)
}

/// Checks the Definition 2.3 visibility predicate directly (used by tests).
pub fn naturally_visible(values: &[f64], i: usize, j: usize) -> bool {
    if i == j {
        return false;
    }
    let (i, j) = if i < j { (i, j) } else { (j, i) };
    for k in (i + 1)..j {
        let line = values[j] + (values[i] - values[j]) * (j - k) as f64 / (j - i) as f64;
        if values[k] >= line {
            return false;
        }
    }
    true
}

/// Checks the Definition 2.4 horizontal visibility predicate directly.
pub fn horizontally_visible(values: &[f64], i: usize, j: usize) -> bool {
    if i == j {
        return false;
    }
    let (i, j) = if i < j { (i, j) } else { (j, i) };
    for k in (i + 1)..j {
        if values[k] >= values[i] || values[k] >= values[j] {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_force(values: &[f64], horizontal: bool) -> Graph {
        let n = values.len();
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let visible = if horizontal {
                    horizontally_visible(values, i, j)
                } else {
                    naturally_visible(values, i, j)
                };
                if visible {
                    edges.push((i, j));
                }
            }
        }
        Graph::from_edges(n, edges)
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(visibility_graph(&[]).n_vertices(), 0);
        assert_eq!(visibility_graph(&[1.0]).n_edges(), 0);
        assert_eq!(horizontal_visibility_graph(&[1.0]).n_edges(), 0);
    }

    #[test]
    fn adjacent_points_always_connected() {
        let v = [3.0, 1.0, 2.0, 5.0, 0.5];
        let vg = visibility_graph(&v);
        let hvg = horizontal_visibility_graph(&v);
        for i in 0..v.len() - 1 {
            assert!(vg.has_edge(i, i + 1), "VG missing edge ({i},{})", i + 1);
            assert!(hvg.has_edge(i, i + 1), "HVG missing edge ({i},{})", i + 1);
        }
    }

    #[test]
    fn known_small_example() {
        // values: a valley between two peaks
        let v = [1.0, 3.0, 0.5, 0.4, 2.0];
        let vg = visibility_graph_naive(&v);
        // peak 1 sees everything
        assert!(vg.has_edge(1, 0));
        assert!(vg.has_edge(1, 2));
        assert!(vg.has_edge(1, 3));
        assert!(vg.has_edge(1, 4));
        // 0 cannot see past the higher peak at 1
        assert!(!vg.has_edge(0, 2));
        assert!(!vg.has_edge(0, 4));
        // 2 sees 4 over 3 (line from 0.5 to 2.0 stays above 0.4)
        assert!(vg.has_edge(2, 4));

        let hvg = horizontal_visibility_graph(&v);
        // 2 sees 4 horizontally? intermediate 0.4 < min(0.5, 2.0) → yes
        assert!(hvg.has_edge(2, 4));
        // 1 sees 4 horizontally? intermediates 0.5, 0.4 both < min(3,2) → yes
        assert!(hvg.has_edge(1, 4));
        // 0 sees 2? intermediate 3.0 ≥ 1.0 → no
        assert!(!hvg.has_edge(0, 2));
    }

    #[test]
    fn monotone_series_gives_path_hvg() {
        // strictly increasing: only adjacent bars are horizontally visible
        let v: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let hvg = horizontal_visibility_graph(&v);
        assert_eq!(hvg.n_edges(), v.len() - 1);
        // but the natural VG of a convex/monotone ramp is denser
        let vg = visibility_graph(&v);
        assert!(vg.n_edges() >= hvg.n_edges());
    }

    #[test]
    fn concave_series_vg_is_path() {
        // strictly concave: each point only sees its neighbours naturally
        let n = 30usize;
        let v: Vec<f64> = (0..n)
            .map(|i| {
                let x = i as f64 - (n as f64 - 1.0) / 2.0;
                -(x * x)
            })
            .collect();
        let vg = visibility_graph(&v);
        assert_eq!(vg.n_edges(), n - 1);
    }

    #[test]
    fn divide_and_conquer_matches_naive_and_bruteforce() {
        let seeds: [u64; 6] = [1, 2, 3, 4, 5, 6];
        for seed in seeds {
            // deterministic pseudo-random series without pulling in rand here
            let mut x = seed;
            let v: Vec<f64> = (0..200)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((x >> 33) as f64) / (u32::MAX as f64)
                })
                .collect();
            let dc = visibility_graph(&v);
            let naive = visibility_graph_naive(&v);
            let brute = brute_force(&v, false);
            assert_eq!(naive, brute, "naive vs brute mismatch for seed {seed}");
            assert_eq!(
                dc, brute,
                "divide-and-conquer vs brute mismatch for seed {seed}"
            );
        }
    }

    #[test]
    fn hvg_matches_bruteforce() {
        let mut x = 99u64;
        let v: Vec<f64> = (0..300)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 33) as f64) / (u32::MAX as f64)
            })
            .collect();
        assert_eq!(horizontal_visibility_graph(&v), brute_force(&v, true));
    }

    #[test]
    fn hvg_with_ties_matches_bruteforce() {
        // plateaus exercise the strictness of the inequality
        let v = [1.0, 2.0, 2.0, 1.0, 3.0, 3.0, 3.0, 0.0, 2.0, 2.0];
        assert_eq!(horizontal_visibility_graph(&v), brute_force(&v, true));
    }

    #[test]
    fn hvg_is_subgraph_of_vg() {
        let mut x = 7u64;
        let v: Vec<f64> = (0..150)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 33) as f64) / (u32::MAX as f64)
            })
            .collect();
        let vg = visibility_graph(&v);
        let hvg = horizontal_visibility_graph(&v);
        assert!(hvg.is_subgraph_of(&vg));
    }

    #[test]
    fn visibility_graphs_are_connected() {
        // consecutive points always see each other, so both graphs contain
        // the path 0–1–…–(n−1), which makes them connected
        let v = [5.0, 1.0, 4.0, 4.0, 2.0, 9.0, 0.0, 3.0];
        let vg = visibility_graph(&v);
        let hvg = horizontal_visibility_graph(&v);
        for i in 0..v.len() - 1 {
            assert!(vg.has_edge(i, i + 1), "VG lacks {i}–{}", i + 1);
            assert!(hvg.has_edge(i, i + 1), "HVG lacks {i}–{}", i + 1);
        }
    }

    #[test]
    fn vg_affine_invariance() {
        let mut x = 5u64;
        let v: Vec<f64> = (0..120)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 33) as f64) / (u32::MAX as f64)
            })
            .collect();
        let scaled: Vec<f64> = v.iter().map(|y| 3.5 * y - 40.0).collect();
        assert_eq!(visibility_graph(&v), visibility_graph(&scaled));
        assert_eq!(
            horizontal_visibility_graph(&v),
            horizontal_visibility_graph(&scaled)
        );
    }

    #[test]
    fn kind_dispatch() {
        let v = [1.0, 0.5, 2.0, 0.1, 1.5];
        assert_eq!(VisibilityKind::Natural.build(&v), visibility_graph(&v));
        assert_eq!(
            VisibilityKind::Horizontal.build(&v),
            horizontal_visibility_graph(&v)
        );
        assert_eq!(VisibilityKind::Natural.short_name(), "VG");
        assert_eq!(VisibilityKind::Horizontal.short_name(), "HVG");
    }
}
