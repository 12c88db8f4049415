//! Property-based tests for the graph substrate, centred on the invariants
//! the paper relies on: visibility graphs are connected, HVG ⊆ VG, VG is
//! invariant to affine rescaling, motif counts partition all vertex subsets,
//! and the optimized algorithms agree with reference implementations.

use proptest::prelude::*;
use tsg_graph::graph::Graph;
use tsg_graph::kcore::{core_numbers, core_numbers_naive};
use tsg_graph::motifs::{count_motifs, count_motifs_bruteforce, count_motifs_with, MotifWorkspace};
use tsg_graph::stats::density;
use tsg_graph::visibility::{
    horizontal_visibility_graph, horizontally_visible, naturally_visible, visibility_graph,
    visibility_graph_naive,
};

fn series_strategy(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-100.0..100.0f64, 2..max_len)
}

fn random_graph_strategy() -> impl Strategy<Value = Graph> {
    (
        3usize..20,
        prop::collection::vec((0usize..20, 0usize..20), 0..60),
    )
        .prop_map(|(n, edges)| {
            Graph::from_edges(
                n,
                edges
                    .into_iter()
                    .filter(|(u, v)| u < &n && v < &n && u != v),
            )
        })
}

/// Erdős–Rényi G(n, p) over n ≤ 25: every vertex pair is an edge with
/// probability `p`, decided by a splitmix64 stream seeded from the strategy
/// input. Unlike `random_graph_strategy` (bounded edge lists, so sparse) or
/// visibility graphs (planar-ish), this covers the whole density spectrum up
/// to near-complete graphs.
fn erdos_renyi_strategy() -> impl Strategy<Value = Graph> {
    (2usize..26, 0u64..u64::MAX, 0.0..1.0f64).prop_map(|(n, seed, p)| {
        let mut state = seed;
        let mut next_unit = move || {
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                if next_unit() < p {
                    edges.push((u, v));
                }
            }
        }
        Graph::from_edges(n, edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn vg_divide_and_conquer_matches_naive(values in series_strategy(120)) {
        let dc = visibility_graph(&values);
        let naive = visibility_graph_naive(&values);
        prop_assert_eq!(dc, naive);
    }

    #[test]
    fn vg_matches_definition(values in series_strategy(40)) {
        let g = visibility_graph(&values);
        for i in 0..values.len() {
            for j in (i + 1)..values.len() {
                prop_assert_eq!(g.has_edge(i, j), naturally_visible(&values, i, j));
            }
        }
    }

    #[test]
    fn hvg_matches_definition(values in series_strategy(60)) {
        let g = horizontal_visibility_graph(&values);
        for i in 0..values.len() {
            for j in (i + 1)..values.len() {
                prop_assert_eq!(g.has_edge(i, j), horizontally_visible(&values, i, j));
            }
        }
    }

    #[test]
    fn visibility_graphs_are_connected(values in series_strategy(100)) {
        // both graphs contain the path 0–1–…–(n−1), so they are connected
        let vg = visibility_graph(&values);
        let hvg = horizontal_visibility_graph(&values);
        for i in 0..values.len() - 1 {
            prop_assert!(vg.has_edge(i, i + 1));
            prop_assert!(hvg.has_edge(i, i + 1));
        }
    }

    #[test]
    fn hvg_is_subgraph_of_vg(values in series_strategy(100)) {
        let vg = visibility_graph(&values);
        let hvg = horizontal_visibility_graph(&values);
        prop_assert!(hvg.is_subgraph_of(&vg));
    }

    #[test]
    fn vg_affine_invariance(values in series_strategy(80), scale in 0.01..50.0f64, offset in -100.0..100.0f64) {
        let rescaled: Vec<f64> = values.iter().map(|v| scale * v + offset).collect();
        prop_assert_eq!(visibility_graph(&values), visibility_graph(&rescaled));
        prop_assert_eq!(
            horizontal_visibility_graph(&values),
            horizontal_visibility_graph(&rescaled)
        );
    }

    #[test]
    fn vg_time_reversal_symmetry(values in series_strategy(60)) {
        // visibility is symmetric under reversing the time axis
        let g = visibility_graph(&values);
        let reversed: Vec<f64> = values.iter().rev().cloned().collect();
        let gr = visibility_graph(&reversed);
        let n = values.len();
        for (u, v) in g.edges() {
            prop_assert!(gr.has_edge(n - 1 - u, n - 1 - v));
        }
        prop_assert_eq!(g.n_edges(), gr.n_edges());
    }

    #[test]
    fn motif_counts_partition_subsets(g in random_graph_strategy()) {
        let c = count_motifs(&g);
        let n = g.n_vertices() as u64;
        prop_assert_eq!(c.edge2 + c.independent2, n * (n - 1) / 2);
        prop_assert_eq!(c.total_size3(), n * (n - 1) * (n - 2) / 6);
        prop_assert_eq!(c.total_size4(), n * (n - 1) * (n - 2) * (n - 3) / 24);
    }

    #[test]
    fn motif_fast_equals_bruteforce(g in random_graph_strategy()) {
        prop_assert_eq!(count_motifs(&g), count_motifs_bruteforce(&g));
    }

    #[test]
    fn motif_fast_equals_bruteforce_on_erdos_renyi(g in erdos_renyi_strategy()) {
        prop_assert_eq!(count_motifs(&g), count_motifs_bruteforce(&g));
    }

    #[test]
    fn motif_counts_partition_subsets_on_erdos_renyi(g in erdos_renyi_strategy()) {
        let c = count_motifs(&g);
        let n = g.n_vertices() as u64;
        // saturating: the strategy includes n = 2, where there are no
        // size-3/size-4 subsets at all
        prop_assert_eq!(c.total_size3(), n * (n - 1) * n.saturating_sub(2) / 6);
        prop_assert_eq!(
            c.total_size4(),
            n * (n - 1) * n.saturating_sub(2) * n.saturating_sub(3) / 24
        );
    }

    #[test]
    fn reused_workspace_equals_fresh_on_erdos_renyi(
        a in erdos_renyi_strategy(),
        b in erdos_renyi_strategy(),
        c in erdos_renyi_strategy(),
    ) {
        // one workspace across differently-sized graphs must behave exactly
        // like a fresh workspace per graph
        let mut reused = MotifWorkspace::new();
        for g in [&a, &b, &c] {
            prop_assert_eq!(
                count_motifs_with(g, &mut reused),
                count_motifs_with(g, &mut MotifWorkspace::new())
            );
        }
    }

    #[test]
    fn kcore_bucket_equals_naive(g in random_graph_strategy()) {
        prop_assert_eq!(core_numbers(&g), core_numbers_naive(&g));
    }

    #[test]
    fn core_number_bounded_by_degree(g in random_graph_strategy()) {
        let core = core_numbers(&g);
        for (v, &c) in core.iter().enumerate() {
            prop_assert!(c <= g.degree(v));
        }
    }

    #[test]
    fn density_in_unit_interval(g in random_graph_strategy()) {
        let d = density(&g);
        prop_assert!((0.0..=1.0).contains(&d));
    }

    #[test]
    fn vg_edge_count_at_least_path(values in series_strategy(100)) {
        // visibility graphs always contain the time path, so |E| ≥ n - 1
        let g = visibility_graph(&values);
        prop_assert!(g.n_edges() >= values.len() - 1);
        let h = horizontal_visibility_graph(&values);
        prop_assert!(h.n_edges() >= values.len() - 1);
    }
}
