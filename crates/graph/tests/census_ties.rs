//! The motif census on graphs where degree ties are everywhere.
//!
//! [`count_motifs_with`] relabels every graph by degree rank and breaks ties
//! by vertex index, so regular graphs, complete (bipartite) graphs, stars,
//! disjoint cliques and the visibility graphs of flat or periodic series are
//! the cases where the tie rule decides every orientation. Each is checked
//! against the brute-force enumerator.

use tsg_graph::graph::Graph;
use tsg_graph::motifs::{count_motifs_bruteforce, count_motifs_with, MotifWorkspace};
use tsg_graph::visibility::{horizontal_visibility_graph, visibility_graph};

fn assert_census_exact(graph: &Graph, what: &str) {
    let fast = count_motifs_with(graph, &mut MotifWorkspace::new());
    assert_eq!(fast, count_motifs_bruteforce(graph), "{what}");
}

/// `C_n(jumps)`: vertex `i` is joined to `i ± j (mod n)` for every jump `j`.
fn circulant(n: usize, jumps: &[usize]) -> Graph {
    let edges = (0..n).flat_map(|i| jumps.iter().map(move |&j| (i, (i + j) % n)));
    Graph::from_edges(n, edges)
}

fn complete(n: usize) -> Graph {
    Graph::from_edges(n, (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j))))
}

fn complete_bipartite(a: usize, b: usize) -> Graph {
    Graph::from_edges(a + b, (0..a).flat_map(|i| (a..a + b).map(move |j| (i, j))))
}

fn star(leaves: usize) -> Graph {
    Graph::from_edges(leaves + 1, (1..=leaves).map(|leaf| (0, leaf)))
}

/// Disjoint cliques of the given sizes, laid out one after another.
fn disjoint_cliques(sizes: &[usize]) -> Graph {
    let mut edges = Vec::new();
    let mut first = 0;
    for &size in sizes {
        for i in first..first + size {
            edges.extend((i + 1..first + size).map(|j| (i, j)));
        }
        first += size;
    }
    Graph::from_edges(first, edges)
}

/// The `d`-dimensional hypercube: 4-regular and full of 4-cycles at `d = 4`.
fn hypercube(d: u32) -> Graph {
    let n = 1usize << d;
    let edges = (0..n).flat_map(|v| (0..d).map(move |bit| (v, v ^ (1 << bit))));
    Graph::from_edges(n, edges)
}

#[test]
fn regular_graphs_match_bruteforce() {
    for n in 3..=16 {
        assert_census_exact(&circulant(n, &[1]), &format!("C_{n}"));
        assert_census_exact(&circulant(n, &[1, 2]), &format!("C_{n}(1,2)"));
        assert_census_exact(&circulant(n, &[1, 3]), &format!("C_{n}(1,3)"));
        assert_census_exact(&circulant(n, &[1, 2, 3]), &format!("C_{n}(1,2,3)"));
    }
    // the Petersen graph: 3-regular, triangle- and 4-cycle-free
    let outer = (0..5).map(|i| (i, (i + 1) % 5));
    let spokes = (0..5).map(|i| (i, i + 5));
    let inner = (0..5).map(|i| (5 + i, 5 + (i + 2) % 5));
    let petersen = Graph::from_edges(10, outer.chain(spokes).chain(inner));
    assert_census_exact(&petersen, "Petersen");
    for d in 1..=4 {
        assert_census_exact(&hypercube(d), &format!("Q_{d}"));
    }
}

#[test]
fn complete_and_complete_bipartite_graphs_match_bruteforce() {
    for n in 0..=12 {
        assert_census_exact(&complete(n), &format!("K_{n}"));
    }
    for a in 1..=6 {
        for b in a..=7 {
            assert_census_exact(&complete_bipartite(a, b), &format!("K_{{{a},{b}}}"));
        }
    }
}

#[test]
fn stars_and_disjoint_cliques_match_bruteforce() {
    for leaves in 1..=14 {
        assert_census_exact(&star(leaves), &format!("S_{leaves}"));
    }
    for sizes in [
        &[3, 3][..],
        &[4, 4, 2],
        &[5, 5],
        &[2, 2, 2, 2, 2],
        &[1, 4, 1, 4],
        &[6, 3, 6],
    ] {
        assert_census_exact(&disjoint_cliques(sizes), &format!("cliques {sizes:?}"));
    }
}

#[test]
fn visibility_graphs_of_flat_and_periodic_series_match_bruteforce() {
    for n in 1..=28 {
        let constant = vec![1.5; n];
        let plateau: Vec<f64> = (0..n).map(|i| ((i / 4) % 3) as f64).collect();
        let monotone: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let sawtooth: Vec<f64> = (0..n).map(|i| (i % 5) as f64).collect();
        for (name, values) in [
            ("constant", constant),
            ("plateau", plateau),
            ("monotone", monotone),
            ("sawtooth", sawtooth),
        ] {
            assert_census_exact(&visibility_graph(&values), &format!("VG {name} {n}"));
            assert_census_exact(
                &horizontal_visibility_graph(&values),
                &format!("HVG {name} {n}"),
            );
        }
    }
}
