//! A compact undirected simple graph in CSR (compressed sparse row) form.
//!
//! Vertices are dense `0..n` indices (visibility graphs have one vertex per
//! time step). Adjacency lives in two flat arrays — `offsets` (length
//! `n + 1`) and `neighbors` (length `2m`, ascending within each vertex's
//! slice) — built from an edge buffer by one bucket fill by source, a sort of
//! each short run and an in-place dedup. This keeps construction
//! allocation-light (two exact-size arrays, no per-vertex `Vec`s, no `O(d)`
//! memmove per inserted edge), makes
//! `degree()` a subtraction of two offsets, and lays every neighborhood out
//! contiguously for the cache-bound motif kernel.

/// An undirected simple graph over vertices `0..n`, stored as CSR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    /// `offsets[u]..offsets[u + 1]` indexes `u`'s slice of `neighbors`.
    offsets: Vec<u32>,
    /// Concatenated neighbor lists, ascending within each vertex's slice.
    neighbors: Vec<u32>,
    n_edges: usize,
}

impl Graph {
    /// Creates a graph with `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        Graph {
            offsets: vec![0; n + 1],
            neighbors: Vec::new(),
            n_edges: 0,
        }
    }

    /// Builds a graph from an edge list. Self-loops are ignored and parallel
    /// edges are deduplicated; out-of-range endpoints panic (vertex indices
    /// are created up-front).
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let buffer: Vec<(u32, u32)> = edges
            .into_iter()
            .map(|(u, v)| {
                assert!(
                    u < n && v < n,
                    "edge ({u}, {v}) out of range for {n} vertices"
                );
                (u as u32, v as u32)
            })
            .collect();
        Graph::from_edge_buffer(n, &buffer)
    }

    /// Builds the CSR layout from a raw edge buffer.
    ///
    /// This is the finalize step the visibility-graph builders use: they emit
    /// edges into a plain `Vec<(u32, u32)>` and hand it over once. Self-loops
    /// are dropped and duplicates (in either orientation) deduplicated; both
    /// endpoints of every edge must be `< n`.
    pub fn from_edge_buffer(n: usize, edges: &[(u32, u32)]) -> Self {
        let n32 = n as u32;
        // `offsets[u]` counts u's arcs, then becomes the end of u's run
        let mut offsets = vec![0u32; n + 1];
        for &(u, v) in edges {
            assert!(
                u < n32 && v < n32,
                "edge ({u}, {v}) out of range for {n} vertices"
            );
            if u != v {
                offsets[u as usize] += 1;
                offsets[v as usize] += 1;
            }
        }
        for i in 1..=n {
            offsets[i] += offsets[i - 1];
        }
        // one bucket fill by source, stepping each end back to its start
        let mut neighbors = vec![0u32; offsets[n] as usize];
        for &(u, v) in edges {
            if u != v {
                offsets[u as usize] -= 1;
                neighbors[offsets[u as usize] as usize] = v;
                offsets[v as usize] -= 1;
                neighbors[offsets[v as usize] as usize] = u;
            }
        }
        // sort each short run and drop its repeats, compacting in place
        let mut read = 0;
        let mut write = 0;
        for u in 0..n {
            let end = offsets[u + 1] as usize;
            neighbors[read..end].sort_unstable();
            let start = write;
            offsets[u] = start as u32;
            for i in read..end {
                let x = neighbors[i];
                if write == start || neighbors[write - 1] != x {
                    neighbors[write] = x;
                    write += 1;
                }
            }
            read = end;
        }
        offsets[n] = write as u32;
        neighbors.truncate(write);
        Graph {
            offsets,
            neighbors,
            n_edges: write / 2,
        }
    }

    /// Number of vertices.
    pub fn n_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges.
    pub fn n_edges(&self) -> usize {
        self.n_edges
    }

    /// Whether the edge `(u, v)` exists.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        if u >= self.n_vertices() || v >= self.n_vertices() || u == v {
            return false;
        }
        self.neighbors(u).binary_search(&(v as u32)).is_ok()
    }

    /// Sorted neighbors of `u` — a contiguous slice of the CSR array.
    pub fn neighbors(&self, u: usize) -> &[u32] {
        &self.neighbors[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// Degree of `u`: one subtraction on the offset array.
    pub fn degree(&self, u: usize) -> usize {
        (self.offsets[u + 1] - self.offsets[u]) as usize
    }

    /// Degrees of all vertices, derived from the offset array without
    /// walking adjacency (and without allocating: callers that need an owned
    /// buffer collect explicitly).
    pub fn degrees(&self) -> impl ExactSizeIterator<Item = usize> + Clone + '_ {
        self.offsets.windows(2).map(|w| (w[1] - w[0]) as usize)
    }

    /// Iterates over every undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n_vertices()).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .filter(move |&&v| (u as u32) < v)
                .map(move |&v| (u, v as usize))
        })
    }

    /// The union of this graph's edges with another graph over the same
    /// vertex set (used in tests for the HVG ⊆ VG invariant).
    pub fn is_subgraph_of(&self, other: &Graph) -> bool {
        if self.n_vertices() != other.n_vertices() {
            return false;
        }
        self.edges().all(|(u, v)| other.has_edge(u, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_with_tail() -> Graph {
        // 0-1-2 triangle, 3 attached to 0
        Graph::from_edges(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    }

    #[test]
    fn construction_and_queries() {
        let g = triangle_with_tail();
        assert_eq!(g.n_vertices(), 4);
        assert_eq!(g.n_edges(), 4);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(1, 3));
        assert!(!g.has_edge(0, 0));
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.degrees().collect::<Vec<_>>(), vec![3, 2, 2, 1]);
    }

    #[test]
    fn duplicate_and_self_edges_ignored() {
        let g = Graph::from_edges(3, [(0, 1), (1, 0), (0, 1), (2, 2)]);
        assert_eq!(g.n_edges(), 1);
        assert!(!g.has_edge(2, 2));
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
        assert!(g.neighbors(2).is_empty());
    }

    #[test]
    fn edges_iterator_lists_each_edge_once() {
        let g = triangle_with_tail();
        let edges: Vec<(usize, usize)> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        for (u, v) in &edges {
            assert!(u < v);
        }
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = Graph::from_edges(5, [(2, 4), (2, 0), (2, 3), (2, 1)]);
        assert_eq!(g.neighbors(2), &[0, 1, 3, 4]);
    }

    #[test]
    fn edge_buffer_finalize_matches_from_edges() {
        // same edge set in scrambled order, with duplicates in both
        // orientations and self-loops sprinkled in
        let buffer: Vec<(u32, u32)> = vec![
            (3, 0),
            (1, 0),
            (2, 2),
            (0, 1),
            (2, 1),
            (0, 2),
            (1, 2),
            (0, 3),
        ];
        let g = Graph::from_edge_buffer(4, &buffer);
        assert_eq!(g, triangle_with_tail());
    }

    #[test]
    fn empty_edge_buffer() {
        let g = Graph::from_edge_buffer(3, &[]);
        assert_eq!(g.n_vertices(), 3);
        assert_eq!(g.n_edges(), 0);
        assert!(g.neighbors(1).is_empty());
        assert_eq!(g, Graph::new(3));
    }

    #[test]
    fn subgraph_check() {
        let g = triangle_with_tail();
        let sub = Graph::from_edges(4, [(0, 1), (0, 2)]);
        assert!(sub.is_subgraph_of(&g));
        assert!(!g.is_subgraph_of(&sub));
        let other_size = Graph::new(3);
        assert!(!other_size.is_subgraph_of(&g));
    }

    #[test]
    #[should_panic]
    fn out_of_range_edge_panics() {
        Graph::from_edges(2, [(0, 5)]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_edge_buffer_panics() {
        Graph::from_edge_buffer(2, &[(0, 5)]);
    }
}
