//! Exact counting of all graph motifs (graphlets) of size 2, 3 and 4.
//!
//! The paper's dominant features are probability distributions over the 16
//! induced subgraph types of Table 1 — connected and disconnected — counted
//! over all vertex subsets of the corresponding size. PGD (Ahmed et al.,
//! ICDM 2015) shows these can be obtained without enumerating subsets: count
//! triangles, 4-cliques and diamonds directly from edge neighborhoods, count
//! the remaining connected types through combinatorial identities on degrees
//! and wedge/path counts, and recover all disconnected types (and therefore
//! the complete distribution) in closed form. This module follows that
//! strategy with one sweep over the oriented wedges of a rank-relabelled
//! graph: each scan of a neighbor list serves the triangle, 4-clique and
//! 4-cycle counts at once (see [`count_motifs_with`]). A brute-force
//! enumerator over all subsets is kept for tests.

use crate::graph::Graph;
use std::cell::RefCell;

/// The sixteen motif types of Table 1 (size 2, 3 and 4; connected and
/// disconnected), identified by the paper's `M{size}{index}` naming.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Motif {
    /// `M2_1` — a single edge.
    Edge2,
    /// `M2_2` — two independent (non-adjacent) vertices.
    Independent2,
    /// `M3_1` — triangle.
    Triangle3,
    /// `M3_2` — path on three vertices (wedge).
    Path3,
    /// `M3_3` — one edge plus an isolated vertex.
    OneEdge3,
    /// `M3_4` — three independent vertices.
    Independent3,
    /// `M4_1` — 4-clique.
    Clique4,
    /// `M4_2` — chordal cycle (diamond).
    ChordalCycle4,
    /// `M4_3` — tailed triangle (paw).
    TailedTriangle4,
    /// `M4_4` — 4-cycle.
    Cycle4,
    /// `M4_5` — 4-star (claw).
    Star4,
    /// `M4_6` — path on four vertices.
    Path4,
    /// `M4_7` — triangle plus an isolated vertex.
    NodeTriangle4,
    /// `M4_8` — wedge (2-star) plus an isolated vertex.
    NodeStar4,
    /// `M4_9` — two independent edges.
    TwoEdges4,
    /// `M4_10` — one edge plus two isolated vertices.
    OneEdge4,
    /// `M4_11` — four independent vertices.
    Independent4,
}

impl Motif {
    /// All motifs in the canonical Table 1 order.
    pub const ALL: [Motif; 17] = [
        Motif::Edge2,
        Motif::Independent2,
        Motif::Triangle3,
        Motif::Path3,
        Motif::OneEdge3,
        Motif::Independent3,
        Motif::Clique4,
        Motif::ChordalCycle4,
        Motif::TailedTriangle4,
        Motif::Cycle4,
        Motif::Star4,
        Motif::Path4,
        Motif::NodeTriangle4,
        Motif::NodeStar4,
        Motif::TwoEdges4,
        Motif::OneEdge4,
        Motif::Independent4,
    ];

    /// Number of vertices in the motif.
    pub fn size(self) -> usize {
        match self {
            Motif::Edge2 | Motif::Independent2 => 2,
            Motif::Triangle3 | Motif::Path3 | Motif::OneEdge3 | Motif::Independent3 => 3,
            _ => 4,
        }
    }

    /// Whether the motif is connected.
    pub fn is_connected(self) -> bool {
        matches!(
            self,
            Motif::Edge2
                | Motif::Triangle3
                | Motif::Path3
                | Motif::Clique4
                | Motif::ChordalCycle4
                | Motif::TailedTriangle4
                | Motif::Cycle4
                | Motif::Star4
                | Motif::Path4
        )
    }

    /// Number of edges in the motif.
    pub fn n_edges(self) -> usize {
        match self {
            Motif::Independent2 | Motif::Independent3 | Motif::Independent4 => 0,
            Motif::Edge2 | Motif::OneEdge3 | Motif::OneEdge4 => 1,
            Motif::Path3 | Motif::NodeStar4 | Motif::TwoEdges4 => 2,
            Motif::Triangle3 | Motif::Star4 | Motif::Path4 | Motif::NodeTriangle4 => 3,
            Motif::Cycle4 | Motif::TailedTriangle4 => 4,
            Motif::ChordalCycle4 => 5,
            Motif::Clique4 => 6,
        }
    }

    /// The paper's `M{size}{index}` identifier (e.g. `"M41"`).
    pub fn paper_id(self) -> &'static str {
        match self {
            Motif::Edge2 => "M21",
            Motif::Independent2 => "M22",
            Motif::Triangle3 => "M31",
            Motif::Path3 => "M32",
            Motif::OneEdge3 => "M33",
            Motif::Independent3 => "M34",
            Motif::Clique4 => "M41",
            Motif::ChordalCycle4 => "M42",
            Motif::TailedTriangle4 => "M43",
            Motif::Cycle4 => "M44",
            Motif::Star4 => "M45",
            Motif::Path4 => "M46",
            Motif::NodeTriangle4 => "M47",
            Motif::NodeStar4 => "M48",
            Motif::TwoEdges4 => "M49",
            Motif::OneEdge4 => "M410",
            Motif::Independent4 => "M411",
        }
    }

    /// Human-readable name following Table 1.
    pub fn name(self) -> &'static str {
        match self {
            Motif::Edge2 => "2-edge",
            Motif::Independent2 => "2-node-independent",
            Motif::Triangle3 => "3-triangle",
            Motif::Path3 => "3-path",
            Motif::OneEdge3 => "3-node-1-edge",
            Motif::Independent3 => "3-node-independent",
            Motif::Clique4 => "4-clique",
            Motif::ChordalCycle4 => "4-chordal-cycle",
            Motif::TailedTriangle4 => "4-tailed-triangle",
            Motif::Cycle4 => "4-cycle",
            Motif::Star4 => "4-star",
            Motif::Path4 => "4-path",
            Motif::NodeTriangle4 => "4-node-triangle",
            Motif::NodeStar4 => "4-node-star",
            Motif::TwoEdges4 => "4-node-2-edges",
            Motif::OneEdge4 => "4-node-1-edge",
            Motif::Independent4 => "4-node-independent",
        }
    }
}

/// Exact induced-subgraph counts for all motifs of size 2, 3 and 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MotifCounts {
    /// `M2_1` single edges.
    pub edge2: u64,
    /// `M2_2` non-edges.
    pub independent2: u64,
    /// `M3_1` triangles.
    pub triangle3: u64,
    /// `M3_2` induced wedges.
    pub path3: u64,
    /// `M3_3` one edge + isolated vertex.
    pub one_edge3: u64,
    /// `M3_4` empty triples.
    pub independent3: u64,
    /// `M4_1` 4-cliques.
    pub clique4: u64,
    /// `M4_2` diamonds.
    pub chordal_cycle4: u64,
    /// `M4_3` tailed triangles.
    pub tailed_triangle4: u64,
    /// `M4_4` induced 4-cycles.
    pub cycle4: u64,
    /// `M4_5` induced claws.
    pub star4: u64,
    /// `M4_6` induced 4-paths.
    pub path4: u64,
    /// `M4_7` triangle + isolated vertex.
    pub node_triangle4: u64,
    /// `M4_8` wedge + isolated vertex.
    pub node_star4: u64,
    /// `M4_9` two independent edges.
    pub two_edges4: u64,
    /// `M4_10` one edge + two isolated vertices.
    pub one_edge4: u64,
    /// `M4_11` empty quadruple.
    pub independent4: u64,
}

impl MotifCounts {
    /// The count for a specific motif.
    pub fn get(&self, motif: Motif) -> u64 {
        match motif {
            Motif::Edge2 => self.edge2,
            Motif::Independent2 => self.independent2,
            Motif::Triangle3 => self.triangle3,
            Motif::Path3 => self.path3,
            Motif::OneEdge3 => self.one_edge3,
            Motif::Independent3 => self.independent3,
            Motif::Clique4 => self.clique4,
            Motif::ChordalCycle4 => self.chordal_cycle4,
            Motif::TailedTriangle4 => self.tailed_triangle4,
            Motif::Cycle4 => self.cycle4,
            Motif::Star4 => self.star4,
            Motif::Path4 => self.path4,
            Motif::NodeTriangle4 => self.node_triangle4,
            Motif::NodeStar4 => self.node_star4,
            Motif::TwoEdges4 => self.two_edges4,
            Motif::OneEdge4 => self.one_edge4,
            Motif::Independent4 => self.independent4,
        }
    }

    /// Sets the count for a specific motif (used by the brute-force counter).
    pub fn set(&mut self, motif: Motif, value: u64) {
        match motif {
            Motif::Edge2 => self.edge2 = value,
            Motif::Independent2 => self.independent2 = value,
            Motif::Triangle3 => self.triangle3 = value,
            Motif::Path3 => self.path3 = value,
            Motif::OneEdge3 => self.one_edge3 = value,
            Motif::Independent3 => self.independent3 = value,
            Motif::Clique4 => self.clique4 = value,
            Motif::ChordalCycle4 => self.chordal_cycle4 = value,
            Motif::TailedTriangle4 => self.tailed_triangle4 = value,
            Motif::Cycle4 => self.cycle4 = value,
            Motif::Star4 => self.star4 = value,
            Motif::Path4 => self.path4 = value,
            Motif::NodeTriangle4 => self.node_triangle4 = value,
            Motif::NodeStar4 => self.node_star4 = value,
            Motif::TwoEdges4 => self.two_edges4 = value,
            Motif::OneEdge4 => self.one_edge4 = value,
            Motif::Independent4 => self.independent4 = value,
        }
    }

    /// Total number of size-3 subsets accounted for.
    pub fn total_size3(&self) -> u64 {
        self.triangle3 + self.path3 + self.one_edge3 + self.independent3
    }

    /// Total number of size-4 subsets accounted for.
    pub fn total_size4(&self) -> u64 {
        self.clique4
            + self.chordal_cycle4
            + self.tailed_triangle4
            + self.cycle4
            + self.star4
            + self.path4
            + self.node_triangle4
            + self.node_star4
            + self.two_edges4
            + self.one_edge4
            + self.independent4
    }
}

/// Reusable scratch memory for [`count_motifs_with`].
///
/// The kernel is allocation-free after warm-up: every buffer lives here and
/// only ever grows. Hold one workspace per thread and feed it a stream of
/// graphs — [`count_motifs`] does exactly that through a thread-local, so
/// each worker of the extraction pool reuses one workspace across its whole
/// chunk of series.
#[derive(Debug, Default)]
pub struct MotifWorkspace {
    /// Epoch-stamped membership marker for the neighborhood of the vertex
    /// currently being processed (`marker[x] == epoch` ⇔ `x ∈ N(u)`).
    marker: Vec<u32>,
    epoch: u32,
    /// Second marker for the rank-filtered common neighborhood (K4 pairs).
    marker2: Vec<u32>,
    epoch2: u32,
    /// Common neighbors of the current edge ranked above both endpoints.
    ordered: Vec<u32>,
    /// Degree-ascending rank of each input vertex (ties by index), and its
    /// inverse: `order[rank[v]] == v`.
    rank: Vec<u32>,
    order: Vec<u32>,
    /// The graph relabelled by rank, as CSR: `adj[offsets[v]..offsets[v + 1]]`
    /// are the neighbors of ranked vertex `v`, ascending. `above[v]` splits
    /// that run: neighbors ranked below `v` come before it, neighbors ranked
    /// above it (the rank-increasing orientation) from it on.
    offsets: Vec<u32>,
    above: Vec<u32>,
    adj: Vec<u32>,
    /// Wedge co-degree accumulator + touched list for 4-cycle counting.
    codeg: Vec<u32>,
    touched: Vec<u32>,
    /// Counting-sort scratch for the rank, then the fill cursor of the
    /// relabelled CSR.
    buckets: Vec<u32>,
}

impl MotifWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        MotifWorkspace::default()
    }

    /// Grows the marker arrays to `n` vertices and resets the epoch counters
    /// before they can wrap around (each call consumes at most `n` epochs and
    /// `m` second-marker epochs).
    fn prepare_markers(&mut self, n: usize, m: usize) {
        self.marker.resize(n.max(self.marker.len()), 0);
        self.marker2.resize(n.max(self.marker2.len()), 0);
        if self.epoch as u64 + n as u64 + 2 > u32::MAX as u64 {
            self.marker.iter_mut().for_each(|slot| *slot = 0);
            self.epoch = 0;
        }
        if self.epoch2 as u64 + m as u64 + 2 > u32::MAX as u64 {
            self.marker2.iter_mut().for_each(|slot| *slot = 0);
            self.epoch2 = 0;
        }
    }

    /// Relabels `graph` by degree-ascending rank (ties broken by vertex
    /// index) into the workspace CSR. Ranked vertices are appended to their
    /// neighbors' runs in ascending order, so every run comes out sorted
    /// with no sort step, and the split `above[v]` is where the fill cursor
    /// of `v` stands when `v` itself is reached.
    fn prepare_order(&mut self, graph: &Graph) {
        let n = graph.n_vertices();
        // counting sort over degrees; `buckets[d]` becomes the next rank to
        // hand out among degree-d vertices
        self.buckets.clear();
        self.buckets.resize(n + 1, 0);
        for d in graph.degrees() {
            self.buckets[d] += 1;
        }
        let mut start = 0u32;
        for bucket in self.buckets.iter_mut() {
            let count = *bucket;
            *bucket = start;
            start += count;
        }
        self.rank.clear();
        self.rank.resize(n, 0);
        self.order.clear();
        self.order.resize(n, 0);
        for v in 0..n {
            let d = graph.degree(v);
            let r = self.buckets[d];
            self.rank[v] = r;
            self.order[r as usize] = v as u32;
            self.buckets[d] += 1;
        }
        // run starts of the relabelled CSR; `buckets` becomes the cursor
        self.offsets.clear();
        self.offsets.resize(n + 1, 0);
        self.buckets.clear();
        self.buckets.resize(n, 0);
        let mut start = 0u32;
        for (r, &v) in self.order.iter().enumerate() {
            self.offsets[r] = start;
            self.buckets[r] = start;
            start += graph.degree(v as usize) as u32;
        }
        self.offsets[n] = start;
        self.adj.clear();
        self.adj.resize(start as usize, 0);
        self.above.clear();
        self.above.resize(n, 0);
        for x in 0..n {
            // every neighbor ranked below `x` was appended before it
            self.above[x] = self.buckets[x];
            for &w in graph.neighbors(self.order[x] as usize) {
                let y = self.rank[w as usize] as usize;
                self.adj[self.buckets[y] as usize] = x as u32;
                self.buckets[y] += 1;
            }
        }
    }

    /// Degree of ranked vertex `v`.
    fn degree(&self, v: usize) -> u64 {
        (self.offsets[v + 1] - self.offsets[v]) as u64
    }
}

thread_local! {
    static THREAD_WORKSPACE: RefCell<MotifWorkspace> = RefCell::new(MotifWorkspace::new());
}

/// Counts all size-2, size-3 and size-4 induced motifs of `graph`,
/// reusing a thread-local [`MotifWorkspace`] so repeated calls on one thread
/// (e.g. a pool worker extracting a chunk of series) allocate nothing after
/// the first graph.
pub fn count_motifs(graph: &Graph) -> MotifCounts {
    THREAD_WORKSPACE.with(|ws| count_motifs_with(graph, &mut ws.borrow_mut()))
}

/// Counts all size-2, size-3 and size-4 induced motifs of `graph` using a
/// caller-held workspace. Allocation-free after workspace warm-up.
///
/// Edge-centric and degree-ordered, in the spirit of PGD (Ahmed et al.,
/// ICDM 2015), in one sweep over a rank-relabelled CSR. The graph is first
/// relabelled by rank (degree ascending, ties by index), so each sorted
/// neighbor list splits into the neighbors ranked below a vertex and the
/// rank-increasing orientation above it. Every edge (u, v) with `v < u` is
/// then processed once from u, whose neighborhood is marked once for all of
/// its edges, and one scan of N(v) serves two counts:
///
/// * against the marked N(u) it yields the triangle count `t_e` and the paw
///   attachment sum; common neighbors above u are collected, and 4-cliques
///   are found once each as adjacent pairs among them (probing only the
///   above-runs, so each K4 is discovered exactly once from its two lowest
///   vertices); diamonds follow in closed form from
///   `Σ_e C(t_e, 2) = diamonds + 6·K4`;
/// * its prefix below u adds to the wedge co-degrees of u, and
///   `Σ C(codeg, 2)`, flushed after each u, counts every non-induced
///   4-cycle once, at its highest vertex (Chiba–Nishizeki's order as a
///   rank filter).
///
/// Every remaining motif — connected and disconnected — falls out of
/// combinatorial identities on `n`, `m`, degrees and the exact counts above.
/// Total work is `O(n + m + Σ_e d_lower(e))` ≈ `O(m·α)` for degeneracy `α`.
pub fn count_motifs_with(graph: &Graph, ws: &mut MotifWorkspace) -> MotifCounts {
    let nv = graph.n_vertices();
    let n = nv as u64;
    let m = graph.n_edges() as u64;

    let choose2 = |x: u64| if x >= 2 { x * (x - 1) / 2 } else { 0 };
    let choose3 = |x: u64| if x >= 3 { x * (x - 1) * (x - 2) / 6 } else { 0 };
    let choose4 = |x: u64| {
        if x >= 4 {
            x * (x - 1) * (x - 2) * (x - 3) / 24
        } else {
            0
        }
    };

    ws.prepare_markers(nv, graph.n_edges());
    ws.prepare_order(graph);
    ws.codeg.clear();
    ws.codeg.resize(nv, 0);
    ws.touched.clear();

    // --- one sweep over the oriented wedges -------------------------------
    // Vertex ids are ranks from here on, so "ranked below u" is `v < u`.
    let mut triangle_x3 = 0u64; // 3 * #triangles (each edge contributes t_e)
    let mut clique4 = 0u64; // exact K4s (counted once each)
    let mut sum_ct2 = 0u64; // Σ_e C(t_e, 2) = diamonds + 6 * K4
    let mut nonind_paw = 0u64; // Σ_triangles (d_a + d_b + d_c - 6)
    let mut nonind_p4_pairs = 0u64; // Σ_e (d_u - 1)(d_v - 1)
    let mut nonind_c4 = 0u64; // non-induced 4-cycles (counted once each)
    for u in 0..nv {
        let (first, above) = (ws.offsets[u] as usize, ws.above[u] as usize);
        if first == above {
            continue; // no neighbor ranked below: u owns no edge and no wedge
        }
        let last = ws.offsets[u + 1] as usize;
        let du = (last - first) as u64;
        // mark N(u) once for all of its edges
        ws.epoch += 1;
        for &x in &ws.adj[first..last] {
            ws.marker[x as usize] = ws.epoch;
        }
        for i in first..above {
            let v = ws.adj[i] as usize;
            let (v_first, v_last) = (ws.offsets[v] as usize, ws.offsets[v + 1] as usize);
            nonind_p4_pairs += (du - 1) * ((v_last - v_first) as u64 - 1);
            // scan N(v), ascending, against the marked N(u): the common
            // neighborhood of the edge (u, v) gives the triangle count t_e,
            // and every w < u closes a wedge u–v–w for the 4-cycle co-degrees
            let mut t_e = 0u64;
            ws.ordered.clear();
            let mut rest = ws.adj[v_first..v_last].iter();
            // u ∈ N(v), so the first w ≥ u is u itself, consumed by the break
            for &w in rest.by_ref() {
                let w = w as usize;
                if w >= u {
                    break;
                }
                if ws.codeg[w] == 0 {
                    ws.touched.push(w as u32);
                }
                ws.codeg[w] += 1;
                if ws.marker[w] == ws.epoch {
                    t_e += 1;
                    // every triangle is seen by its 3 edges once each, so the
                    // third-vertex contributions sum to Σ (d - 2) per triangle
                    nonind_paw += ws.degree(w) - 2;
                }
            }
            for &w in rest {
                if ws.marker[w as usize] == ws.epoch {
                    t_e += 1;
                    nonind_paw += ws.degree(w as usize) - 2;
                    ws.ordered.push(w);
                }
            }
            triangle_x3 += t_e;
            sum_ct2 += choose2(t_e);
            // K4 {a,b,c,d} with a < b < c < d is found exactly once: from
            // edge (b, a), as the adjacent pair {c, d} of its above-both
            // common neighborhood. Adjacency inside that set is tested by
            // scanning the above-run of each member only, so each pair is
            // probed from its lower member once.
            if ws.ordered.len() >= 2 {
                ws.epoch2 += 1;
                for &w in &ws.ordered {
                    ws.marker2[w as usize] = ws.epoch2;
                }
                for &w in &ws.ordered {
                    let w = w as usize;
                    let up = &ws.adj[ws.above[w] as usize..ws.offsets[w + 1] as usize];
                    for &x in up {
                        if ws.marker2[x as usize] == ws.epoch2 {
                            clique4 += 1;
                        }
                    }
                }
            }
        }
        // Every non-induced 4-cycle is counted exactly once, at its
        // highest-ranked vertex u: both wedge midpoints and the opposite
        // corner rank below u, so C(codeg, 2) is 1 there and 0 at the other
        // three corners (Chiba–Nishizeki's order as a rank filter).
        for &w in &ws.touched {
            nonind_c4 += choose2(ws.codeg[w as usize] as u64);
            ws.codeg[w as usize] = 0;
        }
        ws.touched.clear();
    }
    let triangle = triangle_x3 / 3;
    // Σ_e C(t_e, 2) classifies each common-neighbor pair {w, x} of an edge:
    // adjacent pairs close a K4 (6 such pairs per K4, one per edge),
    // non-adjacent pairs witness a diamond via its chord (1 per diamond).
    let diamond = sum_ct2 - 6 * clique4;

    // --- induced connected counts via identities ------------------------
    // non-induced 4-paths: subtract the w == x degenerate case (3 per triangle)
    let nonind_p4 = nonind_p4_pairs - 3 * triangle;
    // induced 4-cycle: every diamond contains exactly one non-induced C4 and
    // every K4 contains three.
    let cycle4 = nonind_c4 - diamond - 3 * clique4;
    // induced paw (tailed triangle)
    let tailed_triangle4 = nonind_paw - 12 * clique4 - 4 * diamond;
    // induced claw (4-star)
    let nonind_claw: u64 = graph.degrees().map(|d| choose3(d as u64)).sum();
    let star4 = nonind_claw - 4 * clique4 - 2 * diamond - tailed_triangle4;
    // induced 4-path
    let path4 = nonind_p4 - 12 * clique4 - 6 * diamond - 4 * cycle4 - 2 * tailed_triangle4;

    // --- size-3 counts ---------------------------------------------------
    let wedge_nonind: u64 = graph.degrees().map(|d| choose2(d as u64)).sum();
    let path3 = wedge_nonind - 3 * triangle;
    let one_edge3 = m * (n.saturating_sub(2)) - 2 * path3 - 3 * triangle;
    let independent3 = choose3(n) - triangle - path3 - one_edge3;

    // --- size-4 disconnected counts --------------------------------------
    let node_triangle4 =
        triangle * n.saturating_sub(3) - 4 * clique4 - 2 * diamond - tailed_triangle4;
    let node_star4 = path3 * n.saturating_sub(3)
        - 2 * diamond
        - 2 * tailed_triangle4
        - 4 * cycle4
        - 3 * star4
        - 2 * path4;
    let disjoint_edge_pairs = choose2(m) - wedge_nonind;
    let two_edges4 =
        disjoint_edge_pairs - 3 * clique4 - 2 * diamond - tailed_triangle4 - 2 * cycle4 - path4;
    let edge_incidences_in_quads = m * choose2(n.saturating_sub(2));
    let one_edge4 = edge_incidences_in_quads
        - 6 * clique4
        - 5 * diamond
        - 4 * tailed_triangle4
        - 4 * cycle4
        - 3 * star4
        - 3 * path4
        - 3 * node_triangle4
        - 2 * node_star4
        - 2 * two_edges4;
    let independent4 = choose4(n)
        - clique4
        - diamond
        - tailed_triangle4
        - cycle4
        - star4
        - path4
        - node_triangle4
        - node_star4
        - two_edges4
        - one_edge4;

    MotifCounts {
        edge2: m,
        independent2: choose2(n) - m,
        triangle3: triangle,
        path3,
        one_edge3,
        independent3,
        clique4,
        chordal_cycle4: diamond,
        tailed_triangle4,
        cycle4,
        star4,
        path4,
        node_triangle4,
        node_star4,
        two_edges4,
        one_edge4,
        independent4,
    }
}

/// Brute-force induced-subgraph enumeration (exponential; tests only).
pub fn count_motifs_bruteforce(graph: &Graph) -> MotifCounts {
    let n = graph.n_vertices();
    let mut counts = MotifCounts::default();
    // size 2
    for u in 0..n {
        for v in (u + 1)..n {
            if graph.has_edge(u, v) {
                counts.edge2 += 1;
            } else {
                counts.independent2 += 1;
            }
        }
    }
    // size 3
    for a in 0..n {
        for b in (a + 1)..n {
            for c in (b + 1)..n {
                let e = graph.has_edge(a, b) as u32
                    + graph.has_edge(a, c) as u32
                    + graph.has_edge(b, c) as u32;
                match e {
                    3 => counts.triangle3 += 1,
                    2 => counts.path3 += 1,
                    1 => counts.one_edge3 += 1,
                    _ => counts.independent3 += 1,
                }
            }
        }
    }
    // size 4
    for a in 0..n {
        for b in (a + 1)..n {
            for c in (b + 1)..n {
                for d in (c + 1)..n {
                    let verts = [a, b, c, d];
                    let mut deg = [0usize; 4];
                    let mut edges = 0usize;
                    for i in 0..4 {
                        for j in (i + 1)..4 {
                            if graph.has_edge(verts[i], verts[j]) {
                                edges += 1;
                                deg[i] += 1;
                                deg[j] += 1;
                            }
                        }
                    }
                    let mut degs = deg;
                    degs.sort_unstable();
                    // Edge count alone separates everything except the two
                    // 4-edge shapes and the three 3-edge / two 2-edge shapes,
                    // where the sorted degree signature is decisive: with 4
                    // edges on 4 vertices only the cycle (2,2,2,2) and the
                    // tailed triangle (1,2,2,3) exist — a signature like
                    // (1,1,3,3) would need two vertices adjacent to all
                    // others, which already forces 5 edges.
                    let motif = match (edges, degs) {
                        (6, _) => Motif::Clique4,
                        (5, _) => Motif::ChordalCycle4,
                        (4, [2, 2, 2, 2]) => Motif::Cycle4,
                        (4, _) => Motif::TailedTriangle4,
                        (3, [1, 1, 1, 3]) => Motif::Star4,
                        (3, [1, 1, 2, 2]) => Motif::Path4,
                        (3, [0, 2, 2, 2]) => Motif::NodeTriangle4,
                        (2, [0, 1, 1, 2]) => Motif::NodeStar4,
                        (2, [1, 1, 1, 1]) => Motif::TwoEdges4,
                        (1, _) => Motif::OneEdge4,
                        (0, _) => Motif::Independent4,
                        _ => unreachable!("impossible 4-vertex configuration"),
                    };
                    counts.set(motif, counts.get(motif) + 1);
                }
            }
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::visibility::{horizontal_visibility_graph, visibility_graph};

    fn pseudo_series(seed: u64, n: usize) -> Vec<f64> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 33) as f64) / (u32::MAX as f64)
            })
            .collect()
    }

    #[test]
    fn motif_metadata_is_consistent() {
        assert_eq!(Motif::ALL.len(), 17);
        let connected: Vec<_> = Motif::ALL.iter().filter(|m| m.is_connected()).collect();
        assert_eq!(connected.len(), 9); // 1 + 2 + 6
        for m in Motif::ALL {
            assert!(m.size() >= 2 && m.size() <= 4);
            assert!(m.n_edges() <= m.size() * (m.size() - 1) / 2);
            assert!(m.paper_id().starts_with('M'));
            assert!(!m.name().is_empty());
        }
    }

    #[test]
    fn clique_counts() {
        // K5: C(5,3)=10 triangles, C(5,4)=5 cliques of size 4, nothing else connected
        let mut edges = Vec::new();
        for i in 0..5usize {
            for j in (i + 1)..5 {
                edges.push((i, j));
            }
        }
        let g = Graph::from_edges(5, edges);
        let c = count_motifs(&g);
        assert_eq!(c.edge2, 10);
        assert_eq!(c.independent2, 0);
        assert_eq!(c.triangle3, 10);
        assert_eq!(c.path3, 0);
        assert_eq!(c.clique4, 5);
        assert_eq!(c.chordal_cycle4, 0);
        assert_eq!(c.cycle4, 0);
        assert_eq!(c.total_size4(), 5);
    }

    #[test]
    fn cycle_graph_counts() {
        // C6: no triangles; 4-subsets are paths/2-edges/cycles...
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let fast = count_motifs(&g);
        let brute = count_motifs_bruteforce(&g);
        assert_eq!(fast, brute);
        assert_eq!(fast.triangle3, 0);
        assert_eq!(fast.cycle4, 0); // C6 contains no induced C4
        assert_eq!(fast.path4, 6);
    }

    #[test]
    fn star_graph_counts() {
        // star K1,5: wedges = C(5,2) = 10, claws = C(5,3) = 10
        let g = Graph::from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
        let c = count_motifs(&g);
        assert_eq!(c.triangle3, 0);
        assert_eq!(c.path3, 10);
        assert_eq!(c.star4, 10);
        assert_eq!(
            c.clique4 + c.chordal_cycle4 + c.tailed_triangle4 + c.cycle4 + c.path4,
            0
        );
        assert_eq!(c, count_motifs_bruteforce(&g));
    }

    #[test]
    fn totals_cover_all_subsets() {
        let v = pseudo_series(3, 60);
        for g in [visibility_graph(&v), horizontal_visibility_graph(&v)] {
            let c = count_motifs(&g);
            let n = g.n_vertices() as u64;
            assert_eq!(c.edge2 + c.independent2, n * (n - 1) / 2);
            assert_eq!(c.total_size3(), n * (n - 1) * (n - 2) / 6);
            assert_eq!(c.total_size4(), n * (n - 1) * (n - 2) * (n - 3) / 24);
        }
    }

    #[test]
    fn fast_matches_bruteforce_on_visibility_graphs() {
        for seed in [1u64, 7, 13] {
            let v = pseudo_series(seed, 40);
            let vg = visibility_graph(&v);
            assert_eq!(
                count_motifs(&vg),
                count_motifs_bruteforce(&vg),
                "VG seed {seed}"
            );
            let hvg = horizontal_visibility_graph(&v);
            assert_eq!(
                count_motifs(&hvg),
                count_motifs_bruteforce(&hvg),
                "HVG seed {seed}"
            );
        }
    }

    #[test]
    fn fast_matches_bruteforce_on_structured_graphs() {
        // graphs with many overlapping cliques / cycles stress the identities
        let diamond_chain = Graph::from_edges(
            6,
            [
                (0, 1),
                (0, 2),
                (1, 2),
                (1, 3),
                (2, 3),
                (2, 4),
                (3, 4),
                (3, 5),
                (4, 5),
            ],
        );
        assert_eq!(
            count_motifs(&diamond_chain),
            count_motifs_bruteforce(&diamond_chain)
        );
        // two disjoint triangles
        let two_triangles = Graph::from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
        let c = count_motifs(&two_triangles);
        assert_eq!(c, count_motifs_bruteforce(&two_triangles));
        assert_eq!(c.node_triangle4, 6); // each triangle × 3 external vertices
        assert_eq!(c.two_edges4, 9);
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let c = count_motifs(&Graph::new(0));
        assert_eq!(c, MotifCounts::default());
        let c = count_motifs(&Graph::new(3));
        assert_eq!(c.independent3, 1);
        assert_eq!(c.edge2, 0);
        let c = count_motifs(&Graph::from_edges(2, [(0, 1)]));
        assert_eq!(c.edge2, 1);
        assert_eq!(c.total_size4(), 0);
    }

    fn star(n_leaves: usize) -> Graph {
        Graph::from_edges(n_leaves + 1, (1..=n_leaves).map(|leaf| (0, leaf)))
    }

    fn clique(n: usize) -> Graph {
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                edges.push((i, j));
            }
        }
        Graph::from_edges(n, edges)
    }

    fn long_path(n: usize) -> Graph {
        Graph::from_edges(n, (0..n - 1).map(|i| (i, i + 1)))
    }

    #[test]
    fn fast_matches_bruteforce_on_adversarial_graphs() {
        // extreme degree skew (star), maximal triangle density (clique) and
        // maximal diameter (path) stress the marker/rank machinery from
        // opposite directions
        for g in [star(12), clique(9), long_path(16)] {
            assert_eq!(count_motifs(&g), count_motifs_bruteforce(&g));
        }
        // two stars joined at their hubs: hubs rank above all leaves
        let mut edges: Vec<(usize, usize)> = (1..8).map(|leaf| (0, leaf)).collect();
        edges.extend((9..16).map(|leaf| (8, leaf)));
        edges.push((0, 8));
        let barbell = Graph::from_edges(16, edges);
        assert_eq!(count_motifs(&barbell), count_motifs_bruteforce(&barbell));
    }

    #[test]
    fn reused_workspace_matches_fresh_workspace() {
        // one workspace across many graphs of varying size == a fresh
        // workspace per graph, bit for bit; the tail grows from nothing to
        // 500 vertices and shrinks back to 40
        let mut graphs: Vec<Graph> = vec![
            star(9),
            visibility_graph(&pseudo_series(3, 50)),
            clique(7),
            horizontal_visibility_graph(&pseudo_series(4, 30)),
            long_path(25),
            Graph::new(0),
            visibility_graph(&pseudo_series(5, 64)),
        ];
        for n in [0, 1, 2, 3, 500, 40] {
            let values = pseudo_series(n as u64 + 11, n);
            graphs.push(visibility_graph(&values));
            graphs.push(horizontal_visibility_graph(&values));
        }
        let mut reused = MotifWorkspace::new();
        for g in &graphs {
            let with_reuse = count_motifs_with(g, &mut reused);
            let with_fresh = count_motifs_with(g, &mut MotifWorkspace::new());
            assert_eq!(with_reuse, with_fresh);
            if g.n_vertices() <= 64 {
                assert_eq!(with_reuse, count_motifs_bruteforce(g));
            }
        }
    }

    #[test]
    fn paper_id_roundtrip_unique() {
        let mut seen = std::collections::HashSet::new();
        for m in Motif::ALL {
            assert!(seen.insert(m.paper_id()));
        }
    }
}
