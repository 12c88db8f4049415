//! # tsg-graph — graph substrate for visibility-graph time series features
//!
//! Everything the MVG pipeline needs from graph theory, implemented from
//! scratch:
//!
//! * [`Graph`] — a compact undirected graph with sorted adjacency lists.
//! * [`visibility`] — natural visibility graph construction (naive `O(n²)`
//!   and divide-and-conquer) and horizontal visibility graph construction
//!   (stack-based, `O(n)`), following Definitions 2.3 and 2.4 of the paper.
//! * [`motifs`] — exact counting of all graph motifs (graphlets) of size 2,
//!   3 and 4 — connected and disconnected (Table 1) — via edge-centric
//!   triangle/clique enumeration plus combinatorial identities, in the spirit
//!   of PGD (Ahmed et al., ICDM 2015).
//! * [`kcore`] — `O(m)` core decomposition (Batagelj–Zaveršnik).
//! * [`assortativity`] — degree assortativity (Newman's Pearson formulation,
//!   equation 4 of the paper).
//! * [`stats`] — density (equation 2), degree statistics and the combined
//!   [`stats::GraphStatistics`] record.
//! * [`traversal`] — connected components and connectivity checks.

pub mod assortativity;
pub mod graph;
pub mod kcore;
pub mod motifs;
pub mod stats;
pub mod traversal;
pub mod visibility;

pub use assortativity::degree_assortativity;
pub use graph::Graph;
pub use kcore::{core_numbers, max_coreness};
pub use motifs::{count_motifs, count_motifs_with, Motif, MotifCounts, MotifWorkspace};
pub use stats::{degree_statistics, density, DegreeStatistics, GraphStatistics};
pub use traversal::{connected_components, is_connected};
pub use visibility::{
    horizontal_visibility_graph, visibility_graph, visibility_graph_naive, VisibilityKind,
};
