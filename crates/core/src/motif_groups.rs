//! Motif probability distributions (Definition 3.4).
//!
//! Raw motif counts vary over many orders of magnitude with graph size, so
//! the paper normalises them into probabilities *within groups of equal size
//! and connectivity* — five groups in total:
//!
//! | group | motifs |
//! |-------|--------|
//! | size-2 | `M2_1, M2_2` |
//! | size-3 connected | `M3_1, M3_2` |
//! | size-3 disconnected | `M3_3, M3_4` |
//! | size-4 connected | `M4_1 … M4_6` |
//! | size-4 disconnected | `M4_7 … M4_11` |
//!
//! Each group's counts are divided by the group total, giving per-group
//! probability distributions that are comparable across graphs of different
//! sizes.

use tsg_graph::motifs::{Motif, MotifCounts};

/// One normalisation group: motifs of equal size and connectivity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MotifGroup {
    /// Group label used in feature names.
    pub name: &'static str,
    /// Members of the group, in Table 1 order.
    pub motifs: &'static [Motif],
}

/// The five normalisation groups of section 3.1.
pub const MOTIF_GROUPS: [MotifGroup; 5] = [
    MotifGroup {
        name: "size2",
        motifs: &[Motif::Edge2, Motif::Independent2],
    },
    MotifGroup {
        name: "size3_connected",
        motifs: &[Motif::Triangle3, Motif::Path3],
    },
    MotifGroup {
        name: "size3_disconnected",
        motifs: &[Motif::OneEdge3, Motif::Independent3],
    },
    MotifGroup {
        name: "size4_connected",
        motifs: &[
            Motif::Clique4,
            Motif::ChordalCycle4,
            Motif::TailedTriangle4,
            Motif::Cycle4,
            Motif::Star4,
            Motif::Path4,
        ],
    },
    MotifGroup {
        name: "size4_disconnected",
        motifs: &[
            Motif::NodeTriangle4,
            Motif::NodeStar4,
            Motif::TwoEdges4,
            Motif::OneEdge4,
            Motif::Independent4,
        ],
    },
];

/// Total number of motif probability features (17: all motifs of Table 1).
pub const N_MOTIF_FEATURES: usize = 17;

/// Computes the motif probability distribution of a graph's motif counts:
/// every motif count divided by its group total (0 when the group is empty).
///
/// The output order follows [`MOTIF_GROUPS`] (size-2 pair, size-3 connected
/// pair, size-3 disconnected pair, size-4 connected six, size-4 disconnected
/// five) and is stable across the code base.
pub fn motif_probability_distribution(counts: &MotifCounts) -> Vec<f64> {
    let mut out = Vec::with_capacity(N_MOTIF_FEATURES);
    for group in MOTIF_GROUPS.iter() {
        let total: u64 = group.motifs.iter().map(|&m| counts.get(m)).sum();
        for &motif in group.motifs {
            let p = if total == 0 {
                0.0
            } else {
                counts.get(motif) as f64 / total as f64
            };
            out.push(p);
        }
    }
    out
}

/// Names matching [`motif_probability_distribution`], e.g. `P(M41)`.
pub fn motif_feature_names() -> Vec<String> {
    MOTIF_GROUPS
        .iter()
        .flat_map(|group| group.motifs.iter().map(|m| format!("P({})", m.paper_id())))
        .collect()
}

/// The position of a [`motif_feature_names`] entry, parsed without
/// allocating.
pub(crate) fn motif_feature_index(name: &str) -> Option<usize> {
    let id = name.strip_prefix("P(")?.strip_suffix(')')?;
    let mut motifs = MOTIF_GROUPS.iter().flat_map(|group| group.motifs);
    motifs.position(|m| m.paper_id() == id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsg_graph::motifs::count_motifs;
    use tsg_graph::visibility::visibility_graph;
    use tsg_graph::Graph;

    #[test]
    fn groups_cover_all_motifs_exactly_once() {
        let mut seen = std::collections::HashSet::new();
        for group in MOTIF_GROUPS.iter() {
            for &m in group.motifs {
                assert!(seen.insert(m.paper_id()), "duplicate motif {:?}", m);
            }
        }
        assert_eq!(seen.len(), Motif::ALL.len());
        assert_eq!(
            MOTIF_GROUPS.iter().map(|g| g.motifs.len()).sum::<usize>(),
            N_MOTIF_FEATURES
        );
    }

    #[test]
    fn group_members_share_size_and_connectivity() {
        for group in MOTIF_GROUPS.iter() {
            let size = group.motifs[0].size();
            let connected = group.motifs[0].is_connected();
            for &m in group.motifs {
                assert_eq!(m.size(), size, "group {} mixes sizes", group.name);
                // the paper keeps both size-2 motifs in a single group; only
                // the size-3 and size-4 groups split by connectivity
                if size > 2 {
                    assert_eq!(
                        m.is_connected(),
                        connected,
                        "group {} mixes connectivity",
                        group.name
                    );
                }
            }
        }
    }

    #[test]
    fn probabilities_sum_to_one_per_group() {
        let v: Vec<f64> = (0..100)
            .map(|i| ((i as f64) * 0.37).sin() + 0.01 * i as f64 % 3.0)
            .collect();
        let g = visibility_graph(&v);
        let counts = count_motifs(&g);
        let mpd = motif_probability_distribution(&counts);
        assert_eq!(mpd.len(), N_MOTIF_FEATURES);
        let mut offset = 0usize;
        for group in MOTIF_GROUPS.iter() {
            let sum: f64 = mpd[offset..offset + group.motifs.len()].iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-9,
                "group {} sums to {sum}",
                group.name
            );
            offset += group.motifs.len();
        }
        assert!(mpd.iter().all(|p| (0.0..=1.0).contains(p)));
    }

    #[test]
    fn empty_groups_give_zero_probabilities() {
        // 3 vertices, no edges: size-4 groups are empty (n < 4)
        let g = Graph::new(3);
        let counts = count_motifs(&g);
        let mpd = motif_probability_distribution(&counts);
        // size-2 group: all mass on the non-edge motif
        assert_eq!(mpd[0], 0.0);
        assert_eq!(mpd[1], 1.0);
        // size-4 groups (indices 6..17) are all zero
        assert!(mpd[6..17].iter().all(|&p| p == 0.0));
    }

    #[test]
    fn names_align_with_values() {
        let names = motif_feature_names();
        assert_eq!(names.len(), N_MOTIF_FEATURES);
        assert_eq!(names[0], "P(M21)");
        assert_eq!(names[6], "P(M41)");
        assert_eq!(names[16], "P(M411)");
    }
}
