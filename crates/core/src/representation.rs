//! UVG / AMVG / MVG representations (Definitions 3.1–3.3).
//!
//! A [`ScaleMode`] selects which scales of the multiscale representation are
//! turned into graphs; [`SeriesGraphs`] holds the resulting set of visibility
//! graphs for one series together with the scale index and graph kind of each
//! member, which is what the feature extractor iterates over.

use crate::trace::{ExtractStage, NoopTraceSink, TraceSink};
use tsg_graph::visibility::VisibilityKind;
use tsg_graph::Graph;
use tsg_ts::multiscale::{MultiscaleOptions, MultiscaleRepresentation};
use tsg_ts::TimeSeries;

/// Which scales participate in the representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScaleMode {
    /// Uniscale: only the original series `T0` (UVG).
    Uniscale,
    /// Approximated multiscale: only the downscaled approximations `T1..Tm`
    /// (AMVG).
    ApproximatedMultiscale,
    /// Full multiscale: `T0` plus `T1..Tm` (MVG).
    FullMultiscale,
}

impl ScaleMode {
    /// Short name used in reports (`UVG` / `AMVG` / `MVG`).
    pub fn short_name(self) -> &'static str {
        match self {
            ScaleMode::Uniscale => "UVG",
            ScaleMode::ApproximatedMultiscale => "AMVG",
            ScaleMode::FullMultiscale => "MVG",
        }
    }
}

/// One visibility graph within a series' multiscale representation.
#[derive(Debug, Clone)]
pub struct ScaleGraph {
    /// Scale index (`0` = the original series, `i` = the `i`-th halving).
    pub scale: usize,
    /// Whether this is a natural or horizontal visibility graph.
    pub kind: VisibilityKind,
    /// The graph itself.
    pub graph: Graph,
}

/// The set of visibility graphs generated from one time series under a given
/// scale mode and set of graph kinds (Definition 3.3).
#[derive(Debug, Clone)]
pub struct SeriesGraphs {
    /// Graphs ordered by scale, then by graph kind.
    pub graphs: Vec<ScaleGraph>,
}

impl SeriesGraphs {
    /// Builds the graphs for `series`.
    ///
    /// `kinds` selects VG, HVG or both; `mode` selects the scales; `options`
    /// controls the multiscale cascade (`τ`).
    pub fn build(
        series: &TimeSeries,
        kinds: &[VisibilityKind],
        mode: ScaleMode,
        options: MultiscaleOptions,
    ) -> Self {
        let scales = scale_values_with_sink(series, mode, options, &mut NoopTraceSink);
        let graphs = scales
            .iter()
            .flat_map(|(scale, values)| {
                kinds.iter().map(move |&kind| ScaleGraph {
                    scale: *scale,
                    kind,
                    graph: kind.build(values),
                })
            })
            .collect();
        SeriesGraphs { graphs }
    }

    /// Number of graphs in the representation.
    pub fn len(&self) -> usize {
        self.graphs.len()
    }

    /// Whether the representation is empty (never the case for non-empty
    /// input series).
    pub fn is_empty(&self) -> bool {
        self.graphs.is_empty()
    }

    /// The distinct scale indices present, in ascending order.
    pub fn scales(&self) -> Vec<usize> {
        let mut s: Vec<usize> = self.graphs.iter().map(|g| g.scale).collect();
        s.sort_unstable();
        s.dedup();
        s
    }
}

/// The scale-indexed value vectors a mode produces for one series — the
/// single source the graph builder and the extractor share, so both see the
/// exact same cascade (including the AMVG short-series fallback).
pub(crate) fn scale_values_with_sink(
    series: &TimeSeries,
    mode: ScaleMode,
    options: MultiscaleOptions,
    sink: &mut impl TraceSink,
) -> Vec<(usize, Vec<f64>)> {
    let mut scales: Vec<(usize, Vec<f64>)> = Vec::new();
    match mode {
        ScaleMode::Uniscale => {
            scales.push((0, series.values().to_vec()));
        }
        ScaleMode::ApproximatedMultiscale | ScaleMode::FullMultiscale => {
            sink.enter(ExtractStage::Scale);
            let rep = MultiscaleRepresentation::build(series, options)
                .expect("multiscale construction cannot fail on non-empty series");
            sink.exit(ExtractStage::Scale);
            if mode == ScaleMode::FullMultiscale {
                scales.push((0, rep.original.values().to_vec()));
            }
            for (i, t) in rep.approximations.iter().enumerate() {
                scales.push((i + 1, t.values().to_vec()));
            }
            // degenerate case: series too short to downscale — AMVG falls
            // back to the original so the representation is never empty
            if scales.is_empty() {
                scales.push((0, series.values().to_vec()));
            }
        }
    }
    scales
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize) -> TimeSeries {
        TimeSeries::with_label(
            (0..n)
                .map(|i| ((i as f64) * 0.21).sin() + ((i as f64) * 0.037).cos())
                .collect(),
            0,
        )
    }

    #[test]
    fn uniscale_has_one_scale() {
        let s = series(256);
        let rep = SeriesGraphs::build(
            &s,
            &[VisibilityKind::Natural, VisibilityKind::Horizontal],
            ScaleMode::Uniscale,
            MultiscaleOptions::default(),
        );
        assert_eq!(rep.len(), 2);
        assert_eq!(rep.scales(), vec![0]);
        assert_eq!(rep.graphs[0].graph.n_vertices(), 256);
    }

    #[test]
    fn amvg_excludes_original_scale() {
        let s = series(256);
        let rep = SeriesGraphs::build(
            &s,
            &[VisibilityKind::Natural],
            ScaleMode::ApproximatedMultiscale,
            MultiscaleOptions::with_tau(15),
        );
        assert!(!rep.scales().contains(&0));
        assert!(rep.len() >= 3);
        // each scale shrinks by half
        for g in &rep.graphs {
            assert_eq!(g.graph.n_vertices(), 256 >> g.scale);
        }
    }

    #[test]
    fn mvg_is_superset_of_uvg_and_amvg_scales() {
        let s = series(512);
        let opts = MultiscaleOptions::with_tau(15);
        let mvg = SeriesGraphs::build(
            &s,
            &[VisibilityKind::Natural],
            ScaleMode::FullMultiscale,
            opts,
        );
        let amvg = SeriesGraphs::build(
            &s,
            &[VisibilityKind::Natural],
            ScaleMode::ApproximatedMultiscale,
            opts,
        );
        let mvg_scales = mvg.scales();
        assert!(mvg_scales.contains(&0));
        for s in amvg.scales() {
            assert!(mvg_scales.contains(&s));
        }
        assert_eq!(mvg.len(), amvg.len() + 1);
    }

    #[test]
    fn short_series_fall_back_to_original() {
        let s = series(20);
        let rep = SeriesGraphs::build(
            &s,
            &[VisibilityKind::Horizontal],
            ScaleMode::ApproximatedMultiscale,
            MultiscaleOptions::with_tau(15),
        );
        assert_eq!(rep.len(), 1);
        assert_eq!(rep.scales(), vec![0]);
        assert!(!rep.is_empty());
    }

    #[test]
    fn short_names() {
        assert_eq!(ScaleMode::Uniscale.short_name(), "UVG");
        assert_eq!(ScaleMode::ApproximatedMultiscale.short_name(), "AMVG");
        assert_eq!(ScaleMode::FullMultiscale.short_name(), "MVG");
    }
}
