//! The clock-free tracing seam of the extraction pipeline.
//!
//! `tsg_core` is a deterministic crate: the analyzer's `det-time` and
//! `clock-discipline` rules forbid it from reading any clock. Yet the
//! serving layer needs to know where extraction time goes (scale build vs
//! graph build vs graph features). The seam is a [`TraceSink`] trait the
//! extraction entry points thread through their stages: the *callbacks*
//! live here, the *clocks* live in the caller (`tsg_serve`, via
//! `tsg_trace`). The default methods are `#[inline(always)]` no-ops, so
//! the untraced entry points compile to exactly the code they were before
//! the seam existed — tracing observes, never perturbs, and a build
//! without a sink pays nothing.

/// The extraction sub-stages a sink can observe, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtractStage {
    /// Multiscale representation build (PAA halvings).
    Scale,
    /// Visibility-graph construction (all scales × kinds).
    GraphBuild,
    /// Graph features over one built graph: the motif census and the graph
    /// statistics (degrees, k-core, assortativity).
    MotifCount,
    /// The per-series statistical layer of the catalogue (quantiles,
    /// trend, peaks, autocorrelation, DFT magnitudes).
    Statistical,
}

/// Observer of extraction sub-stages. `enter`/`exit` bracket each stage;
/// stages never nest, and a stage may be entered repeatedly for one
/// series (one `GraphBuild`/`MotifCount` pair per graph).
pub trait TraceSink {
    /// Called when a stage begins.
    #[inline(always)]
    fn enter(&mut self, _stage: ExtractStage) {}

    /// Called when the same stage ends.
    #[inline(always)]
    fn exit(&mut self, _stage: ExtractStage) {}
}

/// The do-nothing sink: what every untraced entry point uses.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopTraceSink;

impl TraceSink for NoopTraceSink {}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct CountingSink {
        events: Vec<(ExtractStage, bool)>,
    }

    impl TraceSink for CountingSink {
        fn enter(&mut self, stage: ExtractStage) {
            self.events.push((stage, true));
        }
        fn exit(&mut self, stage: ExtractStage) {
            self.events.push((stage, false));
        }
    }

    #[test]
    fn sinks_observe_balanced_stage_brackets() {
        use crate::{extract_series_features, extract_series_features_traced, FeatureConfig};
        use tsg_graph::motifs::MotifWorkspace;
        use tsg_ts::TimeSeries;

        let series = TimeSeries::new(
            (0..128)
                .map(|i| ((i as f64) * 0.21).sin() + ((i as f64) * 0.037).cos())
                .collect(),
        );
        let config = FeatureConfig::mvg();
        let mut workspace = MotifWorkspace::default();
        let mut sink = CountingSink::default();
        let traced = extract_series_features_traced(&series, &config, &mut workspace, &mut sink);

        // bit-identity: the traced path computes exactly the untraced result
        assert_eq!(traced, extract_series_features(&series, &config));

        // every enter has a matching exit, in order, with no nesting
        let mut open: Option<ExtractStage> = None;
        for &(stage, entered) in &sink.events {
            if entered {
                assert!(open.is_none(), "nested stage {stage:?}");
                open = Some(stage);
            } else {
                assert_eq!(open, Some(stage), "unbalanced exit {stage:?}");
                open = None;
            }
        }
        assert!(open.is_none());

        // MVG on 128 points: one scale build, one graph build + graph
        // features per (scale × kind) graph
        let enters = |s: ExtractStage| {
            sink.events
                .iter()
                .filter(|&&(e, entered)| e == s && entered)
                .count()
        };
        assert_eq!(enters(ExtractStage::Scale), 1);
        let n_graphs = config.n_scales_for_length(128) * config.kinds.len();
        assert_eq!(enters(ExtractStage::GraphBuild), n_graphs);
        assert_eq!(enters(ExtractStage::MotifCount), n_graphs);
        // the statistical layer is disabled in the paper's configuration
        assert_eq!(enters(ExtractStage::Statistical), 0);
    }

    #[test]
    fn statistical_stage_brackets_the_catalogue_layer_once() {
        use crate::{extract_series_features_traced, FeatureConfig};
        use tsg_graph::motifs::MotifWorkspace;
        use tsg_ts::TimeSeries;

        let series = TimeSeries::new((0..128).map(|i| ((i as f64) * 0.21).sin()).collect());
        let mut workspace = MotifWorkspace::default();
        let mut sink = CountingSink::default();
        extract_series_features_traced(&series, &FeatureConfig::wide(), &mut workspace, &mut sink);
        let statistical = sink
            .events
            .iter()
            .filter(|&&(e, entered)| e == ExtractStage::Statistical && entered)
            .count();
        assert_eq!(statistical, 1);
    }
}
