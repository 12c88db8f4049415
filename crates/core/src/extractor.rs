//! Algorithm 1: building MVGs and extracting statistical features.
//!
//! A [`FeatureConfig`] pins down one point in the paper's design space —
//! which graph kinds (VG / HVG / both), which scales (UVG / AMVG / MVG),
//! whether the scalar statistics accompany the motif probability
//! distributions, and (beyond the paper) whether the per-series statistical
//! layer of the [catalogue](crate::catalogue) is appended and whether an
//! importance-chosen [`FeatureSelection`] prunes the wide vector down to a
//! compact subset. [`extract_series_features`] turns one series into a flat
//! feature vector under that configuration and
//! [`extract_dataset_features`] maps a whole dataset into a
//! [`FeatureMatrix`] (in parallel), producing the input of the generic
//! classifiers.
//!
//! One body serves both. Every row it returns is the gather of a list of
//! feature names, parsed once: a dataset's rows take the names at its
//! longest series, a fitted model's its training names, a pruned row its
//! selection. Per series, the body computes only the graphs, motif censuses
//! and statistical families those names touch into a wide buffer, in the
//! order wide extraction computes it, and gathers the named columns from it
//! (`0.0` for a scale the series lacks). Pruned extraction is therefore a
//! column gather of wide extraction by construction, bit for bit (pinned by
//! `tests/determinism.rs`).

use crate::catalogue::{compute_stat_layer, parse_index, FeatureSelection, StatisticalConfig};
use crate::graph_features::{block_len, graph_feature_index, graph_feature_names};
use crate::motif_groups::{motif_probability_distribution, N_MOTIF_FEATURES};
use crate::representation::{scale_values_with_sink, ScaleMode};
use crate::trace::{ExtractStage, NoopTraceSink, TraceSink};
use std::fmt;
use tsg_graph::motifs::{count_motifs, count_motifs_with, MotifWorkspace};
use tsg_graph::stats::GraphStatistics;
use tsg_graph::visibility::VisibilityKind;
use tsg_graph::{Graph, MotifCounts};
use tsg_ml::data::FeatureMatrix;
use tsg_parallel::parallel_map;
use tsg_ts::multiscale::MultiscaleOptions;
use tsg_ts::preprocess::detrend;
use tsg_ts::{Dataset, TimeSeries};

/// Configuration of the feature extraction stage.
#[derive(Clone, PartialEq)]
pub struct FeatureConfig {
    /// Which visibility criteria to build graphs with.
    pub kinds: Vec<VisibilityKind>,
    /// Which scales to include (UVG / AMVG / MVG).
    pub scale_mode: ScaleMode,
    /// Whether density/coreness/assortativity/degree statistics are appended
    /// to the motif probability distributions.
    pub include_other_stats: bool,
    /// Multiscale cascade options (`τ`).
    pub multiscale: MultiscaleOptions,
    /// Remove the least-squares linear trend before graph construction
    /// (visibility graphs do not handle monotone trends well, §2.1).
    pub detrend: bool,
    /// The per-series statistical layer of the catalogue (disabled by
    /// default: the paper's configurations are pure graph features).
    pub statistical: StatisticalConfig,
    /// Optional importance-chosen subset of the wide catalogue. When set,
    /// extraction produces exactly `selection.len()` features in selection
    /// order and skips every computation the subset does not need.
    pub selection: Option<FeatureSelection>,
}

// The `Debug` rendering feeds `MvgClassifier::config_fingerprint`, which is
// persisted in model snapshots. The two catalogue fields are appended only
// when they deviate from their defaults so every pre-catalogue
// configuration keeps its historical fingerprint and old snapshots still
// load.
impl fmt::Debug for FeatureConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = f.debug_struct("FeatureConfig");
        s.field("kinds", &self.kinds)
            .field("scale_mode", &self.scale_mode)
            .field("include_other_stats", &self.include_other_stats)
            .field("multiscale", &self.multiscale)
            .field("detrend", &self.detrend);
        if self.statistical != StatisticalConfig::default() {
            s.field("statistical", &self.statistical);
        }
        if let Some(selection) = &self.selection {
            s.field("selection", selection);
        }
        s.finish()
    }
}

impl Default for FeatureConfig {
    fn default() -> Self {
        FeatureConfig::mvg()
    }
}

impl FeatureConfig {
    /// The paper's full configuration (column G of Table 2): VG + HVG, all
    /// scales, all features.
    pub fn mvg() -> Self {
        FeatureConfig {
            kinds: vec![VisibilityKind::Natural, VisibilityKind::Horizontal],
            scale_mode: ScaleMode::FullMultiscale,
            include_other_stats: true,
            multiscale: MultiscaleOptions::default(),
            detrend: false,
            statistical: StatisticalConfig::default(),
            selection: None,
        }
    }

    /// The wide catalogue: the paper's full MVG graph features plus the
    /// per-series statistical layer — the fit-wide-then-prune starting
    /// point.
    pub fn wide() -> Self {
        FeatureConfig {
            statistical: StatisticalConfig::standard(),
            ..FeatureConfig::mvg()
        }
    }

    /// Column E of Table 2: VG + HVG on the original scale only.
    pub fn uvg() -> Self {
        FeatureConfig {
            scale_mode: ScaleMode::Uniscale,
            ..FeatureConfig::mvg()
        }
    }

    /// Column F of Table 2: VG + HVG on the approximated scales only.
    pub fn amvg() -> Self {
        FeatureConfig {
            scale_mode: ScaleMode::ApproximatedMultiscale,
            ..FeatureConfig::mvg()
        }
    }

    /// A single-kind uniscale configuration (columns A–D of Table 2).
    pub fn uniscale_single(kind: VisibilityKind, include_other_stats: bool) -> Self {
        FeatureConfig {
            kinds: vec![kind],
            scale_mode: ScaleMode::Uniscale,
            include_other_stats,
            multiscale: MultiscaleOptions::default(),
            detrend: false,
            statistical: StatisticalConfig::default(),
            selection: None,
        }
    }

    /// Short label used in experiment tables (e.g. `"MVG VG+HVG All"`).
    pub fn label(&self) -> String {
        let kinds = self
            .kinds
            .iter()
            .map(|k| k.short_name())
            .collect::<Vec<_>>()
            .join("+");
        let features = if self.include_other_stats {
            "All"
        } else {
            "MPDs"
        };
        format!("{} {} {}", self.scale_mode.short_name(), kinds, features)
    }

    /// The scale indices the configuration produces for a series of length
    /// `len`, in wide-vector order (`0` = the original series; AMVG falls
    /// back to `[0]` when the series is too short to downscale).
    fn scale_indices_for_length(&self, len: usize) -> Vec<usize> {
        let halvings = self.multiscale.halvings(len);
        match self.scale_mode {
            ScaleMode::Uniscale => vec![0],
            ScaleMode::ApproximatedMultiscale => {
                if halvings == 0 {
                    vec![0]
                } else {
                    (1..=halvings).collect()
                }
            }
            ScaleMode::FullMultiscale => (0..=halvings).collect(),
        }
    }

    /// Number of scales the configuration produces for a series of length
    /// `len`.
    pub fn n_scales_for_length(&self, len: usize) -> usize {
        self.scale_indices_for_length(len).len()
    }

    /// Number of features produced for a series of length `len`.
    fn n_features_for_length(&self, len: usize) -> usize {
        if let Some(selection) = &self.selection {
            return selection.len();
        }
        self.n_scales_for_length(len) * self.kinds.len() * block_len(self.include_other_stats)
            + self.statistical.n_features()
    }

    /// Feature names for a series of length `len`, e.g. `T0 HVG P(M44)` or
    /// `T2 VG assortativity` (the naming used in Figure 10), followed by
    /// the `stat …` names of the statistical layer when enabled. With a
    /// selection attached the names are the selection itself,
    /// length-independent.
    pub fn feature_names_for_length(&self, len: usize) -> Vec<String> {
        if let Some(selection) = &self.selection {
            return selection.names().to_vec();
        }
        let block_names = graph_feature_names(self.include_other_stats);
        let mut out = Vec::with_capacity(self.n_features_for_length(len));
        for scale in self.scale_indices_for_length(len) {
            for kind in &self.kinds {
                for name in &block_names {
                    out.push(format!("T{} {} {}", scale, kind.short_name(), name));
                }
            }
        }
        out.extend(self.statistical.feature_names());
        out
    }

    /// Whether `name` denotes a feature this configuration's catalogue can
    /// produce for *some* series length — the membership test behind
    /// [`FeatureSelection::validate`]. Only the exact spellings
    /// [`FeatureConfig::feature_names_for_length`] writes are accepted.
    pub fn is_known_feature_name(&self, name: &str) -> bool {
        match self.parse_feature_name(name) {
            None => false,
            Some(FeatureColumn::Stat(_)) => true,
            // a series of length L admits at most log2(L) halvings, and T0
            // is reachable under every mode (AMVG falls back to it)
            Some(FeatureColumn::Graph { scale, .. }) => {
                scale < 64
                    && scale <= self.multiscale.max_scales
                    && (self.scale_mode != ScaleMode::Uniscale || scale == 0)
            }
        }
    }

    /// The one name parser behind validation and extraction: reads
    /// `T{scale} {kind} {block name}` and `stat {name}` against the name
    /// tables the catalogue writes from, without allocating.
    fn parse_feature_name(&self, name: &str) -> Option<FeatureColumn> {
        if let Some(index) = self.statistical.feature_index(name) {
            return Some(FeatureColumn::Stat(index));
        }
        let (scale, rest) = name.strip_prefix('T')?.split_once(' ')?;
        let (kind, entry) = rest.split_once(' ')?;
        Some(FeatureColumn::Graph {
            scale: parse_index(scale)?,
            kind: self.kinds.iter().position(|k| k.short_name() == kind)?,
            entry: graph_feature_index(entry, self.include_other_stats)?,
        })
    }

    /// The row layout of the attached selection, if any.
    fn selection_layout(&self) -> Option<Vec<Option<FeatureColumn>>> {
        Some(self.row_layout(self.selection.as_ref()?.names()))
    }

    /// The row layout of `names`: each name parsed once into the wide
    /// column it denotes, `None` for a name outside this catalogue.
    pub(crate) fn row_layout(&self, names: &[String]) -> Vec<Option<FeatureColumn>> {
        names.iter().map(|n| self.parse_feature_name(n)).collect()
    }

    /// The position of `column` in the wide vector whose graph blocks cover
    /// `scales` (the scale indices at one series length); `None` for a
    /// scale that length does not produce.
    fn wide_position(&self, column: FeatureColumn, scales: &[usize]) -> Option<usize> {
        let block = block_len(self.include_other_stats);
        Some(match column {
            FeatureColumn::Graph { scale, kind, entry } => {
                let slot = scales.iter().position(|&s| s == scale)?;
                (slot * self.kinds.len() + kind) * block + entry
            }
            FeatureColumn::Stat(index) => scales.len() * self.kinds.len() * block + index,
        })
    }
}

/// Where a wide feature name points, independent of the series length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum FeatureColumn {
    /// Entry `entry` of the block of `kinds[kind]` at scale `scale`.
    Graph {
        scale: usize,
        kind: usize,
        entry: usize,
    },
    /// Position within the statistical layer.
    Stat(usize),
}

/// One parsed column per feature name (see [`FeatureConfig::row_layout`]).
pub(crate) type RowLayout = [Option<FeatureColumn>];

/// Extracts the feature vector of one series under `config` (Algorithm 1),
/// reusing the calling thread's motif workspace (the thread-local inside
/// [`tsg_graph::motifs::count_motifs`]).
pub fn extract_series_features(series: &TimeSeries, config: &FeatureConfig) -> Vec<f64> {
    let layout = config.selection_layout();
    extract_features_impl(
        series,
        config,
        layout.as_deref(),
        &mut NoopTraceSink,
        count_motifs,
    )
}

/// [`extract_series_features`] with a caller-held motif workspace (the
/// scratch memory of the hottest kernel; see
/// [`tsg_graph::motifs::MotifWorkspace`]) and a [`TraceSink`] observing the
/// `Scale`/`GraphBuild`/`MotifCount`/`Statistical` sub-stages — the seam
/// the serving layer uses for per-request latency attribution. The sink
/// only receives callbacks (this crate stays clock-free); pass
/// [`NoopTraceSink`] to trace nothing. The returned features are
/// bit-identical to [`extract_series_features`].
pub fn extract_series_features_traced<S: TraceSink>(
    series: &TimeSeries,
    config: &FeatureConfig,
    workspace: &mut MotifWorkspace,
    sink: &mut S,
) -> Vec<f64> {
    let layout = config.selection_layout();
    extract_row_traced(series, config, layout.as_deref(), workspace, sink)
}

/// The row of `series` in `layout` (`None`: the wide row at its own
/// length) on a caller-held workspace, traced into `sink`.
pub(crate) fn extract_row_traced<S: TraceSink>(
    series: &TimeSeries,
    config: &FeatureConfig,
    layout: Option<&RowLayout>,
    workspace: &mut MotifWorkspace,
    sink: &mut S,
) -> Vec<f64> {
    extract_features_impl(series, config, layout, sink, |graph| {
        count_motifs_with(graph, workspace)
    })
}

/// The one extraction body. Every graph block of the scale cascade
/// (scale-then-kind order) and then the statistical layer is computed into
/// a wide buffer, skipping the graphs, censuses and families no column of
/// `layout` reads; the result is the buffer itself, or the layout's columns
/// gathered from it, with `0.0` for a column whose scale this series length
/// does not produce.
fn extract_features_impl<S: TraceSink>(
    series: &TimeSeries,
    config: &FeatureConfig,
    layout: Option<&RowLayout>,
    sink: &mut S,
    mut census: impl FnMut(&Graph) -> MotifCounts,
) -> Vec<f64> {
    let prepared;
    let series = if config.detrend {
        prepared = TimeSeries::new(detrend(series.values()));
        &prepared
    } else {
        series
    };
    let scale_values = scale_values_with_sink(series, config.scale_mode, config.multiscale, sink);
    let scales: Vec<usize> = scale_values.iter().map(|(scale, _)| *scale).collect();
    let block = block_len(config.include_other_stats);
    let n_graph = scales.len() * config.kinds.len() * block;
    let positions: Option<Vec<Option<usize>>> = layout.map(|columns| {
        columns
            .iter()
            .map(|c| c.and_then(|c| config.wide_position(c, &scales)))
            .collect()
    });
    let mut needed = vec![positions.is_none(); n_graph + config.statistical.n_features()];
    for &position in positions.iter().flatten().flatten() {
        needed[position] = true;
    }
    let mut wide = vec![0.0; needed.len()];
    let (graph_out, stat_out) = wide.split_at_mut(n_graph);
    let (graph_needed, stat_needed) = needed.split_at(n_graph);
    let graphs = scale_values
        .iter()
        .flat_map(|(_, values)| config.kinds.iter().map(move |&kind| (kind, values)));
    let blocks = graph_out.chunks_mut(block).zip(graph_needed.chunks(block));
    for ((kind, values), (out, need)) in graphs.zip(blocks) {
        let (need_motifs, need_stats) = need.split_at(N_MOTIF_FEATURES);
        let (need_motifs, need_stats) = (need_motifs.contains(&true), need_stats.contains(&true));
        if !need_motifs && !need_stats {
            continue;
        }
        sink.enter(ExtractStage::GraphBuild);
        let graph = kind.build(values);
        sink.exit(ExtractStage::GraphBuild);
        // the graph features: the motif census and the graph statistics
        sink.enter(ExtractStage::MotifCount);
        let (motif_out, stats_out) = out.split_at_mut(N_MOTIF_FEATURES);
        if need_motifs {
            motif_out.copy_from_slice(&motif_probability_distribution(&census(&graph)));
        }
        if need_stats {
            stats_out.copy_from_slice(&GraphStatistics::compute(&graph).to_features());
        }
        sink.exit(ExtractStage::MotifCount);
    }

    if stat_needed.contains(&true) {
        sink.enter(ExtractStage::Statistical);
        compute_stat_layer(&config.statistical, series.values(), stat_needed, stat_out);
        sink.exit(ExtractStage::Statistical);
    }

    match positions {
        None => wide,
        Some(positions) => positions
            .iter()
            .map(|p| p.map_or(0.0, |i| wide[i]))
            .collect(),
    }
}

/// Extracts features for every series of a dataset, in parallel, and returns
/// the feature matrix together with the matching feature names.
///
/// Every row is gathered by the names at the longest series (or by the
/// selection), so a shorter series reads `0.0` for a scale it lacks. Each
/// pool worker reuses one thread-local [`MotifWorkspace`] across every
/// series it claims; the workspace never influences results
/// (`tests/determinism.rs` pins reused == fresh bit-for-bit), only
/// allocation traffic.
pub fn extract_dataset_features(
    dataset: &Dataset,
    config: &FeatureConfig,
    n_threads: usize,
) -> (FeatureMatrix, Vec<String>) {
    let names = config.feature_names_for_length(dataset.max_length());
    let layout = config.row_layout(&names);
    let rows = extract_rows(dataset.series(), config, &layout, n_threads);
    let matrix = FeatureMatrix::from_rows(&rows).expect("rows share the layout's width");
    (matrix, names)
}

/// The rows of `series` in `layout`, extracted in parallel.
pub(crate) fn extract_rows(
    series: &[TimeSeries],
    config: &FeatureConfig,
    layout: &RowLayout,
    n_threads: usize,
) -> Vec<Vec<f64>> {
    parallel_map(series, n_threads, |series| {
        extract_features_impl(
            series,
            config,
            Some(layout),
            &mut NoopTraceSink,
            count_motifs,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tsg_ts::generators;

    fn toy_dataset(n_per_class: usize, len: usize) -> Dataset {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut d = Dataset::new("toy");
        for i in 0..n_per_class * 2 {
            let label = i % 2;
            let values = if label == 0 {
                generators::sine_wave(&mut rng, len, 16.0, 1.0, 0.0, 0.1)
            } else {
                generators::gaussian_noise(&mut rng, len, 1.0)
            };
            d.push(TimeSeries::with_label(values, label));
        }
        d
    }

    #[test]
    fn feature_vector_matches_names_for_all_configs() {
        let series = TimeSeries::new((0..256).map(|i| ((i as f64) * 0.17).sin()).collect());
        let configs = [
            FeatureConfig::mvg(),
            FeatureConfig::uvg(),
            FeatureConfig::amvg(),
            FeatureConfig::wide(),
            FeatureConfig::uniscale_single(VisibilityKind::Horizontal, false),
            FeatureConfig::uniscale_single(VisibilityKind::Natural, true),
        ];
        for config in configs {
            let features = extract_series_features(&series, &config);
            let names = config.feature_names_for_length(series.len());
            assert_eq!(
                features.len(),
                names.len(),
                "mismatch for config {}",
                config.label()
            );
            assert_eq!(features.len(), config.n_features_for_length(series.len()));
            assert!(features.iter().all(|v| v.is_finite()));
        }
    }

    // The name/count sources and the cascade itself can never drift apart,
    // for every scale mode, statistical layer, `τ`/cap and length 1..=512.
    #[test]
    fn names_and_counts_agree_for_all_lengths_and_modes() {
        let mut configs = vec![
            FeatureConfig::mvg(),
            FeatureConfig::uvg(),
            FeatureConfig::amvg(),
            FeatureConfig::wide(),
            FeatureConfig::uniscale_single(VisibilityKind::Horizontal, false),
        ];
        configs.push(FeatureConfig {
            statistical: StatisticalConfig::standard(),
            ..FeatureConfig::amvg()
        });
        configs.push(FeatureConfig {
            multiscale: MultiscaleOptions {
                tau: 0,
                max_scales: 3,
            },
            ..FeatureConfig::mvg()
        });
        for config in &configs {
            for len in 1..=512usize {
                let names = config.feature_names_for_length(len);
                assert_eq!(
                    names.len(),
                    config.n_features_for_length(len),
                    "config {} length {len}",
                    config.label()
                );
                assert_eq!(
                    config.n_scales_for_length(len),
                    config.scale_indices_for_length(len).len()
                );
                // counting and naming follow the cascade extraction runs
                let series = TimeSeries::new(vec![0.5; len]);
                let cascade: Vec<usize> = scale_values_with_sink(
                    &series,
                    config.scale_mode,
                    config.multiscale,
                    &mut NoopTraceSink,
                )
                .into_iter()
                .map(|(scale, _)| scale)
                .collect();
                assert_eq!(
                    config.n_scales_for_length(len),
                    cascade.len(),
                    "config {} length {len}",
                    config.label()
                );
                assert_eq!(config.scale_indices_for_length(len), cascade);
            }
        }
        // and extraction itself matches the predicted width on a sample
        for config in &configs {
            for len in [1usize, 2, 5, 16, 31, 32, 33, 100, 128] {
                let series = TimeSeries::new((0..len).map(|i| ((i as f64) * 0.3).sin()).collect());
                let features = extract_series_features(&series, config);
                assert_eq!(
                    features.len(),
                    config.n_features_for_length(len),
                    "config {} length {len}",
                    config.label()
                );
            }
        }
    }

    #[test]
    fn wide_config_appends_statistical_layer_after_graph_block() {
        let series = TimeSeries::new((0..256).map(|i| ((i as f64) * 0.17).sin()).collect());
        let graph_only = extract_series_features(&series, &FeatureConfig::mvg());
        let wide = extract_series_features(&series, &FeatureConfig::wide());
        assert_eq!(
            wide.len(),
            graph_only.len() + StatisticalConfig::standard().n_features()
        );
        // the graph prefix is bit-identical: the layer only appends
        assert_eq!(&wide[..graph_only.len()], &graph_only[..]);
        let names = FeatureConfig::wide().feature_names_for_length(256);
        assert!(names[graph_only.len()..]
            .iter()
            .all(|n| n.starts_with("stat ")));
    }

    #[test]
    fn selection_extracts_exactly_the_chosen_wide_columns() {
        let series = TimeSeries::new(
            (0..200)
                .map(|i| ((i as f64) * 0.21).sin() + 0.2 * ((i as f64) * 0.037).cos())
                .collect(),
        );
        let wide_config = FeatureConfig::wide();
        let wide = extract_series_features(&series, &wide_config);
        let wide_names = wide_config.feature_names_for_length(series.len());
        // every 7th column, covering motifs, graph stats and stat families
        let chosen: Vec<String> = wide_names.iter().step_by(7).cloned().collect();
        let pruned_config = FeatureConfig {
            selection: Some(FeatureSelection::new(chosen.clone())),
            ..FeatureConfig::wide()
        };
        let pruned = extract_series_features(&series, &pruned_config);
        assert_eq!(pruned.len(), chosen.len());
        for (i, name) in chosen.iter().enumerate() {
            let wide_idx = wide_names.iter().position(|n| n == name).unwrap();
            assert_eq!(
                pruned[i].to_bits(),
                wide[wide_idx].to_bits(),
                "column {name} differs"
            );
        }
        assert_eq!(pruned_config.feature_names_for_length(series.len()), chosen);
        assert_eq!(
            pruned_config.n_features_for_length(series.len()),
            chosen.len()
        );
    }

    #[test]
    fn selection_of_missing_scale_yields_zero_not_panic() {
        // scale T5 requires a long series; a short one must produce 0.0
        let selection =
            FeatureSelection::new(vec!["T0 VG P(M44)".to_string(), "T5 VG P(M44)".to_string()]);
        let config = FeatureConfig {
            selection: Some(selection),
            ..FeatureConfig::mvg()
        };
        let short = TimeSeries::new((0..40).map(|i| (i as f64 * 0.4).sin()).collect());
        let features = extract_series_features(&short, &config);
        assert_eq!(features.len(), 2);
        assert!(features[0] > 0.0);
        assert_eq!(features[1], 0.0);
    }

    #[test]
    fn known_feature_names_follow_the_catalogue() {
        let wide = FeatureConfig::wide();
        assert!(wide.is_known_feature_name("T0 VG P(M44)"));
        assert!(wide.is_known_feature_name("T7 HVG assortativity"));
        assert!(wide.is_known_feature_name("stat mean"));
        assert!(wide.is_known_feature_name("stat fft_mag_8"));
        assert!(!wide.is_known_feature_name("stat fft_mag_9"));
        assert!(!wide.is_known_feature_name("T0 VG bogus_feature"));
        assert!(!wide.is_known_feature_name("bogus"));
        assert!(!wide.is_known_feature_name("T999999999999999999999 VG P(M44)"));

        let mvg = FeatureConfig::mvg();
        assert!(!mvg.is_known_feature_name("stat mean"), "layer disabled");
        let uvg = FeatureConfig::uvg();
        assert!(uvg.is_known_feature_name("T0 VG P(M44)"));
        assert!(!uvg.is_known_feature_name("T1 VG P(M44)"), "uniscale");
        let mpds = FeatureConfig::uniscale_single(VisibilityKind::Horizontal, false);
        assert!(!mpds.is_known_feature_name("T0 HVG assortativity"));
        assert!(
            !mpds.is_known_feature_name("T0 VG P(M44)"),
            "kind not built"
        );
    }

    #[test]
    fn every_produced_name_parses_back_to_its_own_column() {
        let configs = [
            FeatureConfig::mvg(),
            FeatureConfig::wide(),
            FeatureConfig::uvg(),
            FeatureConfig::amvg(),
            FeatureConfig::uniscale_single(VisibilityKind::Horizontal, false),
            FeatureConfig {
                detrend: true,
                ..FeatureConfig::wide()
            },
        ];
        for config in &configs {
            for len in [8usize, 33, 140, 500] {
                let scales = config.scale_indices_for_length(len);
                for (i, name) in config.feature_names_for_length(len).iter().enumerate() {
                    let column = config.parse_feature_name(name).unwrap();
                    assert_eq!(
                        config.wide_position(column, &scales),
                        Some(i),
                        "config {} length {len}: {name}",
                        config.label()
                    );
                    assert!(config.is_known_feature_name(name), "{name}");
                }
            }
        }
    }

    #[test]
    fn validation_rejects_non_canonical_spellings() {
        let wide = FeatureConfig::wide();
        for name in [
            "T01 VG P(M44)",
            "T+1 VG P(M44)",
            "stat acf_01",
            "stat acf_+1",
        ] {
            let selection = FeatureSelection::new(vec![name.to_string()]);
            let err = selection.validate(&wide).unwrap_err();
            assert!(
                err.contains("not in the running catalogue"),
                "{name}: {err}"
            );
        }
        let canonical = FeatureSelection::new(vec!["T1 VG P(M44)".into(), "stat acf_1".into()]);
        assert!(canonical.validate(&wide).is_ok());
    }

    #[test]
    fn selection_validation_rejects_unknown_duplicate_and_empty() {
        let wide = FeatureConfig::wide();
        let ok = FeatureSelection::new(vec!["T0 VG P(M44)".into(), "stat mean".into()]);
        assert!(ok.validate(&wide).is_ok());
        let unknown = FeatureSelection::new(vec!["T0 VG nope".into()]);
        assert!(unknown
            .validate(&wide)
            .unwrap_err()
            .contains("not in the running catalogue"));
        let dup = FeatureSelection::new(vec!["stat mean".into(), "stat mean".into()]);
        assert!(dup.validate(&wide).unwrap_err().contains("duplicate"));
        let empty = FeatureSelection::new(vec![]);
        assert!(empty.validate(&wide).is_err());
    }

    #[test]
    fn legacy_debug_rendering_is_unchanged_for_pre_catalogue_configs() {
        // the fingerprint (and therefore snapshot compatibility) of every
        // pre-catalogue configuration depends on this exact rendering
        let rendered = format!("{:?}", FeatureConfig::uvg());
        assert!(!rendered.contains("statistical"), "{rendered}");
        assert!(!rendered.contains("selection"), "{rendered}");
        assert!(rendered.starts_with("FeatureConfig { kinds: [Natural, Horizontal]"));
        let wide = format!("{:?}", FeatureConfig::wide());
        assert!(wide.contains("statistical"), "{wide}");
    }

    #[test]
    fn labels_are_descriptive() {
        assert_eq!(FeatureConfig::mvg().label(), "MVG VG+HVG All");
        assert_eq!(FeatureConfig::uvg().label(), "UVG VG+HVG All");
        assert_eq!(
            FeatureConfig::uniscale_single(VisibilityKind::Horizontal, false).label(),
            "UVG HVG MPDs"
        );
    }

    #[test]
    fn mvg_has_more_features_than_uvg() {
        let len = 512;
        assert!(
            FeatureConfig::mvg().n_features_for_length(len)
                > FeatureConfig::uvg().n_features_for_length(len)
        );
        assert_eq!(
            FeatureConfig::mvg().n_features_for_length(len),
            FeatureConfig::uvg().n_features_for_length(len)
                + FeatureConfig::amvg().n_features_for_length(len)
        );
    }

    #[test]
    fn dataset_extraction_shapes() {
        let d = toy_dataset(5, 128);
        let config = FeatureConfig::mvg();
        let (x, names) = extract_dataset_features(&d, &config, 2);
        assert_eq!(x.n_rows(), d.len());
        assert_eq!(x.n_cols(), names.len());
        assert!(x.rows().all(|r| r.iter().all(|v| v.is_finite())));
    }

    #[test]
    fn extraction_is_deterministic_and_thread_count_invariant() {
        let d = toy_dataset(4, 128);
        let config = FeatureConfig::mvg();
        let (x1, _) = extract_dataset_features(&d, &config, 1);
        let (x4, _) = extract_dataset_features(&d, &config, 4);
        assert_eq!(x1, x4);
    }

    #[test]
    fn features_distinguish_structured_from_noise() {
        // mean absolute difference of class-wise feature means should be
        // clearly positive: the whole premise of the method
        let d = toy_dataset(8, 128);
        let (x, _) = extract_dataset_features(&d, &FeatureConfig::uvg(), 2);
        let labels = d.labels_required().unwrap();
        let n_cols = x.n_cols();
        let mut mean0 = vec![0.0; n_cols];
        let mut mean1 = vec![0.0; n_cols];
        let (mut c0, mut c1) = (0.0, 0.0);
        for (i, &l) in labels.iter().enumerate() {
            let target = if l == 0 {
                (&mut mean0, &mut c0)
            } else {
                (&mut mean1, &mut c1)
            };
            for (j, v) in x.row(i).iter().enumerate() {
                target.0[j] += v;
            }
            *target.1 += 1.0;
        }
        let diff: f64 = mean0
            .iter()
            .zip(mean1.iter())
            .map(|(a, b)| (a / c0 - b / c1).abs())
            .sum();
        assert!(diff > 0.1, "feature means barely differ: {diff}");
    }

    #[test]
    fn detrend_option_changes_features_of_trending_series() {
        let trending = TimeSeries::new(
            (0..256)
                .map(|i| 0.05 * i as f64 + ((i as f64) * 0.3).sin())
                .collect(),
        );
        let plain = FeatureConfig::uvg();
        let detrended = FeatureConfig {
            detrend: true,
            ..FeatureConfig::uvg()
        };
        let f_plain = extract_series_features(&trending, &plain);
        let f_detr = extract_series_features(&trending, &detrended);
        assert_ne!(f_plain, f_detr);
    }
}
