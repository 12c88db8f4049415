//! Shared experiment runners used by the per-table binaries.

use crate::RunOptions;
use tsg_baselines::{
    FastShapelets, FastShapeletsParams, LearningShapelets, LearningShapeletsParams, NnClassifier,
    NnDistance, SaxVsm, SaxVsmParams, TscClassifier,
};
use tsg_core::{ClassifierChoice, FeatureConfig, MvgClassifier, MvgConfig};
use tsg_datasets::{DatasetSpec, ResolvedPair};
use tsg_eval::Stopwatch;
use tsg_ml::gbt::GradientBoostingParams;
use tsg_ts::Dataset;

/// Result of running one method on one dataset.
#[derive(Debug, Clone)]
pub struct MethodResult {
    /// Method label (table column).
    pub method: String,
    /// Test error rate.
    pub error_rate: f64,
    /// Feature-extraction seconds (MVG only; 0 otherwise).
    pub feature_seconds: f64,
    /// Training + prediction seconds.
    pub classify_seconds: f64,
}

impl MethodResult {
    /// Total runtime in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.feature_seconds + self.classify_seconds
    }
}

/// Resolves the `(train, test)` splits for a spec through the run's
/// [`tsg_datasets::DatasetSource`]: a real UCR directory (`--ucr-dir` /
/// `TSG_UCR_DIR`) when it holds the pair, otherwise synthesis. The returned
/// [`ResolvedPair`] carries per-split provenance, which the binaries print
/// and embed in their artefacts.
///
/// A present-but-malformed real pair aborts the run (loading different data
/// than the user pointed at would silently change every reported number).
pub fn load_dataset(spec: &DatasetSpec, options: &RunOptions) -> ResolvedPair {
    options
        .dataset_source()
        .resolve(spec.name)
        .unwrap_or_else(|e| panic!("failed to load dataset `{}`: {e}", spec.name))
}

/// The default boosting parameters used across experiment binaries (a fixed,
/// modest configuration so runs finish in reasonable time; `--full` runs can
/// switch to the grid with [`mvg_grid_config`]).
pub fn default_boosting() -> GradientBoostingParams {
    GradientBoostingParams {
        n_estimators: 40,
        learning_rate: 0.2,
        max_depth: 4,
        subsample: 0.5,
        colsample_bytree: 0.5,
        ..Default::default()
    }
}

/// MVG configuration with a fixed booster and the given feature config.
/// `n_threads = 0` uses the process-wide default pool.
pub fn mvg_fixed_config(features: FeatureConfig, seed: u64, n_threads: usize) -> MvgConfig {
    MvgConfig {
        features,
        classifier: ClassifierChoice::GradientBoosting(default_boosting()),
        oversample: true,
        n_threads: tsg_parallel::resolve_threads(n_threads),
        seed,
    }
}

/// MVG configuration with the paper's cross-validated grid search.
/// `n_threads = 0` uses the process-wide default pool.
pub fn mvg_grid_config(features: FeatureConfig, seed: u64, n_threads: usize) -> MvgConfig {
    MvgConfig {
        features,
        classifier: ClassifierChoice::GradientBoostingGrid,
        oversample: true,
        n_threads: tsg_parallel::resolve_threads(n_threads),
        seed,
    }
}

/// Runs one MVG configuration on one dataset and reports error rate plus the
/// feature-extraction / classification runtime split of Table 3.
pub fn run_mvg(label: &str, config: MvgConfig, train: &Dataset, test: &Dataset) -> MethodResult {
    let mut stopwatch = Stopwatch::new();
    let mut clf = MvgClassifier::new(config);
    // time extraction separately by extracting once up front (the classifier
    // re-extracts internally; the second extraction is what we time as FE)
    stopwatch.time("feature_extraction", || {
        let _ = clf.extract_features(train);
        let _ = clf.extract_features(test);
    });
    let error_rate = stopwatch.time("classification", || {
        clf.fit(train).expect("MVG training failed");
        clf.error_rate(test).expect("MVG prediction failed")
    });
    MethodResult {
        method: label.to_string(),
        error_rate,
        feature_seconds: stopwatch.seconds("feature_extraction"),
        classify_seconds: stopwatch.seconds("classification")
            - stopwatch
                .seconds("feature_extraction")
                .min(stopwatch.seconds("classification")),
    }
}

/// Runs a baseline classifier on one dataset.
pub fn run_baseline(
    classifier: &mut dyn TscClassifier,
    train: &Dataset,
    test: &Dataset,
) -> MethodResult {
    let mut stopwatch = Stopwatch::new();
    let error_rate = stopwatch.time("classification", || {
        classifier.fit(train).expect("baseline training failed");
        classifier
            .error_rate(test)
            .expect("baseline prediction failed")
    });
    MethodResult {
        method: classifier.name(),
        error_rate,
        feature_seconds: 0.0,
        classify_seconds: stopwatch.seconds("classification"),
    }
}

/// Builds the five baseline classifiers of Table 3.
pub fn table3_baselines(seed: u64) -> Vec<Box<dyn TscClassifier>> {
    vec![
        Box::new(NnClassifier::new(NnDistance::Euclidean)),
        Box::new(NnClassifier::new(NnDistance::Dtw {
            window_fraction: Some(0.1),
        })),
        Box::new(LearningShapelets::new(LearningShapeletsParams {
            n_iterations: 60,
            ..Default::default()
        })),
        Box::new(FastShapelets::new(FastShapeletsParams {
            seed,
            ..Default::default()
        })),
        Box::new(SaxVsm::new(SaxVsmParams::default())),
    ]
}

/// The seven heuristic configurations (columns A–G) of Table 2.
pub fn table2_configurations() -> Vec<(char, FeatureConfig)> {
    use tsg_graph::visibility::VisibilityKind;
    vec![
        (
            'A',
            FeatureConfig::uniscale_single(VisibilityKind::Horizontal, false),
        ),
        (
            'B',
            FeatureConfig::uniscale_single(VisibilityKind::Horizontal, true),
        ),
        (
            'C',
            FeatureConfig::uniscale_single(VisibilityKind::Natural, false),
        ),
        (
            'D',
            FeatureConfig::uniscale_single(VisibilityKind::Natural, true),
        ),
        ('E', FeatureConfig::uvg()),
        ('F', FeatureConfig::amvg()),
        ('G', FeatureConfig::mvg()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsg_datasets::archive::{spec_by_name, ArchiveOptions};

    fn tiny_options() -> RunOptions {
        RunOptions {
            archive: ArchiveOptions::bounded(12, 96, 3),
            ..Default::default()
        }
    }

    #[test]
    fn mvg_runner_produces_sane_result() {
        let spec = spec_by_name("BeetleFly").unwrap();
        let loaded = load_dataset(spec, &tiny_options());
        let result = run_mvg(
            "MVG",
            mvg_fixed_config(FeatureConfig::uvg(), 1, 2),
            &loaded.train,
            &loaded.test,
        );
        assert!((0.0..=1.0).contains(&result.error_rate));
        assert!(result.feature_seconds >= 0.0);
        assert!(result.total_seconds() > 0.0);
    }

    #[test]
    fn baseline_runner_produces_sane_result() {
        let spec = spec_by_name("BeetleFly").unwrap();
        let loaded = load_dataset(spec, &tiny_options());
        assert_eq!(
            loaded.train_provenance.kind, loaded.test_provenance.kind,
            "splits of one dataset resolve from the same place"
        );
        let mut nn = NnClassifier::new(NnDistance::Euclidean);
        let result = run_baseline(&mut nn, &loaded.train, &loaded.test);
        assert_eq!(result.method, "1NN-ED");
        assert!((0.0..=1.0).contains(&result.error_rate));
    }

    #[test]
    fn table2_has_seven_configurations() {
        let configs = table2_configurations();
        assert_eq!(configs.len(), 7);
        let labels: Vec<char> = configs.iter().map(|(c, _)| *c).collect();
        assert_eq!(labels, vec!['A', 'B', 'C', 'D', 'E', 'F', 'G']);
        assert_eq!(configs[6].1.label(), "MVG VG+HVG All");
    }

    #[test]
    fn table3_has_five_baselines() {
        let baselines = table3_baselines(0);
        assert_eq!(baselines.len(), 5);
        let names: Vec<String> = baselines.iter().map(|b| b.name()).collect();
        assert!(names.iter().any(|n| n.contains("1NN-ED")));
        assert!(names.iter().any(|n| n.contains("DTW")));
        assert!(names.iter().any(|n| n.contains("Shapelets")));
        assert!(names.iter().any(|n| n.contains("SAX")));
    }
}
