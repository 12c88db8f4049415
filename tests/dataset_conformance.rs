//! Golden-fixture conformance suite for the `DatasetSource` pipeline.
//!
//! A split can come from in-memory synthesis or from a real UCR directory
//! tree (itself written by the hardened text writer), resolved as half of a
//! pair or on its own. Feature-based pipelines live or die on exact
//! ingestion — an archive-parsing or normalisation discrepancy silently
//! changes every reported accuracy — so this suite pins all of these
//! against each other **bit-for-bit**: same series, same feature matrices
//! (raw `f64` bit patterns), same labels, and same `MvgClassifier`
//! predictions *and* probabilities, for catalogue datasets covering every
//! fixture layout (nested/flat, extension-less / `.txt` / `.tsv`,
//! comma/tab) plus the NaN-padded variable-length and label-edge-case
//! fixtures.

use std::path::PathBuf;
use tsc_mvg::datasets::archive::ArchiveOptions;
use tsc_mvg::datasets::fixture::{write_ucr_fixture_tree, LABELS_FIXTURE, VARLEN_FIXTURE};
use tsc_mvg::datasets::{DatasetSource, SourceKind, Split};
use tsc_mvg::ml::gbt::GradientBoostingParams;
use tsc_mvg::ml::FeatureMatrix;
use tsc_mvg::mvg::{
    extract_dataset_features, ClassifierChoice, FeatureConfig, MvgClassifier, MvgConfig,
};
use tsc_mvg::ts::Dataset;

/// The catalogue datasets under conformance (≥ 3, spanning all four fixture
/// layout/extension/separator combinations via the rotation in
/// `tsg_datasets::fixture`).
const DATASETS: [&str; 4] = ["BeetleFly", "Wine", "Herring", "Meat"];

fn options() -> ArchiveOptions {
    ArchiveOptions::bounded(10, 64, 11)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tsg-conformance-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn matrix_bits(m: &FeatureMatrix) -> Vec<Vec<u64>> {
    m.rows()
        .map(|row| row.iter().map(|v| v.to_bits()).collect())
        .collect()
}

fn proba_bits(table: &[Vec<f64>]) -> Vec<Vec<u64>> {
    table
        .iter()
        .map(|row| row.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// Feature config under test: BeetleFly runs the paper's full MVG cascade,
/// the rest the cheaper uniscale config (both exercise the row layout and
/// naming).
fn feature_config(name: &str) -> FeatureConfig {
    if name == "BeetleFly" {
        FeatureConfig::mvg()
    } else {
        FeatureConfig::uvg()
    }
}

/// A small fixed-booster classifier configuration (deterministic, fast).
fn classifier_config(features: FeatureConfig) -> MvgConfig {
    MvgConfig {
        features,
        classifier: ClassifierChoice::GradientBoosting(GradientBoostingParams {
            n_estimators: 15,
            max_depth: 3,
            learning_rate: 0.3,
            ..Default::default()
        }),
        oversample: true,
        n_threads: 2,
        seed: 11,
    }
}

/// Asserts that `source` resolves `split` on its own exactly as `eager`, the
/// same half of its resolved pair, and returns the bits of `eager`'s
/// feature matrix.
fn extract_both_ways(
    source: &DatasetSource,
    name: &str,
    split: Split,
    eager: &Dataset,
    config: &FeatureConfig,
    label: &str,
) -> Vec<Vec<u64>> {
    let (single, _) = source
        .resolve_split(name, split)
        .unwrap_or_else(|e| panic!("[{label}] resolve {name} {split:?}: {e}"));
    assert_eq!(
        &single, eager,
        "[{label}] resolve_split != resolve for {name} {split:?}"
    );
    matrix_bits(&extract_dataset_features(eager, config, 2).0)
}

#[test]
fn streaming_eager_cached_and_real_paths_are_bit_identical() {
    let fixture_root = temp_dir("fixture");
    write_ucr_fixture_tree(&fixture_root, &DATASETS, options(), false).expect("fixture tree");

    for name in DATASETS {
        let config = feature_config(name);

        // --- path 1: eager in-memory synthesis (the reference) -----------
        let synthetic_source = DatasetSource::synthetic(options());
        let reference = synthetic_source.resolve(name).unwrap();
        assert_eq!(reference.kind(), SourceKind::Synthetic, "{name}");
        let train_bits = extract_both_ways(
            &synthetic_source,
            name,
            Split::Train,
            &reference.train,
            &config,
            "synthetic",
        );
        let test_bits = extract_both_ways(
            &synthetic_source,
            name,
            Split::Test,
            &reference.test,
            &config,
            "synthetic",
        );

        // --- path 2: real UCR files written by the golden fixture ---------
        let real_source = DatasetSource::synthetic(options()).with_ucr_dir(&fixture_root);
        let real = real_source.resolve(name).unwrap();
        assert_eq!(real.kind(), SourceKind::Real, "{name}");
        assert!(real.train_provenance.path.is_some(), "{name}");
        assert_eq!(
            extract_both_ways(
                &real_source,
                name,
                Split::Train,
                &real.train,
                &config,
                "real"
            ),
            train_bits,
            "real != synthetic for {name} train"
        );
        assert_eq!(
            extract_both_ways(&real_source, name, Split::Test, &real.test, &config, "real"),
            test_bits,
            "real != synthetic for {name} test"
        );

        // --- classifier conformance: identical predictions & probabilities
        let mut clf_synthetic = MvgClassifier::new(classifier_config(config.clone()));
        clf_synthetic.fit(&reference.train).unwrap();
        let pred_synthetic = clf_synthetic.predict(&reference.test).unwrap();
        let proba_synthetic = clf_synthetic.predict_proba(&reference.test).unwrap();
        let mut clf = MvgClassifier::new(classifier_config(config.clone()));
        clf.fit(&real.train).unwrap();
        assert_eq!(
            clf.predict(&real.test).unwrap(),
            pred_synthetic,
            "[real] predictions diverge for {name}"
        );
        assert_eq!(
            proba_bits(&clf.predict_proba(&real.test).unwrap()),
            proba_bits(&proba_synthetic),
            "[real] probabilities diverge for {name}"
        );
    }

    std::fs::remove_dir_all(&fixture_root).ok();
}

#[test]
fn variable_length_nan_padded_fixture_streams_identically() {
    let fixture_root = temp_dir("varlen");
    write_ucr_fixture_tree(&fixture_root, &[], options(), true).expect("fixture tree");
    let source = DatasetSource::synthetic(options()).with_ucr_dir(&fixture_root);
    let resolved = source.resolve(VARLEN_FIXTURE).unwrap();
    assert_eq!(resolved.kind(), SourceKind::Real);
    assert!(
        !resolved.train.is_uniform_length(),
        "fixture must exercise NaN padding"
    );
    // both resolutions of each split hold the same NaN-stripped series
    let config = FeatureConfig::uvg();
    for (split, eager) in [
        (Split::Train, &resolved.train),
        (Split::Test, &resolved.test),
    ] {
        extract_both_ways(&source, VARLEN_FIXTURE, split, eager, &config, "varlen");
    }
    std::fs::remove_dir_all(&fixture_root).ok();
}

#[test]
fn variable_length_fixture_trains_wide_rows_laid_out_by_name() {
    let fixture_root = temp_dir("varlen-wide");
    write_ucr_fixture_tree(&fixture_root, &[], options(), true).expect("fixture tree");
    let source = DatasetSource::synthetic(options()).with_ucr_dir(&fixture_root);
    let train = source.resolve(VARLEN_FIXTURE).unwrap().train;
    let config = FeatureConfig::wide();
    let mut scale_counts: Vec<usize> = train
        .series()
        .iter()
        .map(|s| config.n_scales_for_length(s.len()))
        .collect();
    scale_counts.dedup();
    assert!(
        scale_counts.len() > 1,
        "lengths must span several scale counts"
    );
    // the matrix the fit trains on, and the rows the fitted model extracts
    let (matrix, names) = extract_dataset_features(&train, &config, 2);
    let mut clf = MvgClassifier::new(classifier_config(config));
    clf.fit(&train).unwrap();
    assert_eq!(clf.feature_names(), names.as_slice());
    let (rows, _) = clf.extract_features(&train);
    assert_eq!(matrix_bits(&rows), matrix_bits(&matrix));
    let mean_column = names.iter().position(|n| n == "stat mean").unwrap();
    for (i, series) in train.series().iter().enumerate() {
        let mean = series.values().iter().sum::<f64>() / series.len() as f64;
        let got = matrix.get(i, mean_column);
        assert!(
            (got - mean).abs() < 1e-12,
            "series {i} (length {}): `stat mean` holds {got}, not {mean}",
            series.len()
        );
    }
    std::fs::remove_dir_all(&fixture_root).ok();
}

#[test]
fn label_edge_case_fixture_remaps_consistently_across_paths() {
    let fixture_root = temp_dir("labels");
    write_ucr_fixture_tree(&fixture_root, &[], options(), true).expect("fixture tree");
    let source = DatasetSource::synthetic(options()).with_ucr_dir(&fixture_root);
    let resolved = source.resolve(LABELS_FIXTURE).unwrap();
    // raw labels 5, -2, 5, 9 → 0, 1, 0, 2 by first appearance in TRAIN
    assert_eq!(resolved.train.labels_required().unwrap(), vec![0, 1, 0, 2]);
    // TEST lists -2, 9 first, but shares TRAIN's label table: indices 1, 2
    // (a per-file remap would say 0, 1 and silently permute every score)
    assert_eq!(resolved.test.labels_required().unwrap(), vec![1, 2]);
    for (split, expected) in [
        (Split::Train, vec![0usize, 1, 0, 2]),
        (Split::Test, vec![1, 2]),
    ] {
        let (single, _) = source.resolve_split(LABELS_FIXTURE, split).unwrap();
        assert_eq!(single.labels_required().unwrap(), expected, "{split:?}");
    }
    std::fs::remove_dir_all(&fixture_root).ok();
}
