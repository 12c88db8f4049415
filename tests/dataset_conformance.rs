//! Golden-fixture conformance suite for the `DatasetSource` pipeline.
//!
//! A split can reach feature extraction four ways: eager synthesis,
//! instance-at-a-time streaming, the on-disk cache, and a real UCR directory
//! tree (itself written by the hardened text writer). Feature-based
//! pipelines live or die on exact ingestion — an archive-parsing or
//! normalisation discrepancy silently changes every reported accuracy — so
//! this suite pins all four paths against each other **bit-for-bit**: same
//! feature matrices (raw `f64` bit patterns), same labels, and same
//! `MvgClassifier` predictions *and* probabilities, for three catalogue
//! datasets covering every fixture layout (nested/flat, extension-less /
//! `.txt` / `.tsv`, comma/tab) plus the NaN-padded variable-length and
//! label-edge-case fixtures.

use std::path::PathBuf;
use tsc_mvg::datasets::archive::ArchiveOptions;
use tsc_mvg::datasets::cache::CACHE_DIR_ENV;
use tsc_mvg::datasets::fixture::{write_ucr_fixture_tree, LABELS_FIXTURE, VARLEN_FIXTURE};
use tsc_mvg::datasets::{DatasetSource, SourceKind, Split};
use tsc_mvg::ml::gbt::GradientBoostingParams;
use tsc_mvg::ml::FeatureMatrix;
use tsc_mvg::mvg::{
    extract_dataset_features, extract_features_streaming, ClassifierChoice, FeatureConfig,
    MvgClassifier, MvgConfig,
};
use tsc_mvg::ts::Dataset;

/// The catalogue datasets under conformance (≥ 3, spanning all four fixture
/// layout/extension/separator combinations via the rotation in
/// `tsg_datasets::fixture`).
const DATASETS: [&str; 4] = ["BeetleFly", "Wine", "Herring", "Meat"];

fn options() -> ArchiveOptions {
    ArchiveOptions::bounded(10, 64, 11)
}

/// The cache test mutates the process-wide `CACHE_DIR_ENV` while sibling
/// tests would otherwise run concurrently (and call `getenv` via
/// `std::env::temp_dir`, racing the `setenv`). Every test in this binary
/// takes this lock, so environment mutation is always exclusive.
static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Sets `CACHE_DIR_ENV` for the caller's scope and removes it on drop, so a
/// panicking assertion cannot leak a deleted temp directory into later tests.
struct CacheDirGuard;

impl CacheDirGuard {
    fn set(dir: &std::path::Path) -> Self {
        std::env::set_var(CACHE_DIR_ENV, dir);
        CacheDirGuard
    }
}

impl Drop for CacheDirGuard {
    fn drop(&mut self) {
        std::env::remove_var(CACHE_DIR_ENV);
    }
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

/// Extracts a split both eagerly and through the streaming path of `source`,
/// asserting the two agree bit-for-bit, and returns the eager bits.
fn extract_both_ways(
    source: &DatasetSource,
    name: &str,
    split: Split,
    eager: &Dataset,
    config: &FeatureConfig,
    label: &str,
) -> Vec<Vec<u64>> {
    let (matrix, names) = extract_dataset_features(eager, config, 2);
    let stream = source
        .open_split(name, split)
        .unwrap_or_else(|e| panic!("[{label}] open {name} {split:?}: {e}"));
    assert_eq!(stream.n_instances(), eager.len(), "[{label}] {name}");
    assert_eq!(stream.max_length(), eager.max_length(), "[{label}] {name}");
    let streamed = extract_features_streaming(stream, eager.max_length(), config, 2)
        .unwrap_or_else(|e| panic!("[{label}] stream {name} {split:?}: {e}"));
    assert_eq!(streamed.names, names, "[{label}] {name}");
    assert_eq!(streamed.labels, eager.labels(), "[{label}] {name}");
    let bits = matrix_bits(&matrix);
    assert_eq!(
        matrix_bits(&streamed.features),
        bits,
        "[{label}] streaming != eager for {name} {split:?}"
    );
    bits
}

#[test]
fn streaming_eager_cached_and_real_paths_are_bit_identical() {
    let _env = ENV_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let fixture_root = temp_dir("fixture");
    let cache_root = temp_dir("cache");
    // route the dataset cache into a private directory for this test only
    let _cache_dir = CacheDirGuard::set(&cache_root);
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

        // --- path 2: the on-disk cache (first call writes, second reads) --
        let cached_source = DatasetSource::cached(options());
        let first = cached_source.resolve(name).unwrap();
        assert_eq!(first.kind(), SourceKind::Cached, "{name}");
        let cached = cached_source.resolve(name).unwrap();
        assert_eq!(cached.kind(), SourceKind::Cached, "{name}");
        assert!(cached.train_provenance.content_hash.is_some());
        assert_eq!(
            extract_both_ways(
                &cached_source,
                name,
                Split::Train,
                &cached.train,
                &config,
                "cached"
            ),
            train_bits,
            "cached != synthetic for {name} train"
        );
        assert_eq!(
            extract_both_ways(
                &cached_source,
                name,
                Split::Test,
                &cached.test,
                &config,
                "cached"
            ),
            test_bits,
            "cached != synthetic for {name} test"
        );

        // --- path 3: real UCR files written by the golden fixture ---------
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
        for (label, pair) in [("cached", &cached), ("real", &real)] {
            let mut clf = MvgClassifier::new(classifier_config(config.clone()));
            clf.fit(&pair.train).unwrap();
            assert_eq!(
                clf.predict(&pair.test).unwrap(),
                pred_synthetic,
                "[{label}] predictions diverge for {name}"
            );
            assert_eq!(
                proba_bits(&clf.predict_proba(&pair.test).unwrap()),
                proba_bits(&proba_synthetic),
                "[{label}] probabilities diverge for {name}"
            );
        }
    }

    std::fs::remove_dir_all(&fixture_root).ok();
    std::fs::remove_dir_all(&cache_root).ok();
}

#[test]
fn variable_length_nan_padded_fixture_streams_identically() {
    let _env = ENV_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let fixture_root = temp_dir("varlen");
    write_ucr_fixture_tree(&fixture_root, &[], options(), true).expect("fixture tree");
    let source = DatasetSource::synthetic(options()).with_ucr_dir(&fixture_root);
    let resolved = source.resolve(VARLEN_FIXTURE).unwrap();
    assert_eq!(resolved.kind(), SourceKind::Real);
    assert!(
        !resolved.train.is_uniform_length(),
        "fixture must exercise NaN padding"
    );
    // rows shorter than the longest series are zero-padded identically on
    // both paths; width comes from the advertised max length
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
    let _env = ENV_LOCK.lock().unwrap_or_else(|p| p.into_inner());
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
    let _env = ENV_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let fixture_root = temp_dir("labels");
    write_ucr_fixture_tree(&fixture_root, &[], options(), true).expect("fixture tree");
    let source = DatasetSource::synthetic(options()).with_ucr_dir(&fixture_root);
    let resolved = source.resolve(LABELS_FIXTURE).unwrap();
    // raw labels 5, -2, 5, 9 → 0, 1, 0, 2 by first appearance in TRAIN
    assert_eq!(resolved.train.labels_required().unwrap(), vec![0, 1, 0, 2]);
    // TEST lists -2, 9 first, but shares TRAIN's label table: indices 1, 2
    // (a per-file remap would say 0, 1 and silently permute every score)
    assert_eq!(resolved.test.labels_required().unwrap(), vec![1, 2]);
    for (split, eager, expected) in [
        (Split::Train, &resolved.train, vec![0usize, 1, 0, 2]),
        (Split::Test, &resolved.test, vec![1, 2]),
    ] {
        let stream = source.open_split(LABELS_FIXTURE, split).unwrap();
        let streamed =
            extract_features_streaming(stream, eager.max_length(), &FeatureConfig::uvg(), 2)
                .unwrap();
        assert_eq!(streamed.labels_required().unwrap(), expected, "{split:?}");
    }
    std::fs::remove_dir_all(&fixture_root).ok();
}
