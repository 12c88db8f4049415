//! Integration tests for the qualitative behaviour the paper relies on:
//! datasets built to favour one method family should indeed favour it, and
//! the graph representation invariants must survive the full pipeline.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tsc_mvg::baselines::{
    FastShapelets, FastShapeletsParams, NnClassifier, NnDistance, TscClassifier,
};
use tsc_mvg::graph::motifs::count_motifs;
use tsc_mvg::graph::visibility::{horizontal_visibility_graph, visibility_graph};
use tsc_mvg::ml::gbt::GradientBoostingParams;
use tsc_mvg::mvg::{
    motif_probability_distribution, ClassifierChoice, FeatureConfig, MvgClassifier, MvgConfig,
};
use tsc_mvg::ts::{generators, Dataset, TimeSeries};

fn fast_mvg() -> MvgClassifier {
    MvgClassifier::new(MvgConfig {
        features: FeatureConfig::mvg(),
        classifier: ClassifierChoice::GradientBoosting(GradientBoostingParams {
            n_estimators: 30,
            max_depth: 3,
            learning_rate: 0.25,
            subsample: 0.8,
            colsample_bytree: 0.8,
            ..Default::default()
        }),
        oversample: true,
        n_threads: 2,
        seed: 1,
    })
}

/// Classes that differ by dynamics (chaotic map vs coloured noise) — exactly
/// the case the visibility-graph literature motivates: global shape is
/// useless, structure matters.
fn structural_dataset(n_per_class: usize, length: usize, seed: u64) -> Dataset {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut d = Dataset::new("structural");
    for i in 0..n_per_class * 2 {
        let label = i % 2;
        let values = if label == 0 {
            generators::logistic_map(&mut rng, length, 4.0, 0.0)
        } else {
            let noise = generators::ar1(&mut rng, length, 0.5, 0.3);
            noise.iter().map(|v| 0.5 + v).collect()
        };
        d.push(TimeSeries::with_label(values, label));
    }
    d
}

#[test]
fn graph_features_separate_chaotic_from_stochastic() {
    let train = structural_dataset(12, 200, 1);
    let test = structural_dataset(10, 200, 2);
    let mut clf = fast_mvg();
    clf.fit(&train).unwrap();
    let mvg_acc = clf.score(&test).unwrap();
    assert!(
        mvg_acc >= 0.9,
        "graph features should nail chaos vs noise, got {mvg_acc}"
    );
}

#[test]
fn hvg_motif_distributions_differ_between_noise_and_chaos() {
    // the claim of Iacovacci & Lacasa the paper builds on: HVG motif
    // statistics distinguish white noise from the fully chaotic logistic map
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let noise = generators::gaussian_noise(&mut rng, 600, 1.0);
    let chaos = generators::logistic_map(&mut rng, 600, 4.0, 0.0);
    let mpd_noise =
        motif_probability_distribution(&count_motifs(&horizontal_visibility_graph(&noise)));
    let mpd_chaos =
        motif_probability_distribution(&count_motifs(&horizontal_visibility_graph(&chaos)));
    let l1: f64 = mpd_noise
        .iter()
        .zip(mpd_chaos.iter())
        .map(|(a, b)| (a - b).abs())
        .sum();
    assert!(l1 > 0.05, "motif profiles should differ, L1 = {l1}");
}

#[test]
fn alignment_nuisance_hurts_euclidean_more_than_graph_features() {
    // classes differ by dynamics; instances are randomly time-shifted copies.
    // 1NN-ED is sensitive to the misalignment, the graph features are not.
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let make = |rng: &mut ChaCha8Rng, label: usize| {
        let body = if label == 0 {
            generators::fractional_noise(rng, 256, 0.85)
        } else {
            generators::fractional_noise(rng, 256, 0.3)
        };
        TimeSeries::with_label(body, label)
    };
    let mut train = Dataset::new("rough");
    let mut test = Dataset::new("rough");
    for i in 0..28 {
        train.push(make(&mut rng, i % 2));
    }
    for i in 0..20 {
        test.push(make(&mut rng, i % 2));
    }
    let mut clf = fast_mvg();
    clf.fit(&train).unwrap();
    let mvg_err = clf.error_rate(&test).unwrap();
    let mut nn = NnClassifier::new(NnDistance::Euclidean);
    nn.fit(&train).unwrap();
    let nn_err = nn.error_rate(&test).unwrap();
    assert!(
        mvg_err <= nn_err + 0.101,
        "graph features (err {mvg_err}) should not trail far behind 1NN-ED (err {nn_err}) on roughness classes"
    );
    assert!(mvg_err < 0.35, "MVG error {mvg_err}");
}

#[test]
fn shapelet_dataset_is_learnable_by_fast_shapelets_and_mvg() {
    // a dataset defined purely by a local pattern: the shapelet baseline must
    // do well, and MVG should remain competitive (its HVG features are local)
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let make = |rng: &mut ChaCha8Rng, label: usize| {
        let background = generators::gaussian_noise(rng, 128, 0.3);
        let pattern = if label == 0 {
            generators::bump_pattern(24)
        } else {
            generators::sawtooth_pattern(24)
        };
        TimeSeries::with_label(
            generators::inject_pattern(rng, background, &pattern, 4.0),
            label,
        )
    };
    let mut train = Dataset::new("shapelet");
    let mut test = Dataset::new("shapelet");
    for i in 0..24 {
        train.push(make(&mut rng, i % 2));
    }
    for i in 0..20 {
        test.push(make(&mut rng, i % 2));
    }
    let mut fs = FastShapelets::new(FastShapeletsParams {
        candidates_per_length: 25,
        seed: 2,
        ..Default::default()
    });
    fs.fit(&train).unwrap();
    let fs_err = fs.error_rate(&test).unwrap();
    assert!(fs_err <= 0.45, "FastShapelets error {fs_err}");
    let mut clf = fast_mvg();
    clf.fit(&train).unwrap();
    let mvg_err = clf.error_rate(&test).unwrap();
    assert!(mvg_err < 0.5, "MVG error {mvg_err}");
}

#[test]
fn visibility_invariants_hold_on_archive_series() {
    let (train, _) = tsc_mvg::datasets::archive::generate_by_name_scaled(
        "Herring",
        tsc_mvg::datasets::archive::ArchiveOptions::bounded(8, 128, 4),
    )
    .unwrap();
    for series in train.series() {
        let vg = visibility_graph(series.values());
        let hvg = horizontal_visibility_graph(series.values());
        assert!(hvg.is_subgraph_of(&vg));
        // both graphs contain the path 0–1–…–(n−1), so they are connected
        for i in 0..series.len() - 1 {
            assert!(vg.has_edge(i, i + 1));
            assert!(hvg.has_edge(i, i + 1));
        }
        let counts = count_motifs(&vg);
        let n = vg.n_vertices() as u64;
        assert_eq!(counts.total_size4(), n * (n - 1) * (n - 2) * (n - 3) / 24);
    }
}
