//! Determinism harness: parallel == serial, bit for bit.
//!
//! The worker pool (`tsg_parallel::ThreadPool`) drives feature extraction,
//! grid search, random-forest tree fitting and the stacking ensemble. Every
//! one of those stages must produce *bit-identical* output for every thread
//! count — parallelism is an implementation detail that may never leak into
//! results. Each test below runs one stage with `n_threads ∈ {1, 2, 7}` and
//! compares raw `f64` bit patterns against the serial run.

use tsc_mvg::datasets::archive::{generate_by_name_scaled, ArchiveOptions};
use tsc_mvg::datasets::DatasetSource;
use tsc_mvg::graph::motifs::{count_motifs_with, MotifWorkspace};
use tsc_mvg::graph::visibility::{horizontal_visibility_graph, visibility_graph};
use tsc_mvg::ml::forest::{RandomForest, RandomForestParams};
use tsc_mvg::ml::gbt::{GradientBoosting, GradientBoostingParams};
use tsc_mvg::ml::stacking::{StackingEnsemble, StackingParams};
use tsc_mvg::ml::svm::{SvmClassifier, SvmKernel, SvmParams};
use tsc_mvg::ml::traits::Classifier;
use tsc_mvg::ml::tree::{DecisionTree, DecisionTreeParams};
use tsc_mvg::ml::{FeatureMatrix, GridSearch};
use tsc_mvg::mvg::{
    extract_dataset_features, extract_series_features_traced, ClassifierChoice, FeatureConfig,
    MvgClassifier, MvgConfig, NoopTraceSink,
};

const THREAD_COUNTS: [usize; 3] = [1, 2, 7];

/// Raw bit patterns of a probability/feature table; equality here is
/// stricter than `==` on floats (it distinguishes `-0.0` from `0.0` and
/// never treats NaN specially).
fn bits(table: &[Vec<f64>]) -> Vec<Vec<u64>> {
    table
        .iter()
        .map(|row| row.iter().map(|v| v.to_bits()).collect())
        .collect()
}

fn matrix_bits(m: &FeatureMatrix) -> Vec<Vec<u64>> {
    m.rows()
        .map(|row| row.iter().map(|v| v.to_bits()).collect())
        .collect()
}

fn labeled_features() -> (FeatureMatrix, Vec<usize>) {
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    let mut state = 77u64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
    };
    for i in 0..72 {
        let label = i % 3;
        rows.push(vec![
            label as f64 * 2.0 + next() * 0.7,
            next(),
            label as f64 - next() * 0.4,
        ]);
        labels.push(label);
    }
    (FeatureMatrix::from_rows(&rows).unwrap(), labels)
}

#[test]
fn feature_extraction_is_bit_identical_across_thread_counts() {
    let (train, _) = generate_by_name_scaled("BeetleFly", ArchiveOptions::bounded(10, 128, 5))
        .expect("catalogue dataset");
    let config = FeatureConfig::mvg();
    let (reference, names) = extract_dataset_features(&train, &config, 1);
    assert!(!names.is_empty());
    for n_threads in THREAD_COUNTS {
        let (features, _) = extract_dataset_features(&train, &config, n_threads);
        assert_eq!(
            matrix_bits(&features),
            matrix_bits(&reference),
            "n_threads = {n_threads}"
        );
    }
}

#[test]
fn catalogue_wide_and_pruned_extraction_are_bit_identical_across_thread_counts() {
    // The tiered catalogue adds a statistical layer to the wide vector and
    // a column-pruned extraction path; both must stay bit-identical for
    // every thread count, and the pruned columns must be the *same bits*
    // as the corresponding wide columns.
    use tsc_mvg::mvg::FeatureSelection;
    let (train, _) = generate_by_name_scaled("BeetleFly", ArchiveOptions::bounded(10, 128, 5))
        .expect("catalogue dataset");
    let wide = FeatureConfig::wide();
    let (wide_ref, wide_names) = extract_dataset_features(&train, &wide, 1);
    assert!(wide_names.iter().any(|n| n.starts_with("stat ")));

    let selected: Vec<String> = wide_names.iter().step_by(7).cloned().collect();
    let mut pruned = wide.clone();
    pruned.selection = Some(FeatureSelection::new(selected.clone()));
    let (pruned_ref, pruned_names) = extract_dataset_features(&train, &pruned, 1);
    assert_eq!(pruned_names, selected);

    // pruned columns are the wide columns, bit for bit
    for (j, name) in pruned_names.iter().enumerate() {
        let wide_j = wide_names.iter().position(|n| n == name).unwrap();
        for i in 0..wide_ref.n_rows() {
            assert_eq!(
                pruned_ref.get(i, j).to_bits(),
                wide_ref.get(i, wide_j).to_bits(),
                "row {i}, column `{name}`"
            );
        }
    }

    for n_threads in THREAD_COUNTS {
        let (w, _) = extract_dataset_features(&train, &wide, n_threads);
        assert_eq!(
            matrix_bits(&w),
            matrix_bits(&wide_ref),
            "wide, n_threads = {n_threads}"
        );
        let (p, _) = extract_dataset_features(&train, &pruned, n_threads);
        assert_eq!(
            matrix_bits(&p),
            matrix_bits(&pruned_ref),
            "pruned, n_threads = {n_threads}"
        );
    }
}

#[test]
fn workspace_reuse_is_bit_identical_to_fresh_workspaces() {
    // The extraction path reuses one MotifWorkspace per pool worker across
    // its whole chunk of series. Scratch reuse may never leak into results:
    // a workspace that has seen many graphs of varying size must produce the
    // same motif counts — and the same feature vectors, bit for bit — as a
    // fresh workspace per graph.
    let (train, _) = generate_by_name_scaled("BeetleFly", ArchiveOptions::bounded(8, 160, 5))
        .expect("catalogue dataset");
    let config = FeatureConfig::mvg();

    // graph-level counts: one long-lived workspace vs fresh ones
    let mut reused = MotifWorkspace::new();
    for series in train.series() {
        let vg = visibility_graph(series.values());
        let hvg = horizontal_visibility_graph(series.values());
        for g in [&vg, &hvg] {
            assert_eq!(
                count_motifs_with(g, &mut reused),
                count_motifs_with(g, &mut MotifWorkspace::new())
            );
        }
    }

    // feature-level: the same reused workspace (already warmed by every
    // graph above) against a fresh workspace per series, compared on raw
    // f64 bit patterns
    let with_reuse: Vec<Vec<f64>> = train
        .series()
        .iter()
        .map(|s| extract_series_features_traced(s, &config, &mut reused, &mut NoopTraceSink))
        .collect();
    let with_fresh: Vec<Vec<f64>> = train
        .series()
        .iter()
        .map(|s| {
            let mut fresh = MotifWorkspace::new();
            extract_series_features_traced(s, &config, &mut fresh, &mut NoopTraceSink)
        })
        .collect();
    assert_eq!(bits(&with_reuse), bits(&with_fresh));

    // and the parallel pipeline (thread-local reuse inside pool workers)
    // still matches the per-series explicit path
    let (matrix, _) = extract_dataset_features(&train, &config, 3);
    let width = matrix.n_cols();
    let padded: Vec<Vec<f64>> = with_fresh
        .into_iter()
        .map(|mut row| {
            row.resize(width, 0.0);
            row
        })
        .collect();
    assert_eq!(matrix_bits(&matrix), bits(&padded));
}

fn grid_with(n_threads: usize) -> GridSearch {
    let mut grid = GridSearch::new(3);
    grid.n_threads = n_threads;
    for &(lr, n, d) in &[(0.1, 15usize, 3usize), (0.3, 10, 2), (0.2, 20, 4)] {
        let params = GradientBoostingParams {
            n_estimators: n,
            learning_rate: lr,
            max_depth: d,
            ..Default::default()
        };
        grid.add(
            format!("xgb(lr={lr},n={n},d={d})"),
            Box::new(move || Box::new(GradientBoosting::new(params)) as Box<dyn Classifier>),
        );
    }
    grid.add(
        "tree",
        Box::new(|| {
            Box::new(DecisionTree::new(DecisionTreeParams::default())) as Box<dyn Classifier>
        }),
    );
    grid
}

#[test]
fn grid_search_cv_losses_are_bit_identical_across_thread_counts() {
    let (x, y) = labeled_features();
    let reference = grid_with(1).evaluate(&x, &y).unwrap();
    for n_threads in THREAD_COUNTS {
        let results = grid_with(n_threads).evaluate(&x, &y).unwrap();
        assert_eq!(results.len(), reference.len());
        // same winner, same ranking, same exact fold losses
        for (got, want) in results.iter().zip(reference.iter()) {
            assert_eq!(got.candidate, want.candidate, "n_threads = {n_threads}");
            assert_eq!(got.description, want.description, "n_threads = {n_threads}");
            assert_eq!(
                got.log_loss.to_bits(),
                want.log_loss.to_bits(),
                "n_threads = {n_threads}"
            );
        }
    }
}

#[test]
fn forest_predictions_are_bit_identical_across_thread_counts() {
    let (x, y) = labeled_features();
    let fit_with = |n_threads: usize| {
        let mut rf = RandomForest::new(RandomForestParams {
            n_estimators: 24,
            max_depth: 8,
            seed: 13,
            n_threads,
            ..Default::default()
        });
        rf.fit(&x, &y).unwrap();
        (rf.predict(&x).unwrap(), rf.predict_proba(&x).unwrap())
    };
    let (ref_pred, ref_proba) = fit_with(1);
    for n_threads in THREAD_COUNTS {
        let (pred, proba) = fit_with(n_threads);
        assert_eq!(pred, ref_pred, "n_threads = {n_threads}");
        assert_eq!(bits(&proba), bits(&ref_proba), "n_threads = {n_threads}");
    }
}

fn stacking_with(n_threads: usize) -> StackingEnsemble {
    let mut ens = StackingEnsemble::new(StackingParams {
        top_k: 2,
        cv_folds: 3,
        seed: 5,
        n_threads,
    });
    for &(lr, n, d) in &[(0.1, 15usize, 3usize), (0.3, 12, 2)] {
        let params = GradientBoostingParams {
            n_estimators: n,
            learning_rate: lr,
            max_depth: d,
            ..Default::default()
        };
        ens.add_candidate(
            format!("xgb(lr={lr},n={n},d={d})"),
            Box::new(move || Box::new(GradientBoosting::new(params)) as Box<dyn Classifier>),
        );
    }
    ens.add_candidate(
        "rf",
        Box::new(|| {
            Box::new(RandomForest::new(RandomForestParams {
                n_estimators: 10,
                max_depth: 6,
                seed: 5,
                n_threads: 1,
                ..Default::default()
            })) as Box<dyn Classifier>
        }),
    );
    ens.add_candidate(
        "svm",
        Box::new(|| {
            Box::new(SvmClassifier::new(SvmParams {
                kernel: SvmKernel::Rbf { gamma: 0.5 },
                seed: 5,
                ..Default::default()
            })) as Box<dyn Classifier>
        }),
    );
    ens
}

#[test]
fn stacked_probabilities_are_bit_identical_across_thread_counts() {
    let (x, y) = labeled_features();
    let fit_with = |n_threads: usize| {
        let mut ens = stacking_with(n_threads);
        ens.fit(&x, &y).unwrap();
        let scores: Vec<(String, u64, bool)> = ens
            .candidate_scores()
            .iter()
            .map(|s| (s.description.clone(), s.log_loss.to_bits(), s.selected))
            .collect();
        (scores, ens.predict_proba(&x).unwrap())
    };
    let (ref_scores, ref_proba) = fit_with(1);
    for n_threads in THREAD_COUNTS {
        let (scores, proba) = fit_with(n_threads);
        assert_eq!(scores, ref_scores, "n_threads = {n_threads}");
        assert_eq!(bits(&proba), bits(&ref_proba), "n_threads = {n_threads}");
    }
}

#[test]
fn baseline_classifiers_are_bit_identical_across_thread_counts() {
    // SAX-VSM builds word histograms; with `BTreeMap` bags the float
    // summation order inside every cosine is the sorted word order, so two
    // fits of the same data must agree bit for bit and `predict_parallel`
    // must match serial `predict` for every thread count. The assertions
    // cover the raw decision values (cosine similarities), not just the
    // argmax.
    use tsc_mvg::baselines::sax_vsm::{SaxVsm, SaxVsmParams};
    use tsc_mvg::baselines::traits::TscClassifier;

    let (train, test) = generate_by_name_scaled("BeetleFly", ArchiveOptions::bounded(10, 96, 3))
        .expect("catalogue dataset");

    // two independent fits agree on every decision value, bit for bit
    let mut vsm_a = SaxVsm::new(SaxVsmParams::default());
    let mut vsm_b = SaxVsm::new(SaxVsmParams::default());
    vsm_a.fit(&train).unwrap();
    vsm_b.fit(&train).unwrap();
    let sims_a: Vec<Vec<f64>> = test
        .series()
        .iter()
        .map(|s| vsm_a.class_similarities(s).unwrap())
        .collect();
    let sims_b: Vec<Vec<f64>> = test
        .series()
        .iter()
        .map(|s| vsm_b.class_similarities(s).unwrap())
        .collect();
    assert_eq!(bits(&sims_a), bits(&sims_b));

    // parallel prediction matches serial for every thread count
    let vsm_serial = vsm_a.predict(&test).unwrap();
    for n_threads in THREAD_COUNTS {
        assert_eq!(
            vsm_a.predict_parallel(&test, n_threads).unwrap(),
            vsm_serial,
            "SAX-VSM, n_threads = {n_threads}"
        );
    }
}

#[test]
fn end_to_end_pipeline_is_bit_identical_across_thread_counts() {
    let (train, test) = generate_by_name_scaled("BeetleFly", ArchiveOptions::bounded(8, 96, 3))
        .expect("catalogue dataset");
    let fit_with = |n_threads: usize| {
        let config = MvgConfig {
            n_threads,
            ..MvgConfig::fast()
        };
        let mut clf = MvgClassifier::new(config);
        clf.fit(&train).unwrap();
        clf.predict_proba(&test).unwrap()
    };
    let reference = fit_with(1);
    for n_threads in THREAD_COUNTS {
        assert_eq!(
            bits(&fit_with(n_threads)),
            bits(&reference),
            "n_threads = {n_threads}"
        );
    }
}

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

fn fnv1a_f64s<'a>(values: impl IntoIterator<Item = &'a f64>) -> u64 {
    fnv1a(values.into_iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

#[test]
fn wide_prune_refit_matches_the_pinned_bits() {
    // The serving fit path: the `wide` preset, pruned to its 24 most
    // important features and refit. The FNV-1a constants were captured
    // with the original booster, which re-sorted every node's rows for
    // every feature, before the presorted, node-partitioned split search
    // replaced it; every bit of the models must survive that rewrite.
    // `(dataset, wide snapshot, refit snapshot, refit predict_proba bits,
    // refit importances)`
    const PINS: [(&str, u64, u64, u64, u64); 2] = [
        (
            "ECG5000",
            0x82e2_b191_2118_22a3,
            0xd628_3886_5e39_4ef6,
            0x5914_6e9d_56c3_d25e,
            0x3dc7_941f_6d7e_236f,
        ),
        (
            "FordA",
            0x8075_9cd0_57d6_155e,
            0x90b5_469e_ca0a_58e7,
            0x804c_dc28_f53c_639d,
            0xb7ea_210b_10ea_d5f7,
        ),
    ];
    let seed = 101;
    let mut mismatches = Vec::new();
    for (dataset, wide_pin, refit_pin, proba_pin, importance_pin) in PINS {
        let options = ArchiveOptions {
            max_train: 40,
            max_test: 20,
            max_length: 256,
            seed,
        };
        let pair = DatasetSource::synthetic(options)
            .resolve(dataset)
            .expect("catalogue dataset");
        let config = tsc_mvg::serve::config_named("wide", seed, 1).unwrap();
        let mut wide = MvgClassifier::new(config);
        wide.fit(&pair.train).unwrap();
        let mut refit = MvgClassifier::new(wide.pruned_config(24).unwrap());
        refit.fit(&pair.train).unwrap();
        let proba = refit.predict_proba(&pair.test).unwrap();
        let importances = refit.feature_importances();
        let got = (
            fnv1a(wide.snapshot_bytes().unwrap()),
            fnv1a(refit.snapshot_bytes().unwrap()),
            fnv1a_f64s(proba.iter().flatten()),
            fnv1a_f64s(importances.iter().map(|f| &f.importance)),
        );
        if got != (wide_pin, refit_pin, proba_pin, importance_pin) {
            mismatches.push(format!(
                "{dataset}: ({:#018x}, {:#018x}, {:#018x}, {:#018x})",
                got.0, got.1, got.2, got.3
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn feature_matrices_match_the_pinned_bits() {
    // The feature matrix of every serving preset on two catalogue datasets,
    // plus a pruned `wide` selection in scrambled order that names a scale
    // these lengths never reach. The FNV-1a constants were captured with
    // the two-body extractor (a wide body and a pruned body that rebuilt a
    // name map per series), before one body replaced both; every feature
    // bit must survive that rewrite.
    // `(dataset, [fast, paper, uvg-fast, wide, pruned wide])`
    const PINS: [(&str, [u64; 5]); 2] = [
        (
            "ECG5000",
            [
                0x568f_c317_49dc_23e5,
                0x568f_c317_49dc_23e5,
                0xc5df_1c43_aade_2238,
                0x9fa1_9263_f9c8_85e5,
                0xd817_fd58_fd0d_1b0d,
            ],
        ),
        (
            "FordA",
            [
                0x6da9_a2ba_1851_8454,
                0x6da9_a2ba_1851_8454,
                0xccf1_9d5b_7250_c2df,
                0x0e89_4c4a_cb47_ac71,
                0xf186_4c74_bc19_ef22,
            ],
        ),
    ];
    let seed = 101;
    let mut mismatches = Vec::new();
    for (dataset, pins) in PINS {
        let pair = DatasetSource::synthetic(ArchiveOptions::bounded(12, 256, seed))
            .resolve(dataset)
            .expect("catalogue dataset");
        let mut configs: Vec<FeatureConfig> = tsc_mvg::serve::CONFIG_PRESETS
            .iter()
            .map(|preset| {
                tsc_mvg::serve::config_named(preset, seed, 1)
                    .unwrap()
                    .features
            })
            .collect();
        let wide = FeatureConfig::wide();
        let mut selected: Vec<String> = wide
            .feature_names_for_length(pair.train.max_length())
            .into_iter()
            .step_by(5)
            .rev()
            .collect();
        selected.insert(3, "T12 HVG P(M44)".to_string());
        configs.push(FeatureConfig {
            selection: Some(tsc_mvg::mvg::FeatureSelection::new(selected)),
            ..wide
        });
        let got: Vec<u64> = configs
            .iter()
            .map(|config| {
                let (matrix, names) = extract_dataset_features(&pair.train, config, 2);
                let name_bytes = names.iter().flat_map(|n| n.bytes().chain([0]));
                let bits = matrix
                    .rows()
                    .flatten()
                    .flat_map(|v| v.to_bits().to_le_bytes());
                fnv1a(name_bytes.chain(bits))
            })
            .collect();
        if got != pins {
            let hex: Vec<String> = got.iter().map(|h| format!("{h:#018x}")).collect();
            mismatches.push(format!("{dataset}: [{}]", hex.join(", ")));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn classifier_choices_match_the_pinned_bits() {
    // Every `ClassifierChoice` the serving presets do not fit, end to end on
    // one fixed equal-length synthetic split: the scaled feature rows feed
    // each family, so a change to the row layout or the scaler shows here.
    // `(choice, predict labels, predict_proba bits)`
    const PINS: [(&str, u64, u64); 4] = [
        ("RandomForest", 0xf2b5_accd_8233_5524, 0xb3c0_7aed_e245_9e72),
        ("Svm", 0xec32_669a_74fc_ae65, 0x84a7_6576_5571_8063),
        ("Stacked", 0x107a_002b_e9b1_ae25, 0x6fa7_7f39_38c7_ae77),
        (
            "GradientBoostingGrid",
            0xf746_ad27_57f0_54e4,
            0x12ea_c76c_ed75_4825,
        ),
    ];
    let (train, test) = generate_by_name_scaled("BeetleFly", ArchiveOptions::bounded(18, 96, 5))
        .expect("catalogue dataset");
    let choice = |name: &str| match name {
        "RandomForest" => ClassifierChoice::RandomForest(RandomForestParams {
            n_estimators: 20,
            max_depth: 6,
            seed: 5,
            ..Default::default()
        }),
        "Svm" => ClassifierChoice::Svm(SvmParams {
            c: 5.0,
            kernel: SvmKernel::Rbf { gamma: 2.0 },
            seed: 5,
            ..Default::default()
        }),
        "Stacked" => ClassifierChoice::Stacked { top_k: 2 },
        _ => ClassifierChoice::GradientBoostingGrid,
    };
    let mut mismatches = Vec::new();
    for (name, label_pin, proba_pin) in PINS {
        let config = MvgConfig {
            n_threads: 2,
            seed: 5,
            ..MvgConfig::fast()
        }
        .with_classifier(choice(name));
        let mut clf = MvgClassifier::new(config);
        clf.fit(&train).unwrap();
        let labels = clf.predict(&test).unwrap();
        let proba = clf.predict_proba(&test).unwrap();
        let got = (
            fnv1a(labels.iter().flat_map(|&l| (l as u64).to_le_bytes())),
            fnv1a_f64s(proba.iter().flatten()),
        );
        if got != (label_pin, proba_pin) {
            mismatches.push(format!("{name}: ({:#018x}, {:#018x})", got.0, got.1));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
