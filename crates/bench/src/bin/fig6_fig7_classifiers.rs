//! Figures 6 and 7: critical-difference comparisons of classifier families
//! on MVG features.
//!
//! Figure 6 compares single classifiers (XGBoost-style boosting, Random
//! Forest, SVM). Figure 7 compares stacked generalization restricted to one
//! family at a time against stacking across all three families.
//!
//! Datasets are resolved through `DatasetSource` (real UCR files via
//! `--ucr-dir` / `TSG_UCR_DIR`, else the synthetic catalogue) and features
//! are extracted on the shared worker pool. Per-split provenance (source
//! kind, backing file, content hash) is printed and embedded in the JSON
//! artefact.

use tsg_bench::RunOptions;
use tsg_core::{extract_dataset_features, FeatureConfig, FeatureSelection};
use tsg_datasets::SplitProvenance;
use tsg_eval::tables::{fmt3, fmt_hash, fmt_hash_opt};
use tsg_eval::{nemenyi_critical_difference, Table};
use tsg_ml::forest::{RandomForest, RandomForestParams};
use tsg_ml::gbt::{GradientBoosting, GradientBoostingParams};
use tsg_ml::metrics::error_rate;
use tsg_ml::scaling::MinMaxScaler;
use tsg_ml::stacking::{StackingEnsemble, StackingParams};
use tsg_ml::svm::{SvmClassifier, SvmKernel, SvmParams};
use tsg_ml::traits::Classifier;
use tsg_serve::json::Json;

fn boosting_candidates(seed: u64) -> Vec<(String, GradientBoostingParams)> {
    [(0.1, 30usize, 4usize), (0.2, 40, 4), (0.3, 60, 6)]
        .iter()
        .map(|&(lr, n, d)| {
            (
                format!("xgb(lr={lr},n={n},d={d})"),
                GradientBoostingParams {
                    n_estimators: n,
                    learning_rate: lr,
                    max_depth: d,
                    subsample: 0.5,
                    colsample_bytree: 0.5,
                    seed,
                    ..Default::default()
                },
            )
        })
        .collect()
}

fn forest_candidates(seed: u64, n_threads: usize) -> Vec<(String, RandomForestParams)> {
    [(40usize, 8usize), (80, 12), (120, 16)]
        .iter()
        .map(|&(n, d)| {
            (
                format!("rf(n={n},d={d})"),
                RandomForestParams {
                    n_estimators: n,
                    max_depth: d,
                    seed,
                    n_threads,
                    ..Default::default()
                },
            )
        })
        .collect()
}

fn svm_candidates(seed: u64) -> Vec<(String, SvmParams)> {
    [(1.0, 1.0), (10.0, 0.5), (5.0, 2.0)]
        .iter()
        .map(|&(c, gamma)| {
            (
                format!("svm(C={c},g={gamma})"),
                SvmParams {
                    c,
                    kernel: SvmKernel::Rbf { gamma },
                    seed,
                    ..Default::default()
                },
            )
        })
        .collect()
}

fn fit_and_score(
    model: &mut dyn Classifier,
    x_train: &tsg_ml::FeatureMatrix,
    y_train: &[usize],
    x_test: &tsg_ml::FeatureMatrix,
    y_test: &[usize],
) -> f64 {
    model.fit(x_train, y_train).expect("training failed");
    let pred = model.predict(x_test).expect("prediction failed");
    error_rate(y_test, &pred)
}

fn stacking_for_family(family: &str, seed: u64, n_threads: usize) -> StackingEnsemble {
    let mut ens = StackingEnsemble::new(StackingParams {
        top_k: 2,
        cv_folds: 3,
        seed,
        n_threads,
    });
    if family == "XGBoost" || family == "All" {
        for (name, params) in boosting_candidates(seed) {
            ens.add_candidate(
                name,
                Box::new(move || Box::new(GradientBoosting::new(params)) as Box<dyn Classifier>),
            );
        }
    }
    if family == "RF" || family == "All" {
        // candidate-level parallelism comes from the ensemble; serial trees
        // avoid oversubscribing the pool
        for (name, params) in forest_candidates(seed, 1) {
            ens.add_candidate(
                name,
                Box::new(move || Box::new(RandomForest::new(params)) as Box<dyn Classifier>),
            );
        }
    }
    if family == "SVM" || family == "All" {
        for (name, params) in svm_candidates(seed) {
            ens.add_candidate(
                name,
                Box::new(move || Box::new(SvmClassifier::new(params)) as Box<dyn Classifier>),
            );
        }
    }
    ens
}

fn main() {
    let mut options = RunOptions::from_args();
    // stacking multiplies training cost; default to a leaner selection unless
    // the user explicitly chose datasets
    if options.dataset_filter.is_empty() && options.max_datasets == 0 {
        options.max_datasets = 12;
    }
    let n_threads = tsg_parallel::resolve_threads(options.n_threads);
    let specs = options.selected_specs();
    let source = options.dataset_source();
    println!(
        "Figures 6 & 7: classifier families and stacked generalization on MVG features ({} datasets, {n_threads} worker threads)\n",
        specs.len()
    );
    let wall_clock = std::time::Instant::now();

    let single_methods = ["MVG (XGBoost)", "MVG (RF)", "MVG (SVM)"];
    let stacking_methods = ["XGBoost", "RF", "SVM", "All"];
    let mut single_errors: Vec<Vec<f64>> = Vec::new();
    let mut stack_errors: Vec<Vec<f64>> = Vec::new();
    let mut single_table = Table::new(&["Dataset", "XGBoost", "RF", "SVM"]);
    let mut stack_table = Table::new(&[
        "Dataset",
        "stack XGBoost",
        "stack RF",
        "stack SVM",
        "stack All",
    ]);

    let mut provenance: Vec<SplitProvenance> = Vec::new();
    for spec in &specs {
        let pair = source
            .resolve(spec.name)
            .unwrap_or_else(|e| panic!("failed to resolve {}: {e}", spec.name));
        println!("  {}: {}", spec.name, pair.train_provenance.describe());
        // both splits are extracted under the names at the longer of the two
        // maximum series lengths — a real variable-length dataset can have
        // its longest series in either split, and per-split widths would
        // make the train-fitted scaler reject the test matrix
        let max_length = pair.train.max_length().max(pair.test.max_length());
        let features = FeatureConfig {
            selection: Some(FeatureSelection::new(
                FeatureConfig::mvg().feature_names_for_length(max_length),
            )),
            ..FeatureConfig::mvg()
        };
        let (train_features, _) = extract_dataset_features(&pair.train, &features, n_threads);
        let (test_features, _) = extract_dataset_features(&pair.test, &features, n_threads);
        let y_train = pair.train.labels_required().expect("labeled data");
        let y_test = pair.test.labels_required().expect("labeled data");
        provenance.extend([pair.train_provenance, pair.test_provenance]);
        let (scaler, x_train) = MinMaxScaler::fit_transform(&train_features).expect("scaling");
        let x_test = scaler.transform(&test_features).expect("scaling");

        // --- Figure 6: single classifiers --------------------------------
        let mut xgb = GradientBoosting::new(boosting_candidates(options.seed)[1].1);
        let mut rf = RandomForest::new(forest_candidates(options.seed, n_threads)[1].1);
        let mut svm = SvmClassifier::new(svm_candidates(options.seed)[1].1);
        let row = vec![
            fit_and_score(&mut xgb, &x_train, &y_train, &x_test, &y_test),
            fit_and_score(&mut rf, &x_train, &y_train, &x_test, &y_test),
            fit_and_score(&mut svm, &x_train, &y_train, &x_test, &y_test),
        ];
        single_table.add_row({
            let mut cells = vec![spec.name.to_string()];
            cells.extend(row.iter().map(|e| fmt3(*e)));
            cells
        });
        single_errors.push(row);

        // --- Figure 7: stacking per family vs all families ----------------
        let mut row = Vec::new();
        for family in stacking_methods {
            let mut ens = stacking_for_family(family, options.seed, n_threads);
            row.push(fit_and_score(
                &mut ens, &x_train, &y_train, &x_test, &y_test,
            ));
        }
        stack_table.add_row({
            let mut cells = vec![spec.name.to_string()];
            cells.extend(row.iter().map(|e| fmt3(*e)));
            cells
        });
        stack_errors.push(row);
        println!("  finished {}", spec.name);
    }

    println!("\nPer-dataset error rates (single classifiers, Figure 6):");
    println!("{}", single_table.to_aligned());
    let cd6 = nemenyi_critical_difference(&single_errors, &single_methods);
    println!("{}", cd6.render());

    println!("Per-dataset error rates (stacked generalization, Figure 7):");
    println!("{}", stack_table.to_aligned());
    let stack_labels = ["stack XGBoost", "stack RF", "stack SVM", "stack All"];
    let cd7 = nemenyi_critical_difference(&stack_errors, &stack_labels);
    println!("{}", cd7.render());

    println!(
        "total wall time: {:.2} s with {n_threads} worker threads (rerun with `--threads 1` for the serial baseline)\n",
        wall_clock.elapsed().as_secs_f64()
    );

    let mut provenance_table = Table::new(&["Split", "Source", "Hash", "Detail"]);
    for p in &provenance {
        provenance_table.add_row(vec![
            format!("{}_{}", p.dataset, p.split.suffix()),
            p.kind.as_str().to_string(),
            fmt_hash_opt(p.content_hash),
            p.describe(),
        ]);
    }
    println!("Dataset provenance:");
    println!("{}", provenance_table.to_aligned());

    if options.figures {
        options.write_artefact("fig6_single_classifiers.csv", &single_table.to_csv());
        options.write_artefact("fig7_stacking.csv", &stack_table.to_csv());
        let document = Json::obj(vec![
            ("fig6", cd_json(&single_methods, &cd6.average_ranks, cd6.cd)),
            ("fig7", cd_json(&stack_labels, &cd7.average_ranks, cd7.cd)),
            (
                "datasets",
                Json::Arr(provenance.iter().map(provenance_json).collect()),
            ),
        ]);
        options.write_artefact(
            "fig6_fig7_critical_difference.json",
            &format!("{}\n", document.write()),
        );
    }
}

/// One critical-difference record, built with the shared JSON writer
/// (`tsg_serve::json`) instead of hand-formatted strings.
fn cd_json(methods: &[&str], ranks: &[f64], cd: f64) -> Json {
    Json::obj(vec![
        ("methods", Json::strs(methods.iter().copied())),
        ("ranks", Json::nums(ranks.iter().copied())),
        ("cd", Json::Num(cd)),
    ])
}

/// One split's provenance record for the JSON artefact: CI asserts that
/// fixture-backed runs report `"provenance": "real"` end-to-end.
fn provenance_json(p: &SplitProvenance) -> Json {
    let mut members = vec![
        ("dataset", Json::Str(p.dataset.clone())),
        ("split", Json::Str(p.split.suffix().to_string())),
        ("provenance", Json::Str(p.kind.as_str().to_string())),
    ];
    if let Some(seed) = p.seed {
        members.push(("seed", Json::Num(seed as f64)));
    }
    if let Some(v) = p.generator_version {
        members.push(("generator_version", Json::Num(v as f64)));
    }
    if let Some(path) = &p.path {
        members.push(("path", Json::Str(path.display().to_string())));
    }
    if let Some(hash) = p.content_hash {
        members.push(("content_hash", Json::Str(fmt_hash(hash))));
    }
    Json::obj(members)
}
