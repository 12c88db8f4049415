//! The registry's fit path against the library's, and the rows a fitted
//! `wide` model extracts for series whose length differs from training.
//!
//! The registry fits a pruned model from one extraction of the training
//! set: the refit takes the selected columns of the wide raw matrix. It
//! must land on exactly the bits of the library path, fit → prune → refit,
//! which `tests/determinism.rs::wide_prune_refit_matches_the_pinned_bits`
//! pins and which the benchmark checks every served label against.

use std::sync::mpsc;
use std::sync::Arc;
use tsg_core::{extract_series_features, MvgClassifier};
use tsg_datasets::archive::ArchiveOptions;
use tsg_datasets::DatasetSource;
use tsg_serve::batcher::{BatchConfig, ClassifyOutput};
use tsg_serve::metrics::ServerMetrics;
use tsg_serve::registry::{ModelRegistry, TrainingSource};
use tsg_ts::hash::Fnv1a;
use tsg_ts::{Dataset, TimeSeries};

fn registry() -> ModelRegistry {
    ModelRegistry::new(
        1,
        BatchConfig::default(),
        Arc::new(ServerMetrics::default()),
    )
    .expect("spawn registry")
}

fn fnv1a_f64s(values: &[Vec<f64>]) -> u64 {
    let mut hash = Fnv1a::default();
    for v in values.iter().flatten() {
        hash.update(&v.to_bits().to_le_bytes());
    }
    hash.finish()
}

/// Classifies `series` through the registry's batcher, with probabilities.
fn served(
    r: &ModelRegistry,
    model: &Arc<MvgClassifier>,
    series: Vec<TimeSeries>,
) -> ClassifyOutput {
    let (done, result) = mpsc::channel();
    let on_done = Box::new(move |output| drop(done.send(output)));
    r.batcher()
        .submit(Arc::clone(model), series, true, on_done)
        .expect("submit");
    result.recv().expect("batch ran").expect("classify")
}

fn bits(table: &[Vec<f64>]) -> Vec<Vec<u64>> {
    table
        .iter()
        .map(|row| row.iter().map(|v| v.to_bits()).collect())
        .collect()
}

#[test]
fn registry_pruned_fit_matches_the_library_pins() {
    // `(dataset, refit snapshot, refit predict_proba bits)`, the library
    // path's pins for the same split, preset, seed and k
    const PINS: [(&str, u64, u64); 2] = [
        ("ECG5000", 0xd628_3886_5e39_4ef6, 0x5914_6e9d_56c3_d25e),
        ("FordA", 0x90b5_469e_ca0a_58e7, 0x804c_dc28_f53c_639d),
    ];
    let seed = 101;
    let mut mismatches = Vec::new();
    for (dataset, snapshot_pin, proba_pin) in PINS {
        let options = ArchiveOptions {
            max_train: 40,
            max_test: 20,
            max_length: 256,
            seed,
        };
        let pair = DatasetSource::synthetic(options)
            .resolve(dataset)
            .expect("catalogue dataset");
        let r = registry();
        let info = r
            .fit_pruned("m", TrainingSource::Inline(pair.train), "wide", seed, 24)
            .unwrap();
        assert_eq!(info.n_features, 24);
        let model = Arc::clone(r.get("m").unwrap().classifier());
        let proba = model.predict_proba(&pair.test).unwrap();
        let got = (
            Fnv1a::hash(&model.snapshot_bytes().unwrap()),
            fnv1a_f64s(&proba),
        );
        if got != (snapshot_pin, proba_pin) {
            mismatches.push(format!("{dataset}: ({:#018x}, {:#018x})", got.0, got.1));
        }
        let output = served(&r, &model, pair.test.series().to_vec());
        assert_eq!(
            bits(&output.probabilities.unwrap()),
            bits(&proba),
            "{dataset}"
        );
        r.shutdown();
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn rows_of_other_lengths_hold_each_named_value() {
    let seed = 101;
    let options = ArchiveOptions {
        max_train: 24,
        max_test: 4,
        max_length: 512,
        seed,
    };
    let pair = DatasetSource::synthetic(options)
        .resolve("ECG5000")
        .expect("catalogue dataset");
    assert!(pair.train.is_uniform_length());
    assert_eq!(pair.train.max_length(), 140, "trained at length 140");
    let r = registry();
    r.fit("wide", TrainingSource::Inline(pair.train), "wide", seed)
        .unwrap();
    let model = Arc::clone(r.get("wide").unwrap().classifier());
    let names = model.feature_names();
    let column = |name: &str| names.iter().position(|n| n == name).unwrap();

    let series: Vec<TimeSeries> = [60usize, 500]
        .iter()
        .map(|&len| {
            let values = (0..len).map(|t| {
                let t = t as f64;
                2.0 * (t * 0.13).sin() + (t * 0.031).cos() + 0.5
            });
            TimeSeries::new(values.collect())
        })
        .collect();
    // each series' own wide row, looked up by the training names: 0.0 for a
    // scale the series lacks, and a scale training lacked is left out
    let config = &model.config().features;
    let expected: Vec<Vec<f64>> = series
        .iter()
        .map(|s| {
            let own = extract_series_features(s, config);
            let own_names = config.feature_names_for_length(s.len());
            names
                .iter()
                .map(|n| {
                    own_names
                        .iter()
                        .position(|o| o == n)
                        .map_or(0.0, |i| own[i])
                })
                .collect()
        })
        .collect();

    // predicted: the rows the model extracts and predicts from
    let mut dataset = Dataset::new("other lengths");
    for s in &series {
        dataset.push(s.clone());
    }
    let (rows, row_names) = model.extract_features(&dataset);
    assert_eq!(row_names, names);
    for (i, s) in series.iter().enumerate() {
        let row = rows.row(i);
        assert_eq!(
            bits(&[row.to_vec()]),
            bits(&expected[i..=i]),
            "length {}",
            s.len()
        );
        let mean = s.values().iter().sum::<f64>() / s.len() as f64;
        let stat_mean = row[column("stat mean")];
        assert!(
            (stat_mean - mean).abs() < 1e-12,
            "length {}: {stat_mean} vs {mean}",
            s.len()
        );
    }
    let short = rows.row(0);
    let t2: Vec<f64> = names
        .iter()
        .zip(short)
        .filter(|(n, _)| n.starts_with("T2 "))
        .map(|(_, &v)| v)
        .collect();
    assert!(!t2.is_empty() && t2.iter().all(|&v| v == 0.0), "{t2:?}");
    let reference = model.predict_proba_from_feature_rows(expected).unwrap();
    assert_eq!(
        bits(&model.predict_proba(&dataset).unwrap()),
        bits(&reference)
    );

    // served: the batcher's rows predict exactly as the named rows do
    let output = served(&r, &model, series);
    assert_eq!(bits(&output.probabilities.unwrap()), bits(&reference));
    r.shutdown();
}
