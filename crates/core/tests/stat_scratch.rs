//! The statistical layer's per-thread scratch (one sorted copy of the series
//! and the DFT table of the last length) never shows in its results.
//!
//! * One thread extracting series of lengths 140, 500, 140 and then every
//!   length from 1 to 64 gives every `stat` column bit-equal to the same
//!   series extracted first on a fresh thread. The lengths change the table
//!   at every step, and lengths up to 8 ask for DFT coefficients at or past
//!   the series length, which read `0.0`.
//! * The DFT magnitudes are bit-equal to the direct evaluation with `cos` and
//!   `sin` computed in the loop.

use tsg_core::catalogue::fft_magnitude_features;
use tsg_core::{extract_series_features, FeatureConfig, FeatureSelection, StatisticalConfig};
use tsg_ts::TimeSeries;

/// A seeded oscillation plus LCG noise.
fn series(len: usize, seed: u64) -> Vec<f64> {
    let mut state = seed;
    (0..len)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let noise = ((state >> 11) as f64) / (1u64 << 53) as f64 - 0.5;
            3.0 * ((i as f64) * 0.21).sin() + noise
        })
        .collect()
}

/// The whole statistical layer of `values`, as extraction computes it.
fn stat_layer(values: &[f64]) -> Vec<f64> {
    let config = FeatureConfig {
        selection: Some(FeatureSelection::new(
            StatisticalConfig::standard().feature_names(),
        )),
        ..FeatureConfig::wide()
    };
    extract_series_features(&TimeSeries::new(values.to_vec()), &config)
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The lengths in the order one thread extracts them.
fn lengths() -> Vec<usize> {
    [140, 500, 140].into_iter().chain(1..=64).collect()
}

#[test]
fn scratch_reused_across_lengths_matches_a_fresh_thread() {
    let inputs: Vec<Vec<f64>> = lengths()
        .into_iter()
        .enumerate()
        .map(|(i, len)| series(len, i as u64 + 1))
        .collect();
    let reused: Vec<Vec<f64>> = inputs.iter().map(|values| stat_layer(values)).collect();
    let coefficients = StatisticalConfig::standard().fft_coefficients;
    let names = StatisticalConfig::standard().feature_names();
    for (values, row) in inputs.iter().zip(&reused) {
        let fresh = std::thread::scope(|scope| {
            scope
                .spawn(|| stat_layer(values))
                .join()
                .expect("fresh extraction thread")
        });
        assert_eq!(bits(row), bits(&fresh), "length {}", values.len());
        // coefficients at or past the length read zero
        for k in values.len().max(1)..=coefficients {
            let name = format!("stat fft_mag_{k}");
            let at = names.iter().position(|n| *n == name).expect(&name);
            assert_eq!(
                row[at].to_bits(),
                0.0f64.to_bits(),
                "{name} at {}",
                values.len()
            );
        }
    }
}

/// The DFT magnitudes with the twiddle factors computed in the loop.
fn direct_dft(values: &[f64], n_coefficients: usize) -> Vec<f64> {
    let n = values.len();
    (1..=n_coefficients)
        .map(|k| {
            if k >= n {
                return 0.0;
            }
            let step = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
            let (mut re, mut im) = (0.0f64, 0.0f64);
            for (t, v) in values.iter().enumerate() {
                let angle = step * t as f64;
                re += v * angle.cos();
                im += v * angle.sin();
            }
            (re * re + im * im).sqrt() / n as f64
        })
        .collect()
}

#[test]
fn dft_table_matches_direct_evaluation() {
    // more coefficients than the layer's default, then fewer, on one length:
    // a larger table serves a smaller request
    for (i, len) in lengths().into_iter().enumerate() {
        let values = series(len, 100 + i as u64);
        for n_coefficients in [12, 3, 8] {
            assert_eq!(
                bits(&fft_magnitude_features(&values, n_coefficients)),
                bits(&direct_dft(&values, n_coefficients)),
                "length {len}, {n_coefficients} coefficients"
            );
        }
    }
}
