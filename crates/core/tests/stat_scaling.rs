//! The statistical layer at extreme magnitudes.
//!
//! * Random finite series at magnitudes from 1e-300 to 1e300 give finite
//!   statistical features, `energy` excepted (its true value can exceed
//!   `f64::MAX`).
//! * Scaling a series by `2^j` scales the features that scale with it by
//!   `2^j` (`energy` by `4^j`) and leaves the rest unchanged, within a
//!   relative `1e-12`, whether or not the scaled series reaches the
//!   magnitude at which the layer rescales before computing.

use proptest::prelude::*;
use tsg_core::{extract_series_features, FeatureConfig, FeatureSelection, StatisticalConfig};
use tsg_ts::TimeSeries;

/// A seeded oscillation plus LCG noise, with values in about `[-1, 1]`.
fn unit_series(len: usize, seed: u64) -> Vec<f64> {
    let mut state = seed;
    (0..len)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let noise = ((state >> 11) as f64) / (1u64 << 53) as f64 - 0.5;
            0.5 * ((i as f64) * 0.37).sin() + noise
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

/// The power of the series' scale each feature carries: 1 for features in
/// the units of the series, 2 for `energy`, 0 for scale-invariant ones.
fn scale_power(name: &str) -> i32 {
    let name = name.strip_prefix("stat ").unwrap();
    match name {
        "energy" => 2,
        "mean" | "std" | "min" | "max" | "median" | "iqr" | "q05" | "q25" | "q75" | "q95"
        | "abs_mean" | "trend_slope" | "trend_intercept" => 1,
        _ if name.starts_with("fft_mag_") => 1,
        _ => 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn stat_features_are_finite_at_every_magnitude(
        len in 1usize..601,
        seed in 0u64..1_000_000,
        decimal_exponent in -300i32..301,
    ) {
        let magnitude = 10f64.powi(decimal_exponent);
        let values: Vec<f64> = unit_series(len, seed).iter().map(|v| v * magnitude).collect();
        let names = StatisticalConfig::standard().feature_names();
        for (name, value) in names.iter().zip(stat_layer(&values)) {
            prop_assert!(
                value.is_finite() || name == "stat energy",
                "{name} = {value} at magnitude {magnitude:e}, length {len}"
            );
        }
    }

    #[test]
    fn scaling_by_a_power_of_two_scales_covariant_features_back(
        len in 1usize..601,
        seed in 0u64..1_000_000,
        decimal_exponent in -3i32..4,
        j_draw in 0i32..1000,
    ) {
        let base: Vec<f64> = unit_series(len, seed)
            .iter()
            .map(|v| v * 10f64.powi(decimal_exponent))
            .collect();
        // the largest shift that keeps every value at or below 1e300
        let max_abs = base.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let j_max = (1e300 / max_abs).log2().floor() as i32;
        let j = j_draw % (j_max + 1);
        let factor = 2f64.powi(j);
        let scaled: Vec<f64> = base.iter().map(|v| v * factor).collect();

        let expected = stat_layer(&base);
        let got = stat_layer(&scaled);
        let names = StatisticalConfig::standard().feature_names();
        for ((name, &want), &have) in names.iter().zip(&expected).zip(&got) {
            let want = (0..scale_power(name)).fold(want, |v, _| v * factor);
            if want.is_infinite() {
                prop_assert!(have == want, "{name}: {have} vs {want} with j = {j}");
                continue;
            }
            let tolerance = 1e-12 * want.abs().max(have.abs());
            prop_assert!(
                (have - want).abs() <= tolerance,
                "{name}: {have} vs {want} with j = {j}, length {len}"
            );
        }
    }
}
