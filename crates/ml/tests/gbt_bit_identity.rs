//! Bit-identity pins for the gradient-boosting tree builder.
//!
//! Each case fits a booster and hashes its `snapshot_state` bytes (every
//! split feature, threshold, leaf weight, base score and importance, as raw
//! `f64` bits) with FNV-1a. The constants were captured with the original
//! builder, which cloned and re-sorted every node's rows for every feature,
//! before the presorted, node-partitioned split search replaced it. A
//! faster builder must reproduce them exactly.
//!
//! The data exercises what the builder's tie handling depends on: rows
//! duplicated the way random oversampling duplicates them, a constant
//! column, a zero-heavy column and few-valued columns full of ties.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tsg_ml::data::{random_oversample, FeatureMatrix};
use tsg_ml::gbt::{GradientBoosting, GradientBoostingParams};
use tsg_ml::traits::Classifier;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// An imbalanced `n_classes` problem of 8 columns, oversampled to balance.
fn oversampled(n_classes: usize, seed: u64) -> (FeatureMatrix, Vec<usize>) {
    let mut state = seed;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for i in 0..96 {
        // class c gets n_classes - c rows in every n(n+1)/2, so oversampling
        // duplicates the later classes' rows
        let mut slot = i % (n_classes * (n_classes + 1) / 2);
        let mut label = 0;
        while slot >= n_classes - label {
            slot -= n_classes - label;
            label += 1;
        }
        // weak signal everywhere, so trees grow to depth on noisy, tied data
        let signal = label as f64 / n_classes as f64;
        let zero_heavy = if next() < 0.8 { 0.0 } else { signal + next() };
        rows.push(vec![
            signal + next(),
            next(),
            0.5,
            zero_heavy,
            ((next() + 0.3 * signal) * 3.0).floor() / 3.0,
            ((signal + next()) * 4.0).floor() / 4.0,
            if next() < 0.3 + 0.4 * signal {
                1.0
            } else {
                0.0
            },
            1.0 - signal + 1.5 * next(),
        ]);
        labels.push(label);
    }
    let x = FeatureMatrix::from_rows(&rows).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let indices = random_oversample(&labels, &mut rng);
    let y = indices.iter().map(|&i| labels[i]).collect();
    (x.select_rows(&indices), y)
}

/// `(n_classes, max_depth, subsample, colsample_bytree, min_child_weight,
/// snapshot FNV-1a)`, captured with the original per-node-sort builder.
const PINS: [(usize, usize, f64, f64, f64, u64); 20] = [
    (2, 1, 0.8, 1.0, 1.0, 0x2dde_7500_2dbb_813c),
    (2, 2, 1.0, 1.0, 5.0, 0x534e_f6d5_7612_ed99),
    (2, 3, 0.8, 0.8, 1.0, 0x0cf3_a3b7_05bf_d3e2),
    (2, 4, 1.0, 0.8, 5.0, 0xc1a8_c067_b271_7d7c),
    (2, 5, 0.8, 1.0, 5.0, 0xceee_5731_e17b_528b),
    (3, 1, 1.0, 0.8, 1.0, 0x2eff_7cc1_6649_2636),
    (3, 2, 0.8, 0.8, 5.0, 0x5ade_8f7e_ac71_cde8),
    (3, 3, 1.0, 1.0, 1.0, 0xedb3_e8e2_988a_a613),
    (3, 4, 0.8, 1.0, 5.0, 0x6af8_e183_9373_2173),
    (3, 5, 1.0, 0.8, 1.0, 0x7f05_bd4e_ce87_48d7),
    (4, 1, 0.8, 0.8, 5.0, 0x1df1_52ee_8c2f_d4bf),
    (4, 2, 1.0, 1.0, 1.0, 0x5852_fd8d_0935_1620),
    (4, 3, 0.8, 1.0, 5.0, 0xc966_5dbc_42c5_acbe),
    (4, 4, 1.0, 0.8, 1.0, 0x886d_3ad3_6526_1bda),
    (4, 5, 0.8, 0.8, 1.0, 0xd542_12e9_674d_27d2),
    (5, 1, 1.0, 1.0, 5.0, 0xf71d_168e_6e4f_72d7),
    (5, 2, 0.8, 1.0, 1.0, 0x419f_5ce0_0d8d_7776),
    (5, 3, 1.0, 0.8, 5.0, 0x6a50_26bd_fbb8_a5f7),
    (5, 4, 0.8, 0.8, 1.0, 0x54e8_3e68_3a5f_cbf4),
    (5, 5, 1.0, 1.0, 1.0, 0x88b5_2bd2_9da3_d898),
];

#[test]
fn booster_snapshots_match_the_pinned_bits() {
    let mut mismatches = Vec::new();
    for (case, &(n_classes, max_depth, subsample, colsample, mcw, pin)) in PINS.iter().enumerate() {
        let (x, y) = oversampled(n_classes, 100 + case as u64);
        let mut gbt = GradientBoosting::new(GradientBoostingParams {
            n_estimators: 6,
            learning_rate: 0.3,
            max_depth,
            min_child_weight: mcw,
            subsample,
            colsample_bytree: colsample,
            seed: case as u64,
            ..Default::default()
        });
        gbt.fit(&x, &y).unwrap();
        let mut bytes = Vec::new();
        assert!(gbt.snapshot_state(&mut bytes));
        let hash = fnv1a(&bytes);
        if hash != pin {
            mismatches.push(format!("case {case}: {hash:#018x}, pinned {pin:#018x}"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
