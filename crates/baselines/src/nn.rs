//! Nearest-neighbour baselines: 1NN-Euclidean and 1NN-DTW.
//!
//! These are the classic "hard to beat" baselines the paper compares against.
//! The DTW variant supports a Sakoe–Chiba warping window and prunes
//! candidates with the `LB_Keogh` lower bound plus early abandoning.

use crate::error::BaselineError;
use crate::traits::TscClassifier;
use crate::Result;
use tsg_ts::distance::{dtw_with_options, euclidean, lb_keogh, DtwOptions};
use tsg_ts::{Dataset, TimeSeries};

/// Distance used by the nearest-neighbour classifier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NnDistance {
    /// Euclidean distance (series must have equal lengths).
    Euclidean,
    /// DTW with an optional warping-window fraction (`None` = unconstrained).
    Dtw {
        /// Sakoe–Chiba band half-width as a fraction of the series length.
        window_fraction: Option<f64>,
    },
}

impl NnDistance {
    fn label(&self) -> String {
        match self {
            NnDistance::Euclidean => "1NN-ED".to_string(),
            NnDistance::Dtw {
                window_fraction: None,
            } => "1NN-DTW".to_string(),
            NnDistance::Dtw {
                window_fraction: Some(w),
            } => format!("1NN-DTW(w={w})"),
        }
    }
}

/// One-nearest-neighbour classifier over raw (z-normalised) series.
#[derive(Debug, Clone)]
pub struct NnClassifier {
    distance: NnDistance,
    train: Vec<(Vec<f64>, usize)>,
}

impl NnClassifier {
    /// Creates a classifier with the given distance. Series are z-normalised
    /// (the UCR convention).
    pub fn new(distance: NnDistance) -> Self {
        NnClassifier {
            distance,
            train: Vec::new(),
        }
    }

    fn prepare(&self, series: &TimeSeries) -> Vec<f64> {
        tsg_ts::preprocess::znormalize(series.values())
    }
}

impl TscClassifier for NnClassifier {
    fn name(&self) -> String {
        self.distance.label()
    }

    fn fit(&mut self, train: &Dataset) -> Result<()> {
        if train.is_empty() {
            return Err(BaselineError::InvalidTrainingData(
                "empty training set".into(),
            ));
        }
        let labels = train
            .labels_required()
            .map_err(|e| BaselineError::InvalidTrainingData(e.to_string()))?;
        self.train = train
            .series()
            .iter()
            .zip(labels)
            .map(|(s, l)| (self.prepare(s), l))
            .collect();
        Ok(())
    }

    fn predict_series(&self, series: &TimeSeries) -> Result<usize> {
        if self.train.is_empty() {
            return Err(BaselineError::NotFitted);
        }
        let query = self.prepare(series);
        let mut best_dist = f64::INFINITY;
        let mut best_label = self.train[0].1;
        for (candidate, label) in &self.train {
            let dist = match self.distance {
                NnDistance::Euclidean => {
                    if candidate.len() == query.len() {
                        euclidean(&query, candidate)?
                    } else {
                        // different lengths: compare over the common prefix
                        let n = candidate.len().min(query.len());
                        euclidean(&query[..n], &candidate[..n])?
                    }
                }
                NnDistance::Dtw { window_fraction } => {
                    // LB_Keogh pruning only applies to equal-length series
                    if let Some(w) = window_fraction {
                        if candidate.len() == query.len() {
                            let band = ((w * query.len() as f64).ceil() as usize).max(1);
                            let lb = lb_keogh(&query, candidate, band)?;
                            if lb >= best_dist {
                                continue;
                            }
                        }
                    }
                    let mut opts = DtwOptions {
                        window_fraction,
                        early_abandon: None,
                    };
                    if best_dist.is_finite() {
                        opts.early_abandon = Some(best_dist);
                    }
                    dtw_with_options(&query, candidate, opts)?
                }
            };
            if dist < best_dist {
                best_dist = dist;
                best_label = *label;
            }
        }
        Ok(best_label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tsg_ts::generators;

    fn shifted_pulse_dataset(n_per_class: usize, seed: u64) -> Dataset {
        // class 0: early pulse; class 1: late pulse; random small shifts
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut d = Dataset::new("pulse");
        for i in 0..n_per_class * 2 {
            let label = i % 2;
            let mut values = generators::gaussian_noise(&mut rng, 64, 0.05);
            let base = if label == 0 { 10 } else { 40 };
            let jitter = (i / 2) % 5;
            for k in 0..8 {
                values[base + jitter + k] += 2.0;
            }
            d.push(TimeSeries::with_label(values, label));
        }
        d
    }

    #[test]
    fn euclidean_1nn_classifies_clean_pulses() {
        let train = shifted_pulse_dataset(10, 1);
        let test = shifted_pulse_dataset(8, 2);
        let mut nn = NnClassifier::new(NnDistance::Euclidean);
        nn.fit(&train).unwrap();
        assert!(nn.error_rate(&test).unwrap() < 0.3);
        assert_eq!(nn.name(), "1NN-ED");
    }

    #[test]
    fn dtw_handles_warping_better_than_euclidean() {
        // classes differ by pulse width, instances differ by large shifts
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let make = |rng: &mut ChaCha8Rng, label: usize, shift: usize| {
            let mut values = generators::gaussian_noise(rng, 96, 0.05);
            let width = if label == 0 { 6 } else { 18 };
            for k in 0..width {
                values[20 + shift + k] += 2.0;
            }
            TimeSeries::with_label(values, label)
        };
        let mut train = Dataset::new("warp");
        let mut test = Dataset::new("warp");
        for i in 0..24 {
            train.push(make(&mut rng, i % 2, (i * 7) % 30));
        }
        for i in 0..16 {
            test.push(make(&mut rng, i % 2, (i * 11 + 3) % 30));
        }
        let mut ed = NnClassifier::new(NnDistance::Euclidean);
        ed.fit(&train).unwrap();
        let mut dtw = NnClassifier::new(NnDistance::Dtw {
            window_fraction: None,
        });
        dtw.fit(&train).unwrap();
        let ed_err = ed.error_rate(&test).unwrap();
        let dtw_err = dtw.error_rate(&test).unwrap();
        assert!(
            dtw_err <= ed_err,
            "dtw {dtw_err} should not be worse than euclidean {ed_err}"
        );
        assert!(dtw_err < 0.3, "dtw error {dtw_err}");
    }

    #[test]
    fn windowed_dtw_with_pruning_matches_unwindowed_on_easy_data() {
        let train = shifted_pulse_dataset(8, 3);
        let test = shifted_pulse_dataset(6, 4);
        let mut banded = NnClassifier::new(NnDistance::Dtw {
            window_fraction: Some(0.2),
        });
        banded.fit(&train).unwrap();
        assert!(banded.error_rate(&test).unwrap() < 0.35);
        assert!(banded.name().contains("1NN-DTW"));
    }

    #[test]
    fn unfitted_and_empty_errors() {
        let nn = NnClassifier::new(NnDistance::Euclidean);
        assert!(nn.predict_series(&TimeSeries::new(vec![0.0; 8])).is_err());
        let mut nn = NnClassifier::new(NnDistance::Euclidean);
        assert!(nn.fit(&Dataset::new("empty")).is_err());
    }
}
