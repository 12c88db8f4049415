//! Bag-of-Patterns (Lin, Khade & Li, 2012).
//!
//! Every series becomes a histogram over the SAX words of its sliding
//! windows; classification is 1-nearest-neighbour between histograms
//! (Euclidean distance over the joint vocabulary).
//!
//! Histograms are `BTreeMap`s so the summation order inside
//! `BagOfPatterns::distance` is the sorted word order — distances are
//! bit-deterministic across runs and thread counts, which `HashMap`'s
//! per-process hasher seed would break.

use crate::error::BaselineError;
use crate::traits::TscClassifier;
use crate::Result;
use std::collections::BTreeMap;
use tsg_ts::sax::{sax_words_sliding, SaxParams};
use tsg_ts::{Dataset, TimeSeries};

/// Bag-of-Patterns classifier (1NN over SAX word histograms).
#[derive(Debug, Clone)]
pub struct BagOfPatterns {
    /// Sliding window length as a fraction of the series length.
    pub window_fraction: f64,
    /// SAX parameters per window.
    pub sax: SaxParams,
    window: usize,
    train_bags: Vec<(BTreeMap<String, f64>, usize)>,
}

impl BagOfPatterns {
    /// Creates a classifier with the given window fraction and SAX setup.
    pub fn new(window_fraction: f64, sax: SaxParams) -> Self {
        BagOfPatterns {
            window_fraction,
            sax,
            window: 0,
            train_bags: Vec::new(),
        }
    }

    fn bag(&self, series: &TimeSeries) -> Result<BTreeMap<String, f64>> {
        let values = series.values();
        let mut bag = BTreeMap::new();
        if values.len() < self.window || self.window == 0 {
            let word = tsg_ts::sax::sax_word(
                values,
                SaxParams::new(
                    self.sax.alphabet_size,
                    self.sax.word_length.min(values.len()),
                )
                .map_err(BaselineError::from)?,
            )?;
            bag.insert(word, 1.0);
            return Ok(bag);
        }
        for word in sax_words_sliding(values, self.window, self.sax)? {
            *bag.entry(word).or_insert(0.0) += 1.0;
        }
        Ok(bag)
    }

    /// Histogram distance from the series to every training series, in
    /// training order. These are the raw decision values behind
    /// [`TscClassifier::predict_series`]; they are exposed so determinism
    /// tests can assert bit-identity of the actual floats, not just of
    /// the argmin.
    pub fn distances_to_train(&self, series: &TimeSeries) -> Result<Vec<f64>> {
        if self.train_bags.is_empty() {
            return Err(BaselineError::NotFitted);
        }
        let query = self.bag(series)?;
        Ok(self
            .train_bags
            .iter()
            .map(|(bag, _)| Self::distance(&query, bag))
            .collect())
    }

    fn distance(a: &BTreeMap<String, f64>, b: &BTreeMap<String, f64>) -> f64 {
        let mut sum = 0.0;
        for (word, &va) in a {
            let vb = b.get(word).copied().unwrap_or(0.0);
            sum += (va - vb) * (va - vb);
        }
        for (word, &vb) in b {
            if !a.contains_key(word) {
                sum += vb * vb;
            }
        }
        sum.sqrt()
    }
}

impl Default for BagOfPatterns {
    fn default() -> Self {
        BagOfPatterns::new(0.25, SaxParams::default())
    }
}

impl TscClassifier for BagOfPatterns {
    fn name(&self) -> String {
        "BagOfPatterns".to_string()
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
        let max_len = train.max_length();
        self.window = ((max_len as f64 * self.window_fraction).round() as usize)
            .clamp(self.sax.word_length.max(4), max_len.max(1));
        self.train_bags = train
            .series()
            .iter()
            .zip(labels)
            .map(|(s, l)| self.bag(s).map(|b| (b, l)))
            .collect::<Result<Vec<_>>>()?;
        Ok(())
    }

    fn predict_series(&self, series: &TimeSeries) -> Result<usize> {
        let dists = self.distances_to_train(series)?;
        let mut best_label = self.train_bags[0].1;
        let mut best_dist = f64::INFINITY;
        for (d, (_, label)) in dists.into_iter().zip(&self.train_bags) {
            if d < best_dist {
                best_dist = d;
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

    fn dataset(n_per_class: usize, seed: u64) -> Dataset {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut d = Dataset::new("bop");
        for i in 0..n_per_class * 2 {
            let label = i % 2;
            let values = if label == 0 {
                generators::sine_wave(&mut rng, 128, 8.0, 1.0, 0.0, 0.1)
            } else {
                generators::sine_wave(&mut rng, 128, 40.0, 1.0, 0.0, 0.1)
            };
            d.push(TimeSeries::with_label(values, label));
        }
        d
    }

    #[test]
    fn separates_frequencies() {
        let train = dataset(10, 1);
        let test = dataset(8, 2);
        let mut clf = BagOfPatterns::default();
        clf.fit(&train).unwrap();
        let err = clf.error_rate(&test).unwrap();
        assert!(err < 0.3, "error {err}");
    }

    #[test]
    fn histogram_distance_is_metric_like() {
        let mut a = BTreeMap::new();
        a.insert("abc".to_string(), 2.0);
        let mut b = BTreeMap::new();
        b.insert("abc".to_string(), 2.0);
        b.insert("abd".to_string(), 1.0);
        assert_eq!(BagOfPatterns::distance(&a, &a), 0.0);
        assert_eq!(BagOfPatterns::distance(&a, &b), 1.0);
        assert_eq!(BagOfPatterns::distance(&b, &a), 1.0);
    }

    #[test]
    fn unfitted_errors() {
        let clf = BagOfPatterns::default();
        assert!(clf.predict_series(&TimeSeries::new(vec![0.0; 16])).is_err());
    }
}
