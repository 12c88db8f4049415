//! The common interface all baseline time series classifiers implement.

use crate::Result;
use tsg_ts::{Dataset, TimeSeries};

/// A time series classifier operating directly on raw series.
pub trait TscClassifier: Send {
    /// Short name used in result tables (e.g. `"1NN-DTW"`).
    fn name(&self) -> String;

    /// Fits the classifier on a labeled training dataset.
    fn fit(&mut self, train: &Dataset) -> Result<()>;

    /// Predicts the class of a single series.
    fn predict_series(&self, series: &TimeSeries) -> Result<usize>;

    /// Predicts the classes of every series in a dataset.
    fn predict(&self, test: &Dataset) -> Result<Vec<usize>> {
        test.series()
            .iter()
            .map(|s| self.predict_series(s))
            .collect()
    }

    /// Like [`TscClassifier::predict`], but spreads the per-series work
    /// over `n_threads` pool workers. Results must be bit-identical to the
    /// serial path for every thread count — parallelism is an
    /// implementation detail that may never leak into predictions (the
    /// tier-1 determinism harness asserts this for SAX-VSM).
    fn predict_parallel(&self, test: &Dataset, n_threads: usize) -> Result<Vec<usize>>
    where
        Self: Sync,
    {
        tsg_parallel::parallel_try_map(test.series(), n_threads, |s| self.predict_series(s))
    }

    /// Error rate on a labeled dataset (the quantity of the paper's tables).
    fn error_rate(&self, test: &Dataset) -> Result<f64> {
        let truth = test
            .labels_required()
            .map_err(|e| crate::BaselineError::InvalidTrainingData(e.to_string()))?;
        let predicted = self.predict(test)?;
        let wrong = truth
            .iter()
            .zip(predicted.iter())
            .filter(|(t, p)| t != p)
            .count();
        Ok(wrong as f64 / truth.len().max(1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial classifier that always predicts class 0 — exercises the
    /// default `predict` / `error_rate` implementations.
    struct Constant;

    impl TscClassifier for Constant {
        fn name(&self) -> String {
            "constant".into()
        }
        fn fit(&mut self, _train: &Dataset) -> Result<()> {
            Ok(())
        }
        fn predict_series(&self, _series: &TimeSeries) -> Result<usize> {
            Ok(0)
        }
    }

    #[test]
    fn default_methods_work() {
        let mut d = Dataset::new("toy");
        d.push(TimeSeries::with_label(vec![0.0, 1.0], 0));
        d.push(TimeSeries::with_label(vec![1.0, 0.0], 1));
        let mut c = Constant;
        c.fit(&d).unwrap();
        assert_eq!(c.predict(&d).unwrap(), vec![0, 0]);
        assert!((c.error_rate(&d).unwrap() - 0.5).abs() < 1e-12);
    }
}
