//! Core time series and dataset types.
//!
//! A time series instance (Definition 2.1) is an ordered sequence of
//! real-valued variables. A [`Dataset`] is a collection of labeled time
//! series, the unit on which classification experiments run.

use crate::error::TsError;
use crate::stats;
use crate::Result;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A single univariate, real-valued time series with an optional class label.
///
/// Values are stored as `f64`; labels are small non-negative integers encoded
/// as `usize` (the synthetic archive and the UCR text format both use integer
/// class labels).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    values: Vec<f64>,
    label: Option<usize>,
}

impl TimeSeries {
    /// Creates an unlabeled time series from raw values.
    pub fn new(values: Vec<f64>) -> Self {
        TimeSeries {
            values,
            label: None,
        }
    }

    /// Creates a labeled time series.
    pub fn with_label(values: Vec<f64>, label: usize) -> Self {
        TimeSeries {
            values,
            label: Some(label),
        }
    }

    /// The sequence of values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the values (used by preprocessing).
    pub fn values_mut(&mut self) -> &mut Vec<f64> {
        &mut self.values
    }

    /// The class label, if any.
    pub fn label(&self) -> Option<usize> {
        self.label
    }

    /// Sets the class label.
    pub fn set_label(&mut self, label: usize) {
        self.label = Some(label);
    }

    /// The dimensionality (length) of the series, `|T|` in the paper.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the series has no points.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean of the values.
    pub fn mean(&self) -> f64 {
        stats::mean(&self.values)
    }

    /// Population standard deviation of the values.
    pub fn std(&self) -> f64 {
        stats::std(&self.values)
    }

    /// Minimum value (NaN-free series assumed); returns `None` when empty.
    pub fn min(&self) -> Option<f64> {
        self.values.iter().cloned().reduce(f64::min)
    }

    /// Maximum value; returns `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.values.iter().cloned().reduce(f64::max)
    }

    /// Returns a z-normalised copy (zero mean, unit variance).
    ///
    /// Constant series (standard deviation below `1e-12`) normalise to all
    /// zeros rather than dividing by zero.
    pub fn znormalized(&self) -> TimeSeries {
        let z = crate::preprocess::znormalize(&self.values);
        TimeSeries {
            values: z,
            label: self.label,
        }
    }

    /// Extracts the subsequence `[start, start + len)`.
    ///
    /// Returns an error when the window exceeds the series bounds.
    pub fn subsequence(&self, start: usize, len: usize) -> Result<TimeSeries> {
        if start + len > self.values.len() {
            return Err(TsError::invalid(
                "subsequence",
                format!(
                    "window [{start}, {}) out of bounds for length {}",
                    start + len,
                    self.values.len()
                ),
            ));
        }
        Ok(TimeSeries {
            values: self.values[start..start + len].to_vec(),
            label: self.label,
        })
    }
}

impl From<Vec<f64>> for TimeSeries {
    fn from(values: Vec<f64>) -> Self {
        TimeSeries::new(values)
    }
}

impl From<&[f64]> for TimeSeries {
    fn from(values: &[f64]) -> Self {
        TimeSeries::new(values.to_vec())
    }
}

/// A labeled collection of time series — one split (train or test) of a
/// classification dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Dataset {
    /// Dataset name (e.g. `"ArrowHead"`).
    pub name: String,
    series: Vec<TimeSeries>,
}

impl Dataset {
    /// Creates an empty dataset with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Dataset {
            name: name.into(),
            series: Vec::new(),
        }
    }

    /// Creates a dataset from pre-built series.
    pub fn from_series(name: impl Into<String>, series: Vec<TimeSeries>) -> Self {
        Dataset {
            name: name.into(),
            series,
        }
    }

    /// Adds one series.
    pub fn push(&mut self, series: TimeSeries) {
        self.series.push(series);
    }

    /// All series in insertion order.
    pub fn series(&self) -> &[TimeSeries] {
        &self.series
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Whether the dataset holds no instances.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Returns the labels of all instances; unlabeled instances map to `None`.
    pub fn labels(&self) -> Vec<Option<usize>> {
        self.series.iter().map(|s| s.label()).collect()
    }

    /// Returns the labels, erroring if any instance is unlabeled.
    pub fn labels_required(&self) -> Result<Vec<usize>> {
        self.series
            .iter()
            .map(|s| {
                s.label()
                    .ok_or_else(|| TsError::invalid("labels", "dataset contains unlabeled series"))
            })
            .collect()
    }

    /// Number of distinct class labels present.
    pub fn n_classes(&self) -> usize {
        self.class_counts().len()
    }

    /// Histogram of class labels.
    pub fn class_counts(&self) -> BTreeMap<usize, usize> {
        let mut counts = BTreeMap::new();
        for s in &self.series {
            if let Some(l) = s.label() {
                *counts.entry(l).or_insert(0) += 1;
            }
        }
        counts
    }

    /// Length of the longest series in the dataset.
    pub fn max_length(&self) -> usize {
        self.series.iter().map(|s| s.len()).max().unwrap_or(0)
    }

    /// Returns `true` when every series has the same length.
    pub fn is_uniform_length(&self) -> bool {
        match self.series.first() {
            None => true,
            Some(first) => self.series.iter().all(|s| s.len() == first.len()),
        }
    }

    /// Z-normalises every series in place.
    pub fn znormalize(&mut self) {
        for s in &mut self.series {
            let z = crate::preprocess::znormalize(s.values());
            *s.values_mut() = z;
        }
    }

    /// Summary of the dataset shape, mirroring the `#Cls / #Train / Dim.`
    /// columns of the paper's tables.
    pub fn summary(&self) -> DatasetSummary {
        DatasetSummary {
            name: self.name.clone(),
            n_instances: self.len(),
            n_classes: self.n_classes(),
            length: self.max_length(),
        }
    }
}

/// Shape summary for one dataset split.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DatasetSummary {
    /// Dataset name.
    pub name: String,
    /// Number of instances in the split.
    pub n_instances: usize,
    /// Number of distinct classes.
    pub n_classes: usize,
    /// Series length (dimensionality).
    pub length: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> TimeSeries {
        TimeSeries::with_label(vec![1.0, 2.0, 3.0, 4.0], 1)
    }

    #[test]
    fn basic_accessors() {
        let t = toy();
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
        assert_eq!(t.label(), Some(1));
        assert_eq!(t.values(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.min(), Some(1.0));
        assert_eq!(t.max(), Some(4.0));
        assert!((t.mean() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn znormalized_has_zero_mean_unit_std() {
        let t = toy().znormalized();
        assert!(t.mean().abs() < 1e-12);
        assert!((t.std() - 1.0).abs() < 1e-9);
        assert_eq!(t.label(), Some(1));
    }

    #[test]
    fn znormalized_constant_series_is_zeros() {
        let t = TimeSeries::new(vec![5.0; 8]).znormalized();
        assert!(t.values().iter().all(|v| *v == 0.0));
    }

    #[test]
    fn subsequence_bounds() {
        let t = toy();
        let sub = t.subsequence(1, 2).unwrap();
        assert_eq!(sub.values(), &[2.0, 3.0]);
        assert!(t.subsequence(3, 2).is_err());
    }

    #[test]
    fn dataset_class_counts() {
        let mut d = Dataset::new("toy");
        d.push(TimeSeries::with_label(vec![0.0; 4], 0));
        d.push(TimeSeries::with_label(vec![1.0; 4], 1));
        d.push(TimeSeries::with_label(vec![2.0; 4], 1));
        assert_eq!(d.len(), 3);
        assert_eq!(d.n_classes(), 2);
        let counts = d.class_counts();
        assert_eq!(counts[&0], 1);
        assert_eq!(counts[&1], 2);
        assert!(d.is_uniform_length());
        assert_eq!(d.max_length(), 4);
        assert_eq!(d.labels_required().unwrap(), vec![0, 1, 1]);
    }

    #[test]
    fn dataset_summary_matches_shape() {
        let mut d = Dataset::new("toy");
        for i in 0..5 {
            d.push(TimeSeries::with_label(vec![0.0; 16], i % 2));
        }
        let s = d.summary();
        assert_eq!(s.n_instances, 5);
        assert_eq!(s.n_classes, 2);
        assert_eq!(s.length, 16);
        assert_eq!(s.name, "toy");
    }

    #[test]
    fn labels_required_fails_on_unlabeled() {
        let mut d = Dataset::new("toy");
        d.push(TimeSeries::new(vec![0.0; 4]));
        assert!(d.labels_required().is_err());
    }

    #[test]
    fn dataset_znormalize_all() {
        let mut d = Dataset::new("toy");
        d.push(TimeSeries::with_label(vec![1.0, 2.0, 3.0], 0));
        d.push(TimeSeries::with_label(vec![10.0, 20.0, 30.0], 1));
        d.znormalize();
        for s in d.series() {
            assert!(s.mean().abs() < 1e-12);
        }
    }
}
