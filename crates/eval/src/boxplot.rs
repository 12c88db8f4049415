//! Box-plot summaries (Figure 2: motif probability distributions per class).

/// Five-number summary plus mean of one group of values.
#[derive(Debug, Clone, PartialEq)]
pub struct BoxplotSummary {
    /// Group label (e.g. `"Class 1 P(M41)"`).
    pub label: String,
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
    /// Mean.
    pub mean: f64,
    /// Number of observations.
    pub n: usize,
}

impl BoxplotSummary {
    /// Computes the summary of a group of values (empty groups produce all
    /// zeros).
    pub fn compute(label: impl Into<String>, values: &[f64]) -> Self {
        let label = label.into();
        if values.is_empty() {
            return BoxplotSummary {
                label,
                min: 0.0,
                q1: 0.0,
                median: 0.0,
                q3: 0.0,
                max: 0.0,
                mean: 0.0,
                n: 0,
            };
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let q = |p: f64| -> f64 {
            let pos = p * (sorted.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            if lo == hi {
                sorted[lo]
            } else {
                sorted[lo] * (hi as f64 - pos) + sorted[hi] * (pos - lo as f64)
            }
        };
        BoxplotSummary {
            label,
            min: sorted[0],
            q1: q(0.25),
            median: q(0.5),
            q3: q(0.75),
            max: sorted[sorted.len() - 1],
            mean: values.iter().sum::<f64>() / values.len() as f64,
            n: values.len(),
        }
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_values() {
        let s = BoxplotSummary::compute("g", &[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.n, 5);
        assert_eq!(s.iqr(), 2.0);
    }

    #[test]
    fn summary_is_order_invariant() {
        let a = BoxplotSummary::compute("g", &[3.0, 1.0, 2.0]);
        let b = BoxplotSummary::compute("g", &[1.0, 2.0, 3.0]);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_group() {
        let s = BoxplotSummary::compute("empty", &[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.median, 0.0);
    }
}
