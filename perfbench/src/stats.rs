//! Order statistics over per-op samples.

/// `tsg_ts::stats::quantile` (linear interpolation between the two closest
/// ranks), except that an empty sample gives NaN instead of 0, so a metric
/// with no samples fails the result line instead of reading as 0.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    tsg_ts::stats::quantile(values, q)
}

/// The median (`quantile(values, 0.5)`).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_hand_computed_values() {
        // sorted: 1 2 3 4 → ranks 0..3
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&values), 2.5); // halfway between ranks 1 and 2
        assert!((quantile(&values, 0.9) - 3.7).abs() < 1e-12); // rank 2.7
        assert!((quantile(&values, 0.25) - 1.75).abs() < 1e-12); // rank 0.75
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&values, 1.0), 4.0);
        // ten samples 1..=10: p90 sits at rank 8.1
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quantile(&ten, 0.9) - 9.1).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }
}
