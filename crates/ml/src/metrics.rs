//! Classification metrics: accuracy, error rate, cross-entropy (log-loss)
//! and confusion matrices.

/// Fraction of predictions equal to the ground truth.
pub fn accuracy(truth: &[usize], predicted: &[usize]) -> f64 {
    assert_eq!(truth.len(), predicted.len(), "length mismatch");
    if truth.is_empty() {
        return 0.0;
    }
    let correct = truth
        .iter()
        .zip(predicted.iter())
        .filter(|(t, p)| t == p)
        .count();
    correct as f64 / truth.len() as f64
}

/// `1 - accuracy`, the quantity the paper's tables report.
pub fn error_rate(truth: &[usize], predicted: &[usize]) -> f64 {
    1.0 - accuracy(truth, predicted)
}

/// Multi-class cross-entropy (equation 5 generalised to `k` classes):
/// `-(1/n) Σ log p_i(y_i)`. Probabilities are clipped to `[1e-15, 1]` so the
/// loss stays finite.
pub fn log_loss(truth: &[usize], probabilities: &[Vec<f64>]) -> f64 {
    assert_eq!(truth.len(), probabilities.len(), "length mismatch");
    if truth.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    for (&y, p) in truth.iter().zip(probabilities.iter()) {
        let py = p.get(y).copied().unwrap_or(0.0).clamp(1e-15, 1.0);
        total -= py.ln();
    }
    total / truth.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_and_error_rate() {
        let t = [0, 1, 2, 1];
        let p = [0, 1, 1, 1];
        assert!((accuracy(&t, &p) - 0.75).abs() < 1e-12);
        assert!((error_rate(&t, &p) - 0.25).abs() < 1e-12);
        assert_eq!(accuracy(&[], &[]), 0.0);
    }

    #[test]
    fn log_loss_perfect_and_poor() {
        let t = [0usize, 1];
        let perfect = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        assert!(log_loss(&t, &perfect) < 1e-10);
        let uncertain = vec![vec![0.5, 0.5], vec![0.5, 0.5]];
        assert!((log_loss(&t, &uncertain) - 0.5f64.ln().abs()).abs() < 1e-9);
        let wrong = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        assert!(log_loss(&t, &wrong) > 10.0); // clipped, large but finite
        assert!(log_loss(&t, &wrong).is_finite());
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        accuracy(&[0, 1], &[0]);
    }
}
