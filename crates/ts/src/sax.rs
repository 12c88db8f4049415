//! Symbolic Aggregate approXimation (SAX).
//!
//! SAX converts a real-valued series into a short word over a small alphabet:
//! the series is z-normalised, reduced with PAA, and each segment mean is
//! mapped to a symbol via breakpoints that equi-partition the standard normal
//! distribution. The SAX-VSM baseline builds on this transform.

use crate::error::TsError;
use crate::paa::paa;
use crate::preprocess::znormalize;
use crate::Result;

/// SAX parameters: alphabet cardinality and PAA word length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaxParams {
    /// Alphabet size (2 ..= 20).
    pub alphabet_size: usize,
    /// Number of PAA segments per word.
    pub word_length: usize,
}

impl SaxParams {
    /// Creates parameters, validating the supported ranges.
    pub fn new(alphabet_size: usize, word_length: usize) -> Result<Self> {
        if !(2..=20).contains(&alphabet_size) {
            return Err(TsError::invalid(
                "alphabet_size",
                format!("must be in [2, 20], got {alphabet_size}"),
            ));
        }
        if word_length == 0 {
            return Err(TsError::invalid("word_length", "must be positive"));
        }
        Ok(SaxParams {
            alphabet_size,
            word_length,
        })
    }
}

impl Default for SaxParams {
    fn default() -> Self {
        SaxParams {
            alphabet_size: 4,
            word_length: 8,
        }
    }
}

/// Gaussian breakpoints that divide N(0,1) into `a` equiprobable regions.
///
/// Returns `a - 1` ordered breakpoints. Values are precomputed for small
/// cardinalities (as is standard in the SAX literature) and computed by an
/// inverse-normal approximation otherwise.
fn gaussian_breakpoints(a: usize) -> Vec<f64> {
    match a {
        0 | 1 => Vec::new(),
        2 => vec![0.0],
        3 => vec![-0.43, 0.43],
        4 => vec![-0.67, 0.0, 0.67],
        5 => vec![-0.84, -0.25, 0.25, 0.84],
        6 => vec![-0.97, -0.43, 0.0, 0.43, 0.97],
        7 => vec![-1.07, -0.57, -0.18, 0.18, 0.57, 1.07],
        8 => vec![-1.15, -0.67, -0.32, 0.0, 0.32, 0.67, 1.15],
        9 => vec![-1.22, -0.76, -0.43, -0.14, 0.14, 0.43, 0.76, 1.22],
        10 => vec![-1.28, -0.84, -0.52, -0.25, 0.0, 0.25, 0.52, 0.84, 1.28],
        _ => (1..a)
            .map(|i| inverse_normal_cdf(i as f64 / a as f64))
            .collect(),
    }
}

/// Acklam-style rational approximation of the standard normal quantile
/// function, accurate to roughly 1e-9 over (0, 1).
fn inverse_normal_cdf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile requires p in (0,1)");
    // Coefficients from Peter Acklam's algorithm.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    const P_HIGH: f64 = 1.0 - P_LOW;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Converts a raw series into a SAX word of `params.word_length` symbols
/// drawn from the alphabet `a, b, c, …`.
///
/// The series is z-normalised first (the standard SAX pipeline). Series
/// shorter than the word length are rejected.
pub fn sax_word(values: &[f64], params: SaxParams) -> Result<String> {
    if values.is_empty() {
        return Err(TsError::EmptySeries);
    }
    if values.len() < params.word_length {
        return Err(TsError::invalid(
            "word_length",
            format!(
                "series of length {} cannot produce a {}-symbol word",
                values.len(),
                params.word_length
            ),
        ));
    }
    let z = znormalize(values);
    let segments = paa(&z, params.word_length)?;
    let breakpoints = gaussian_breakpoints(params.alphabet_size);
    let word: String = segments
        .iter()
        .map(|&v| symbol_for(v, &breakpoints))
        .collect();
    Ok(word)
}

/// Maps a value to its SAX symbol given ordered breakpoints.
fn symbol_for(value: f64, breakpoints: &[f64]) -> char {
    let mut idx = 0usize;
    for &bp in breakpoints {
        if value > bp {
            idx += 1;
        } else {
            break;
        }
    }
    (b'a' + idx as u8) as char
}

/// Slides a window of `window` points across the series (step 1) and emits
/// the SAX word for every window, applying the standard numerosity reduction
/// (consecutive identical words are collapsed into one).
pub fn sax_words_sliding(values: &[f64], window: usize, params: SaxParams) -> Result<Vec<String>> {
    if window == 0 || window > values.len() {
        return Err(TsError::invalid(
            "window",
            format!(
                "window {window} invalid for series of length {}",
                values.len()
            ),
        ));
    }
    let mut out: Vec<String> = Vec::new();
    for start in 0..=(values.len() - window) {
        let word = sax_word(&values[start..start + window], params)?;
        if out.last().map(|w| w != &word).unwrap_or(true) {
            out.push(word);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakpoints_are_ordered_and_symmetric() {
        for a in 2..=12 {
            let bp = gaussian_breakpoints(a);
            assert_eq!(bp.len(), a - 1);
            for w in bp.windows(2) {
                assert!(w[0] < w[1]);
            }
            // symmetry of the normal quantiles
            for i in 0..bp.len() {
                assert!((bp[i] + bp[bp.len() - 1 - i]).abs() < 0.02);
            }
        }
    }

    #[test]
    fn inverse_normal_cdf_matches_known_quantiles() {
        assert!(inverse_normal_cdf(0.5).abs() < 1e-9);
        assert!((inverse_normal_cdf(0.975) - 1.959964).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.025) + 1.959964).abs() < 1e-4);
    }

    #[test]
    fn sax_word_maps_low_to_a_high_to_last() {
        let mut v = vec![-2.0; 8];
        v.extend(vec![2.0; 8]);
        let params = SaxParams::new(4, 4).unwrap();
        let w = sax_word(&v, params).unwrap();
        assert_eq!(w.len(), 4);
        assert!(w.starts_with("aa"));
        assert!(w.ends_with("dd"));
    }

    #[test]
    fn sax_word_invariant_to_scaling_and_offset() {
        let v: Vec<f64> = (0..64).map(|i| ((i as f64) * 0.37).sin()).collect();
        let shifted: Vec<f64> = v.iter().map(|x| 100.0 + 5.0 * x).collect();
        let params = SaxParams::default();
        assert_eq!(
            sax_word(&v, params).unwrap(),
            sax_word(&shifted, params).unwrap()
        );
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(SaxParams::new(1, 4).is_err());
        assert!(SaxParams::new(25, 4).is_err());
        assert!(SaxParams::new(4, 0).is_err());
        let params = SaxParams::default();
        assert!(sax_word(&[1.0, 2.0], params).is_err());
        assert!(sax_word(&[], params).is_err());
    }

    #[test]
    fn sliding_words_collapse_repeats() {
        let v = vec![0.0; 40];
        let params = SaxParams::new(3, 4).unwrap();
        let words = sax_words_sliding(&v, 8, params).unwrap();
        // constant series: every window yields the same word, collapsed to one
        assert_eq!(words.len(), 1);
    }

    #[test]
    fn sliding_words_window_validation() {
        let v = vec![0.0; 10];
        let params = SaxParams::new(3, 4).unwrap();
        assert!(sax_words_sliding(&v, 0, params).is_err());
        assert!(sax_words_sliding(&v, 11, params).is_err());
    }
}
