//! Multiscale approximation and representation (Definitions 3.1 and 3.2).
//!
//! Given a series `T0` of length `n`, its approximated multiscale
//! representation is the set `{T1, …, Tm}` where `|Ti| = n / 2^i`, stopping
//! once the next approximation would fall below a minimum length `τ`. The
//! full multiscale representation additionally includes `T0` itself.

use crate::paa::paa;
use crate::series::TimeSeries;
use crate::Result;

/// Options controlling the multiscale cascade.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiscaleOptions {
    /// Minimum length of the smallest approximation, `τ` in the paper.
    ///
    /// The paper suggests a small integer such as 15 as an optimisation trick
    /// and notes that a value of 0 is always safe; we default to 15.
    pub tau: usize,
    /// Hard cap on the number of downscaled approximations (safety valve for
    /// extremely long series). `usize::MAX` means "no cap".
    pub max_scales: usize,
}

impl Default for MultiscaleOptions {
    fn default() -> Self {
        MultiscaleOptions {
            tau: 15,
            max_scales: usize::MAX,
        }
    }
}

impl MultiscaleOptions {
    /// Convenience constructor for a custom `τ`.
    pub fn with_tau(tau: usize) -> Self {
        MultiscaleOptions {
            tau,
            ..Default::default()
        }
    }

    /// Number of PAA halvings the cascade takes from a series of `len`
    /// points: it halves while the next scale stays longer than `τ` (and
    /// the current one has at least 2 points), up to `max_scales` times.
    /// The one stop rule behind the cascade, scale counting and feature
    /// naming.
    pub fn halvings(&self, len: usize) -> usize {
        let mut halvings = 0usize;
        let mut current = len;
        while current / 2 > self.tau && current >= 2 && halvings < self.max_scales {
            current /= 2;
            halvings += 1;
        }
        halvings
    }
}

/// The multiscale representation of one series: the original plus its
/// downscaled approximations (Definition 3.2).
#[derive(Debug, Clone, PartialEq)]
pub struct MultiscaleRepresentation {
    /// `T0`, the original series.
    pub original: TimeSeries,
    /// `T1..Tm`, successive PAA halvings of `T0`.
    pub approximations: Vec<TimeSeries>,
}

impl MultiscaleRepresentation {
    /// Builds the multiscale representation of `series`.
    pub fn build(series: &TimeSeries, options: MultiscaleOptions) -> Result<Self> {
        let approximations = multiscale_approximations(series, options)?;
        Ok(MultiscaleRepresentation {
            original: series.clone(),
            approximations,
        })
    }
}

/// Computes the approximated multiscale representation `{T1, …, Tm}` of
/// Definition 3.1: successive halvings by PAA until the next scale would be
/// `≤ τ` points long ([`MultiscaleOptions::halvings`]).
pub fn multiscale_approximations(
    series: &TimeSeries,
    options: MultiscaleOptions,
) -> Result<Vec<TimeSeries>> {
    let halvings = options.halvings(series.len());
    let mut out: Vec<TimeSeries> = Vec::with_capacity(halvings);
    for _ in 0..halvings {
        let current = out.last().map_or(series.values(), |t| t.values());
        let mut t = TimeSeries::new(paa(current, current.len() / 2)?);
        if let Some(l) = series.label() {
            t.set_label(l);
        }
        out.push(t);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> TimeSeries {
        TimeSeries::with_label((0..n).map(|i| i as f64).collect(), 2)
    }

    #[test]
    fn lengths_halve_each_scale() {
        let t = ramp(256);
        let opts = MultiscaleOptions::with_tau(15);
        let approx = multiscale_approximations(&t, opts).unwrap();
        let lens: Vec<usize> = approx.iter().map(|t| t.len()).collect();
        assert_eq!(lens, vec![128, 64, 32, 16]);
        // next would be 8 <= tau, so stop
    }

    #[test]
    fn labels_propagate() {
        let t = ramp(64);
        let approx = multiscale_approximations(&t, MultiscaleOptions::with_tau(4)).unwrap();
        assert!(!approx.is_empty());
        assert!(approx.iter().all(|a| a.label() == Some(2)));
    }

    #[test]
    fn tau_zero_goes_down_to_two_points() {
        let t = ramp(64);
        let approx = multiscale_approximations(&t, MultiscaleOptions::with_tau(0)).unwrap();
        let last = approx.last().unwrap();
        assert!(
            last.len() <= 2,
            "smallest scale should be tiny, got {}",
            last.len()
        );
    }

    #[test]
    fn short_series_produce_no_scales() {
        let t = ramp(16);
        let approx = multiscale_approximations(&t, MultiscaleOptions::with_tau(15)).unwrap();
        assert!(approx.is_empty());
    }

    #[test]
    fn representation_total_points_bounded_by_2n() {
        let t = ramp(500);
        let rep = MultiscaleRepresentation::build(&t, MultiscaleOptions::with_tau(0)).unwrap();
        let total_points = rep.original.len()
            + rep
                .approximations
                .iter()
                .map(TimeSeries::len)
                .sum::<usize>();
        assert!(total_points < 2 * t.len());
        assert_eq!(rep.original.len(), 500);
    }

    #[test]
    fn max_scales_caps_cascade() {
        let t = ramp(1024);
        let opts = MultiscaleOptions {
            tau: 0,
            max_scales: 2,
        };
        let approx = multiscale_approximations(&t, opts).unwrap();
        assert_eq!(approx.len(), 2);
    }

    #[test]
    fn approximation_preserves_mean() {
        let t = ramp(128);
        let rep = MultiscaleRepresentation::build(&t, MultiscaleOptions::default()).unwrap();
        let orig_mean = t.mean();
        for scale in &rep.approximations {
            assert!((scale.mean() - orig_mean).abs() < 1e-9);
        }
    }
}
