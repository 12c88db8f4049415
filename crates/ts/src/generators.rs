//! Seeded synthetic time series generators.
//!
//! The reproduction cannot redistribute the UCR archive, so the dataset
//! substrate synthesises series whose *structural* properties (periodicity,
//! roughness, local patterns, regime switches) differ between classes. These
//! are exactly the properties visibility-graph features are sensitive to,
//! while the added nuisance variation (phase shifts, warping, noise) keeps
//! the distance- and shapelet-based baselines honest.
//!
//! All generators are deterministic given an RNG, which the dataset layer
//! seeds per dataset and per instance.

use rand::Rng;

/// White Gaussian noise of length `n` with the given standard deviation.
pub fn gaussian_noise<R: Rng + ?Sized>(rng: &mut R, n: usize, std: f64) -> Vec<f64> {
    (0..n).map(|_| std * standard_normal(rng)).collect()
}

/// Draws one standard normal variate via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Sine wave with the given period (in samples), amplitude, phase and
/// additive Gaussian noise.
pub fn sine_wave<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    period: f64,
    amplitude: f64,
    phase: f64,
    noise_std: f64,
) -> Vec<f64> {
    (0..n)
        .map(|i| {
            amplitude * ((2.0 * std::f64::consts::PI * i as f64 / period) + phase).sin()
                + noise_std * standard_normal(rng)
        })
        .collect()
}

/// Sum of several harmonics — a smooth quasi-periodic signal whose spectral
/// content is controlled by `periods` and `amplitudes`.
pub fn harmonic_mixture<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    components: &[(f64, f64)],
    noise_std: f64,
) -> Vec<f64> {
    let phases: Vec<f64> = components
        .iter()
        .map(|_| rng.gen_range(0.0..(2.0 * std::f64::consts::PI)))
        .collect();
    (0..n)
        .map(|i| {
            let mut v = 0.0;
            for ((period, amp), phase) in components.iter().zip(phases.iter()) {
                v += amp * ((2.0 * std::f64::consts::PI * i as f64 / period) + phase).sin();
            }
            v + noise_std * standard_normal(rng)
        })
        .collect()
}

/// First-order autoregressive process `x[t] = phi * x[t-1] + eps`.
pub fn ar1<R: Rng + ?Sized>(rng: &mut R, n: usize, phi: f64, noise_std: f64) -> Vec<f64> {
    let mut out = Vec::with_capacity(n);
    let mut x = 0.0;
    for _ in 0..n {
        x = phi * x + noise_std * standard_normal(rng);
        out.push(x);
    }
    out
}

/// Fully chaotic logistic map (`r = 4`) optionally corrupted with observation
/// noise — the canonical example in the HVG motif literature.
pub fn logistic_map<R: Rng + ?Sized>(rng: &mut R, n: usize, r: f64, noise_std: f64) -> Vec<f64> {
    let mut x: f64 = rng.gen_range(0.05..0.95);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        x = r * x * (1.0 - x);
        // keep the orbit inside (0,1) even for r slightly above 4
        x = x.clamp(1e-9, 1.0 - 1e-9);
        out.push(x + noise_std * standard_normal(rng));
    }
    out
}

/// Square-wave-like on/off appliance load profile: random duty cycles at a
/// base level with occasional high-power bursts.
pub fn appliance_profile<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    burst_level: f64,
    mean_on: usize,
    mean_off: usize,
    noise_std: f64,
) -> Vec<f64> {
    let mut out = Vec::with_capacity(n);
    let mut on = false;
    let mut remaining = 1 + rng.gen_range(0..mean_off.max(1));
    for _ in 0..n {
        if remaining == 0 {
            on = !on;
            let mean = if on { mean_on } else { mean_off };
            remaining = 1 + rng.gen_range(0..(2 * mean.max(1)));
        }
        remaining -= 1;
        let level = if on { burst_level } else { 0.0 };
        out.push(level + noise_std * standard_normal(rng));
    }
    out
}

/// ECG-like pulse train: a periodic sharp QRS-style spike plus smaller P/T
/// waves, with period jitter. `anomaly` injects an irregular beat pattern.
pub fn ecg_like<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    period: usize,
    qrs_amplitude: f64,
    anomaly: bool,
    noise_std: f64,
) -> Vec<f64> {
    let mut out = vec![0.0f64; n];
    let mut t = rng.gen_range(0..period.max(1));
    while t < n {
        let jitter = rng.gen_range(0..=(period / 8).max(1)) as i64 - (period as i64 / 16).max(1);
        // P wave
        add_gaussian_bump(
            &mut out,
            t as i64 - (period as i64) / 5,
            period as f64 / 16.0,
            0.15,
        );
        // QRS complex: sharp up-down
        add_gaussian_bump(&mut out, t as i64, period as f64 / 40.0, qrs_amplitude);
        add_gaussian_bump(
            &mut out,
            t as i64 + (period as i64) / 20,
            period as f64 / 40.0,
            -0.3 * qrs_amplitude,
        );
        // T wave
        add_gaussian_bump(
            &mut out,
            t as i64 + (period as i64) / 4,
            period as f64 / 10.0,
            0.3,
        );
        let step = if anomaly && rng.gen_bool(0.3) {
            // skipped / premature beat
            (period as f64 * rng.gen_range(0.5..1.6)) as i64
        } else {
            period as i64
        };
        let next = t as i64 + step + jitter;
        if next <= t as i64 {
            break;
        }
        t = next as usize;
    }
    for v in &mut out {
        *v += noise_std * standard_normal(rng);
    }
    out
}

/// Smooth closed-outline-like signal: the radial profile of a star-shaped
/// contour with `lobes` lobes — a stand-in for image-outline datasets
/// (ArrowHead, ShapesAll, phalanx outlines, …).
pub fn outline_profile<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    lobes: usize,
    lobe_depth: f64,
    irregularity: f64,
    noise_std: f64,
) -> Vec<f64> {
    let phase = rng.gen_range(0.0..(2.0 * std::f64::consts::PI));
    let wobble: Vec<f64> = (0..4)
        .map(|_| irregularity * standard_normal(rng))
        .collect();
    (0..n)
        .map(|i| {
            let theta = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
            let mut r = 1.0 + lobe_depth * ((lobes as f64) * theta + phase).cos();
            for (k, w) in wobble.iter().enumerate() {
                r += w * (((k + 1) as f64) * theta + 0.3 * phase).sin();
            }
            r + noise_std * standard_normal(rng)
        })
        .collect()
}

/// Injects a distinctive pattern (shapelet) at a random location of a noisy
/// background. The pattern is a scaled copy of `pattern`; returns the series.
pub fn inject_pattern<R: Rng + ?Sized>(
    rng: &mut R,
    background: Vec<f64>,
    pattern: &[f64],
    amplitude: f64,
) -> Vec<f64> {
    let mut out = background;
    if pattern.is_empty() || pattern.len() >= out.len() {
        return out;
    }
    let start = rng.gen_range(0..=(out.len() - pattern.len()));
    for (i, &p) in pattern.iter().enumerate() {
        out[start + i] += amplitude * p;
    }
    out
}

/// A smooth bump pattern usable as an injected shapelet.
pub fn bump_pattern(len: usize) -> Vec<f64> {
    (0..len)
        .map(|i| {
            let x = (i as f64 + 0.5) / len as f64;
            (std::f64::consts::PI * x).sin().powi(2)
        })
        .collect()
}

/// A sharp sawtooth pattern usable as an injected shapelet: three linear
/// ramps with instantaneous drops, structurally distinct from the smooth
/// [`bump_pattern`] both for shapelet distances and for visibility graphs
/// (the discontinuities create long-range visibility hubs).
pub fn sawtooth_pattern(len: usize) -> Vec<f64> {
    let teeth = 3.0;
    (0..len)
        .map(|i| {
            let x = (i as f64) / len as f64;
            (x * teeth).fract()
        })
        .collect()
}

/// Fractional-Brownian-motion-like series with tunable roughness.
///
/// Uses spectral synthesis: sums sinusoids with power-law amplitudes
/// `f^{-(2H+1)/2}`; larger Hurst exponent `h` gives smoother series.
pub fn fractional_noise<R: Rng + ?Sized>(rng: &mut R, n: usize, h: f64) -> Vec<f64> {
    let n_comp = 48.min(n / 2).max(1);
    let beta = 2.0 * h + 1.0;
    let comps: Vec<(f64, f64, f64)> = (1..=n_comp)
        .map(|k| {
            let freq = k as f64 / n as f64;
            let amp = freq.powf(-beta / 2.0);
            let phase = rng.gen_range(0.0..(2.0 * std::f64::consts::PI));
            (freq, amp, phase)
        })
        .collect();
    let norm: f64 = comps.iter().map(|(_, a, _)| a * a).sum::<f64>().sqrt();
    (0..n)
        .map(|i| {
            comps
                .iter()
                .map(|(f, a, p)| a * (2.0 * std::f64::consts::PI * f * i as f64 + p).sin())
                .sum::<f64>()
                / norm
        })
        .collect()
}

fn add_gaussian_bump(out: &mut [f64], center: i64, width: f64, amplitude: f64) {
    if width <= 0.0 {
        return;
    }
    let lo = (center as f64 - 4.0 * width).floor() as i64;
    let hi = (center as f64 + 4.0 * width).ceil() as i64;
    for i in lo..=hi {
        if i < 0 || i as usize >= out.len() {
            continue;
        }
        let d = (i - center) as f64 / width;
        out[i as usize] += amplitude * (-0.5 * d * d).exp();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(42)
    }

    #[test]
    fn lengths_are_respected() {
        let mut r = rng();
        assert_eq!(gaussian_noise(&mut r, 100, 1.0).len(), 100);
        assert_eq!(sine_wave(&mut r, 64, 16.0, 1.0, 0.0, 0.0).len(), 64);
        assert_eq!(ar1(&mut r, 30, 0.9, 1.0).len(), 30);
        assert_eq!(logistic_map(&mut r, 80, 4.0, 0.0).len(), 80);
        assert_eq!(ecg_like(&mut r, 200, 50, 1.0, false, 0.01).len(), 200);
        assert_eq!(outline_profile(&mut r, 120, 3, 0.4, 0.05, 0.01).len(), 120);
        assert_eq!(fractional_noise(&mut r, 90, 0.7).len(), 90);
        assert_eq!(appliance_profile(&mut r, 150, 5.0, 20, 40, 0.1).len(), 150);
    }

    #[test]
    fn generators_are_deterministic_given_seed() {
        let a = sine_wave(&mut rng(), 32, 8.0, 1.0, 0.0, 0.2);
        let b = sine_wave(&mut rng(), 32, 8.0, 1.0, 0.0, 0.2);
        assert_eq!(a, b);
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = rng();
        let xs: Vec<f64> = (0..20000).map(|_| standard_normal(&mut r)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn logistic_map_stays_near_unit_interval() {
        let mut r = rng();
        let xs = logistic_map(&mut r, 1000, 4.0, 0.0);
        assert!(xs.iter().all(|x| *x > 0.0 && *x < 1.0));
        // the chaotic orbit should fill the interval rather than settle
        let max = xs.iter().cloned().fold(f64::MIN, f64::max);
        let min = xs.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max > 0.9 && min < 0.1);
    }

    #[test]
    fn sine_wave_is_periodic() {
        let mut r = rng();
        let period = 32.0;
        let xs = sine_wave(&mut r, 256, period, 1.0, 0.3, 0.0);
        for i in 0..(256 - 32) {
            assert!((xs[i] - xs[i + 32]).abs() < 1e-9);
        }
    }

    #[test]
    fn ecg_like_has_dominant_spikes() {
        let mut r = rng();
        let xs = ecg_like(&mut r, 512, 64, 2.0, false, 0.0);
        let max = xs.iter().cloned().fold(f64::MIN, f64::max);
        assert!(max > 1.0, "expected QRS spikes, max {max}");
    }

    #[test]
    fn fractional_noise_smoothness_orders_by_hurst() {
        // higher H -> smoother -> smaller mean absolute first difference
        let rough = fractional_noise(&mut rng(), 512, 0.2);
        let smooth = fractional_noise(&mut rng(), 512, 0.9);
        let tv = |xs: &[f64]| {
            xs.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f64>() / (xs.len() - 1) as f64
        };
        assert!(tv(&rough) > tv(&smooth));
    }

    #[test]
    fn inject_pattern_changes_series_locally() {
        let mut r = rng();
        let background = vec![0.0; 100];
        let pat = bump_pattern(20);
        let with = inject_pattern(&mut r, background.clone(), &pat, 3.0);
        let n_changed = with
            .iter()
            .zip(background.iter())
            .filter(|(a, b)| (*a - *b).abs() > 1e-9)
            .count();
        assert!(n_changed > 0 && n_changed <= 20);
    }

    #[test]
    fn patterns_have_expected_shapes() {
        let bump = bump_pattern(11);
        assert!(bump[5] > bump[0]);
        assert!(bump.iter().all(|v| *v >= 0.0 && *v <= 1.0));
        let saw = sawtooth_pattern(10);
        assert_eq!(saw.len(), 10);
    }

    #[test]
    fn appliance_profile_has_two_levels() {
        let mut r = rng();
        let xs = appliance_profile(&mut r, 2000, 10.0, 30, 60, 0.01);
        let high = xs.iter().filter(|v| **v > 5.0).count();
        let low = xs.iter().filter(|v| **v < 5.0).count();
        assert!(high > 0 && low > 0);
    }
}
