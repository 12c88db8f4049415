//! Generator families.
//!
//! Every synthetic dataset belongs to a family that mirrors the domain of the
//! original UCR dataset. A family knows how to produce one series given the
//! class index, the number of classes and the target length; class identity
//! is encoded in *structural* parameters (period, roughness, duty cycle,
//! lobe count, embedded pattern, …), while everything else (phase, jitter,
//! noise, regime boundaries) is nuisance variation drawn fresh per instance.

use rand::Rng;
use tsg_ts::generators as gen;

/// The generator family of a synthetic dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Radial outline profiles (image-outline datasets: ArrowHead, ShapesAll,
    /// phalanx outlines, Herring, BeetleFly, BirdChicken, …). Classes differ
    /// in lobe count and lobe depth.
    Outline,
    /// ECG-like pulse trains (ECG5000). Classes differ in rhythm period and
    /// the presence of irregular beats.
    Ecg,
    /// Appliance / device load profiles (ElectricDevices, *Appliances,
    /// RefrigerationDevices, ScreenType, Computers). Classes differ in duty
    /// cycle and burst level.
    Device,
    /// Noisy industrial sensor data (FordA, FordB, Earthquakes, Phoneme,
    /// InsectWingbeatSound). Classes differ in spectral content buried in
    /// noise.
    Sensor,
    /// Motion / gesture data (UWaveGestureLibraryAll, ToeSegmentation,
    /// Worms). Classes differ in smoothness (Hurst-like roughness) and
    /// low-frequency shape.
    Motion,
    /// Spectrographic curves (Meat, Strawberry, Wine, Ham, HandOutlines).
    /// Classes differ in the location/width of smooth absorption bumps.
    Spectro,
    /// Pattern-injection data (ShapeletSim, ToeSegmentation): classes are
    /// defined purely by which local pattern appears somewhere in noise.
    Shapelet,
    /// Chaotic-vs-stochastic data: classes mix logistic-map dynamics and
    /// coloured noise in different proportions (used for Phoneme-like
    /// many-class problems).
    Chaotic,
}

impl Family {
    /// Generates one series of `length` points for class `class` (of
    /// `n_classes`).
    pub fn generate<R: Rng + ?Sized>(
        self,
        rng: &mut R,
        class: usize,
        n_classes: usize,
        length: usize,
    ) -> Vec<f64> {
        let frac = if n_classes > 1 {
            class as f64 / (n_classes - 1) as f64
        } else {
            0.0
        };
        match self {
            Family::Outline => {
                // neighbouring classes share the lobe count and differ only in
                // lobe depth, and every instance carries strong irregular
                // wobble and observation noise — global curve matching (1NN)
                // has to cope with the same ambiguity the real outline
                // datasets exhibit, while the aggregate graph statistics stay
                // informative
                let lobes = 2 + class / 2 % 7;
                let depth = 0.2 + 0.12 * (class % 2) as f64 + 0.05 * (class % 3) as f64;
                gen::outline_profile(rng, length, lobes, depth, 0.12, 0.15)
            }
            Family::Ecg => {
                let period = (length / (6 + class % 4)).max(16);
                let anomaly = class % 2 == 1;
                let amplitude = 1.5 + 0.5 * frac;
                gen::ecg_like(rng, length, period, amplitude, anomaly, 0.2)
            }
            Family::Device => {
                let burst = 2.0 + 2.0 * (class % 3) as f64;
                let mean_on = 8 + 12 * (class % 4);
                let mean_off = 20 + 10 * (class % 3);
                gen::appliance_profile(rng, length, burst, mean_on, mean_off, 0.2)
            }
            Family::Sensor => {
                // class-dependent dominant frequency and signal-to-noise
                // ratio, hidden in broadband noise
                let base_period = length as f64 / (4.0 + 6.0 * frac + (class % 3) as f64);
                let amplitude = 1.0 + 0.8 * frac;
                let components = [
                    (base_period, amplitude),
                    (base_period / 2.3, 0.5 * amplitude),
                    (base_period / 5.1, 0.25),
                ];
                gen::harmonic_mixture(rng, length, &components, 0.8 - 0.4 * frac)
            }
            Family::Motion => {
                let h = 0.25 + 0.5 * frac;
                let mut base = gen::fractional_noise(rng, length, h);
                let drift = gen::sine_wave(
                    rng,
                    length,
                    length as f64 / (1.0 + (class % 3) as f64),
                    0.6,
                    0.0,
                    0.0,
                );
                for (b, d) in base.iter_mut().zip(drift.iter()) {
                    *b += d;
                }
                base
            }
            Family::Spectro => {
                // smooth baseline + class-positioned absorption bumps
                let mut values = vec![0.0f64; length];
                let n_bumps = 2 + class % 3;
                for b in 0..n_bumps {
                    let center = ((0.15 + 0.3 * frac + 0.2 * b as f64) * length as f64) as i64
                        % length as i64;
                    let width = length as f64 * (0.025 + 0.02 * class as f64);
                    let amp = (1.0 + 0.5 * (b as f64)) * (1.0 + 0.35 * frac);
                    add_bump(&mut values, center, width, amp);
                }
                for v in values.iter_mut() {
                    *v += 0.12 * gen::standard_normal(rng);
                }
                values
            }
            Family::Shapelet => {
                let background = gen::gaussian_noise(rng, length, 0.4);
                let pat_len = (length / 8).max(6);
                let pattern = match class % 3 {
                    0 => gen::bump_pattern(pat_len),
                    1 => gen::sawtooth_pattern(pat_len),
                    _ => {
                        let mut p = gen::bump_pattern(pat_len);
                        for (k, v) in p.iter_mut().enumerate() {
                            if k >= pat_len / 2 {
                                *v = -*v;
                            }
                        }
                        p
                    }
                };
                gen::inject_pattern(rng, background, &pattern, 3.0 + frac)
            }
            Family::Chaotic => {
                let chaos = gen::logistic_map(rng, length, 4.0, 0.0);
                let noise = gen::ar1(rng, length, 0.3 + 0.6 * frac, 0.5);
                let mix = frac;
                chaos
                    .iter()
                    .zip(noise.iter())
                    .map(|(c, n)| (1.0 - mix) * (c - 0.5) * 2.0 + mix * n * 0.5)
                    .collect()
            }
        }
    }
}

fn add_bump(values: &mut [f64], center: i64, width: f64, amplitude: f64) {
    let lo = (center as f64 - 4.0 * width).floor() as i64;
    let hi = (center as f64 + 4.0 * width).ceil() as i64;
    for i in lo..=hi {
        if i < 0 || i as usize >= values.len() {
            continue;
        }
        let d = (i - center) as f64 / width;
        values[i as usize] += amplitude * (-0.5 * d * d).exp();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    const FAMILIES: [Family; 8] = [
        Family::Outline,
        Family::Ecg,
        Family::Device,
        Family::Sensor,
        Family::Motion,
        Family::Spectro,
        Family::Shapelet,
        Family::Chaotic,
    ];

    #[test]
    fn all_families_produce_requested_length() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for family in FAMILIES {
            for class in 0..4 {
                let s = family.generate(&mut rng, class, 4, 200);
                assert_eq!(s.len(), 200, "{family:?}");
                assert!(s.iter().all(|v| v.is_finite()), "{family:?}");
            }
        }
    }

    #[test]
    fn classes_differ_structurally() {
        // for each family, the mean feature (std of first difference) should
        // differ between class 0 and the last class more than within a class
        for family in FAMILIES {
            let roughness = |s: &[f64]| {
                let d: Vec<f64> = s.windows(2).map(|w| w[1] - w[0]).collect();
                let m = d.iter().sum::<f64>() / d.len() as f64;
                (d.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / d.len() as f64).sqrt()
            };
            let sample = |class: usize, seed: u64| {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let series = family.generate(&mut rng, class, 4, 256);
                roughness(&series)
            };
            let a: f64 = (0..5).map(|i| sample(0, 100 + i)).sum::<f64>() / 5.0;
            let b: f64 = (0..5).map(|i| sample(3, 200 + i)).sum::<f64>() / 5.0;
            // not all families encode class in roughness; accept either a
            // roughness difference or a mean/amplitude difference
            let amp = |class: usize, seed: u64| {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let series = family.generate(&mut rng, class, 4, 256);
                let lo = series.iter().cloned().fold(f64::MAX, f64::min);
                let hi = series.iter().cloned().fold(f64::MIN, f64::max);
                hi - lo
            };
            let a2: f64 = (0..5).map(|i| amp(0, 300 + i)).sum::<f64>() / 5.0;
            let b2: f64 = (0..5).map(|i| amp(3, 400 + i)).sum::<f64>() / 5.0;
            let rel_rough = (a - b).abs() / a.abs().max(1e-9);
            let rel_amp = (a2 - b2).abs() / a2.abs().max(1e-9);
            assert!(
                rel_rough > 0.05 || rel_amp > 0.05,
                "{family:?}: classes look identical (rough {rel_rough:.3}, amp {rel_amp:.3})"
            );
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        for family in FAMILIES {
            let mut r1 = ChaCha8Rng::seed_from_u64(9);
            let mut r2 = ChaCha8Rng::seed_from_u64(9);
            assert_eq!(
                family.generate(&mut r1, 1, 3, 100),
                family.generate(&mut r2, 1, 3, 100)
            );
        }
    }

    #[test]
    fn single_class_edge_case() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let s = Family::Sensor.generate(&mut rng, 0, 1, 64);
        assert_eq!(s.len(), 64);
    }
}
