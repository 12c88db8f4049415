//! The tiered feature catalogue: named feature families with cost metadata.
//!
//! The extractor used to compute one fixed MVG block. This module grows it
//! into an hcga-style *catalogue*: every feature belongs to a named family,
//! every family carries a [`CostTier`] (how expensive it is per series) and
//! a [`FamilyScope`] (computed once per series, or once per visibility
//! graph). Two family groups exist:
//!
//! * **per-graph** families — the paper's motif probability distributions
//!   and scalar graph statistics, repeated for every `(scale × kind)` graph;
//! * **per-series** families — a tsfresh-style statistical layer computed
//!   directly on the (detrended) series: distribution moments and
//!   quantiles, linear trend, peak counts, autocorrelation lags and DFT
//!   magnitudes from a small hand-rolled real-input DFT.
//!
//! The cost tiers drive the per-family timing table in `tsg_bench` and the
//! pruning workflow: [`FeatureSelection`] names an importance-chosen subset
//! of the wide catalogue, and the extractor then computes only the graphs,
//! censuses and families that subset actually needs.
//!
//! Every statistical feature is total: for finite input it produces a
//! finite number (degenerate cases — zero variance, lags or coefficients
//! beyond the series length — yield `0.0`), except `energy`, whose true
//! value can exceed `f64::MAX`. This matters because the scalers downstream
//! reject non-finite features at `fit`. A series whose magnitude reaches
//! `2^240` is divided by an exact power of two before the layer is computed
//! and the features that scale with it are multiplied back, so its moments
//! cannot overflow; below that bound the series is used as is.

use crate::importance::FeatureImportance;
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeSet;
use tsg_ts::stats;

/// How expensive a feature family is to compute, per series.
///
/// The tiers mirror the hcga convention: `Fast` families are linear scans,
/// `Medium` families are a few linear passes (or an `O(n·k)` transform with
/// small `k`), `Slow` families dominate extraction time (the motif census).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CostTier {
    /// One linear pass over the series.
    Fast,
    /// A few passes / small super-linear transforms.
    Medium,
    /// Dominates extraction time.
    Slow,
}

impl CostTier {
    /// Lower-case label used in tables and JSON artifacts.
    pub fn as_str(self) -> &'static str {
        match self {
            CostTier::Fast => "fast",
            CostTier::Medium => "medium",
            CostTier::Slow => "slow",
        }
    }
}

/// Whether a family is computed once per series or once per visibility graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FamilyScope {
    /// Computed directly on the series values.
    PerSeries,
    /// Computed on every `(scale × kind)` graph of the representation.
    PerGraph,
}

impl FamilyScope {
    /// Lower-case label used in tables and JSON artifacts.
    pub fn as_str(self) -> &'static str {
        match self {
            FamilyScope::PerSeries => "per-series",
            FamilyScope::PerGraph => "per-graph",
        }
    }
}

/// One named feature family of the catalogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FamilySpec {
    /// Stable family identifier (used in timing tables and docs).
    pub name: &'static str,
    /// Runtime cost tier.
    pub tier: CostTier,
    /// Per-series or per-graph.
    pub scope: FamilyScope,
    /// One-line description.
    pub description: &'static str,
}

/// The full catalogue, per-graph families first, then the statistical layer
/// in its wide-vector order.
pub const FAMILIES: &[FamilySpec] = &[
    FamilySpec {
        name: "motifs",
        tier: CostTier::Slow,
        scope: FamilyScope::PerGraph,
        description: "normalised motif probability distribution (17 per graph)",
    },
    FamilySpec {
        name: "graph-stats",
        tier: CostTier::Medium,
        scope: FamilyScope::PerGraph,
        description: "density, max coreness, assortativity, degree statistics (7 per graph)",
    },
    FamilySpec {
        name: "dist",
        tier: CostTier::Fast,
        scope: FamilyScope::PerSeries,
        description: "moments, quantiles, energy and counts around the mean (16)",
    },
    FamilySpec {
        name: "trend",
        tier: CostTier::Fast,
        scope: FamilyScope::PerSeries,
        description: "least-squares linear trend slope and intercept (2)",
    },
    FamilySpec {
        name: "peaks",
        tier: CostTier::Fast,
        scope: FamilyScope::PerSeries,
        description: "strict local maxima / minima counts (2)",
    },
    FamilySpec {
        name: "acf",
        tier: CostTier::Medium,
        scope: FamilyScope::PerSeries,
        description: "autocorrelation at lags 1..L",
    },
    FamilySpec {
        name: "fft",
        tier: CostTier::Medium,
        scope: FamilyScope::PerSeries,
        description: "DFT magnitudes of coefficients 1..K (hand-rolled real DFT)",
    },
];

/// Looks up a family by name.
pub fn family(name: &str) -> Option<&'static FamilySpec> {
    FAMILIES.iter().find(|f| f.name == name)
}

/// The per-series statistical families, in wide-vector order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StatFamily {
    /// Distribution moments, quantiles, energy, mean-crossing counts.
    Dist,
    /// Linear trend slope and intercept.
    Trend,
    /// Strict local maxima / minima counts.
    Peaks,
    /// Autocorrelation lags.
    Acf,
    /// DFT coefficient magnitudes.
    Fft,
}

impl StatFamily {
    /// All per-series families, in wide-vector order.
    pub const ALL: [StatFamily; 5] = [
        StatFamily::Dist,
        StatFamily::Trend,
        StatFamily::Peaks,
        StatFamily::Acf,
        StatFamily::Fft,
    ];

    /// The catalogue family name this statistical family belongs to.
    pub fn family_name(self) -> &'static str {
        match self {
            StatFamily::Dist => "dist",
            StatFamily::Trend => "trend",
            StatFamily::Peaks => "peaks",
            StatFamily::Acf => "acf",
            StatFamily::Fft => "fft",
        }
    }
}

/// Configuration of the per-series statistical layer.
///
/// `Default` is **disabled** so legacy configurations (and their snapshot
/// fingerprints) are unchanged; [`StatisticalConfig::standard`] is the wide
/// catalogue's default shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatisticalConfig {
    /// Whether the statistical layer is appended to the feature vector.
    pub enabled: bool,
    /// Number of autocorrelation lags (`1..=acf_lags`).
    pub acf_lags: usize,
    /// Number of DFT coefficients (`1..=fft_coefficients`, DC skipped).
    pub fft_coefficients: usize,
}

impl Default for StatisticalConfig {
    fn default() -> Self {
        StatisticalConfig {
            enabled: false,
            acf_lags: 8,
            fft_coefficients: 8,
        }
    }
}

impl StatisticalConfig {
    /// The wide catalogue's statistical layer: 8 lags, 8 DFT coefficients.
    pub fn standard() -> Self {
        StatisticalConfig {
            enabled: true,
            ..StatisticalConfig::default()
        }
    }

    /// Number of statistical features (0 when disabled).
    pub fn n_features(&self) -> usize {
        if !self.enabled {
            return 0;
        }
        StatFamily::ALL
            .iter()
            .map(|&f| stat_family_len(f, self))
            .sum()
    }

    /// Names of the statistical features, in extraction order.
    pub fn feature_names(&self) -> Vec<String> {
        if !self.enabled {
            return Vec::new();
        }
        StatFamily::ALL
            .iter()
            .flat_map(|&f| stat_family_names(f, self))
            .collect()
    }

    /// The position of a [`StatisticalConfig::feature_names`] entry within
    /// the layer, parsed from the family name tables without allocating.
    /// Numbered names accept only the canonical decimal spelling.
    pub(crate) fn feature_index(&self, name: &str) -> Option<usize> {
        let name = name.strip_prefix("stat ").filter(|_| self.enabled)?;
        let mut offset = 0;
        for family in StatFamily::ALL {
            let index = match family.names(self) {
                StatNames::Fixed(names) => names.iter().position(|n| *n == name),
                StatNames::Numbered(prefix, len) => name
                    .strip_prefix(prefix)
                    .and_then(parse_index)
                    .filter(|k| (1..=len).contains(k))
                    .map(|k| k - 1),
            };
            if let Some(index) = index {
                return Some(offset + index);
            }
            offset += stat_family_len(family, self);
        }
        None
    }
}

/// The column names of a statistical family after the `stat ` prefix: a
/// fixed list, or a prefix numbered `1..=len`. [`stat_family_names`] writes
/// from these tables and [`StatisticalConfig::feature_index`] reads them.
enum StatNames {
    Fixed(&'static [&'static str]),
    Numbered(&'static str, usize),
}

impl StatFamily {
    fn names(self, config: &StatisticalConfig) -> StatNames {
        match self {
            StatFamily::Dist => StatNames::Fixed(&[
                "mean",
                "std",
                "min",
                "max",
                "median",
                "iqr",
                "q05",
                "q25",
                "q75",
                "q95",
                "skewness",
                "kurtosis",
                "energy",
                "abs_mean",
                "above_mean",
                "below_mean",
            ]),
            StatFamily::Trend => StatNames::Fixed(&["trend_slope", "trend_intercept"]),
            StatFamily::Peaks => StatNames::Fixed(&["peak_count", "valley_count"]),
            StatFamily::Acf => StatNames::Numbered("acf_", config.acf_lags),
            StatFamily::Fft => StatNames::Numbered("fft_mag_", config.fft_coefficients),
        }
    }
}

/// Parses a canonical decimal index: ASCII digits with no sign and no
/// leading zero, as `format!("{}", n)` writes it.
pub(crate) fn parse_index(digits: &str) -> Option<usize> {
    let canonical =
        digits.bytes().all(|b| b.is_ascii_digit()) && (digits == "0" || !digits.starts_with('0'));
    digits.parse().ok().filter(|_| canonical)
}

/// Number of features a statistical family contributes under `config`.
pub fn stat_family_len(family: StatFamily, config: &StatisticalConfig) -> usize {
    match family.names(config) {
        StatNames::Fixed(names) => names.len(),
        StatNames::Numbered(_, len) => len,
    }
}

/// Names a statistical family contributes under `config`, in order.
fn stat_family_names(family: StatFamily, config: &StatisticalConfig) -> Vec<String> {
    match family.names(config) {
        StatNames::Fixed(names) => names.iter().map(|n| format!("stat {n}")).collect(),
        StatNames::Numbered(prefix, len) => {
            (1..=len).map(|k| format!("stat {prefix}{k}")).collect()
        }
    }
}

/// Computes every statistical family with a column marked in `needed` into
/// `out`, both the layer's slice of the wide vector, from one scan of the
/// series for its magnitude.
pub(crate) fn compute_stat_layer(
    config: &StatisticalConfig,
    values: &[f64],
    needed: &[bool],
    out: &mut [f64],
) {
    let series = ScaledSeries::new(values);
    let mut offset = 0;
    for family in StatFamily::ALL {
        let range = offset..offset + stat_family_len(family, config);
        offset = range.end;
        if needed[range.clone()].contains(&true) {
            out[range].copy_from_slice(&series.family(family, config));
        }
    }
}

/// Exponent of the magnitude bound `2^SCALE_BOUND_EXP` of the statistical
/// layer. Below it a fourth central moment, at most `(2·max|x|)^4 · n`,
/// stays finite for any series shorter than `2^60`.
const SCALE_BOUND_EXP: i32 = 240;

/// A series as the statistical layer sees it: divided by `2^shift`, an exact
/// power of two, when its magnitude reaches the bound (`shift` 0 below it,
/// where the values are borrowed unchanged).
struct ScaledSeries<'a> {
    values: Cow<'a, [f64]>,
    shift: i32,
}

impl<'a> ScaledSeries<'a> {
    fn new(values: &'a [f64]) -> Self {
        // the largest |x| has the largest bit pattern once the sign is cleared
        let max_bits = values
            .iter()
            .map(|v| v.to_bits() & (u64::MAX >> 1))
            .max()
            .unwrap_or(0);
        let exponent = (max_bits >> 52) as i32 - 1023;
        if exponent < SCALE_BOUND_EXP {
            return ScaledSeries {
                values: Cow::Borrowed(values),
                shift: 0,
            };
        }
        // brings max|x| into [2^(bound-1), 2^bound)
        let shift = exponent - SCALE_BOUND_EXP + 1;
        let factor = pow2(-shift);
        ScaledSeries {
            values: values.iter().map(|v| v * factor).collect(),
            shift,
        }
    }

    /// One family of the unscaled series: computed on the scaled values,
    /// with the features that scale with the series multiplied back.
    fn family(&self, family: StatFamily, config: &StatisticalConfig) -> Vec<f64> {
        let values = &*self.values;
        let (up, down) = (pow2(self.shift), pow2(-self.shift));
        // the floor stays absolute: a scaled variance is 4^-shift of the true one
        let var_floor = VAR_FLOOR * down * down;
        let mut out = match family {
            StatFamily::Dist => distribution(values, var_floor),
            StatFamily::Trend => trend_features(values),
            StatFamily::Peaks => peak_features(values),
            StatFamily::Acf => autocorrelation(values, config.acf_lags, var_floor),
            StatFamily::Fft => fft_magnitude_features(values, config.fft_coefficients),
        };
        if self.shift != 0 {
            match family {
                // mean, std, min, max, median, iqr, the quantiles and
                // abs_mean scale with the series, energy with its square;
                // skewness, kurtosis and the counts are scale-invariant
                StatFamily::Dist => {
                    for v in &mut out[..10] {
                        *v *= up;
                    }
                    out[12] = out[12] * up * up;
                    out[13] *= up;
                }
                StatFamily::Trend | StatFamily::Fft => out.iter_mut().for_each(|v| *v *= up),
                StatFamily::Peaks | StatFamily::Acf => {}
            }
        }
        out
    }
}

/// `2^e`, exactly, for `e` in the normal exponent range `-1022..=1023`.
fn pow2(e: i32) -> f64 {
    f64::from_bits(((1023 + e) as u64) << 52)
}

/// Variance floor below which moment ratios (skewness, kurtosis,
/// autocorrelation) are defined as `0.0` instead of dividing by ~zero.
const VAR_FLOOR: f64 = 1e-24;

/// The 16 distribution features: mean, std, min, max, median, IQR, the
/// 5/25/75/95 % quantiles, skewness, excess kurtosis, energy, mean absolute
/// value and the counts of samples strictly above / below the mean.
pub fn distribution_features(values: &[f64]) -> Vec<f64> {
    distribution(values, VAR_FLOOR)
}

fn distribution(values: &[f64], var_floor: f64) -> Vec<f64> {
    let n = values.len() as f64;
    let mean = stats::mean(values);
    let var = stats::variance(values);
    let [median, q05, q25, q75, q95] = SCRATCH.with(|scratch| {
        let sorted = &mut scratch.borrow_mut().sorted;
        sorted.clear();
        sorted.extend_from_slice(values);
        stats::sort_ascending(sorted);
        [
            stats::median_of_sorted(sorted),
            stats::quantile_of_sorted(sorted, 0.05),
            stats::quantile_of_sorted(sorted, 0.25),
            stats::quantile_of_sorted(sorted, 0.75),
            stats::quantile_of_sorted(sorted, 0.95),
        ]
    });
    let (skewness, kurtosis) = if var <= var_floor || values.is_empty() {
        (0.0, 0.0)
    } else {
        let m3 = values.iter().map(|v| (v - mean).powi(3)).sum::<f64>() / n;
        let m4 = values.iter().map(|v| (v - mean).powi(4)).sum::<f64>() / n;
        (m3 / var.powf(1.5), m4 / (var * var) - 3.0)
    };
    vec![
        mean,
        var.sqrt(),
        stats::min(values).unwrap_or(0.0),
        stats::max(values).unwrap_or(0.0),
        median,
        q75 - q25,
        q05,
        q25,
        q75,
        q95,
        skewness,
        kurtosis,
        values.iter().map(|v| v * v).sum::<f64>(),
        values.iter().map(|v| v.abs()).sum::<f64>() / n.max(1.0),
        values.iter().filter(|&&v| v > mean).count() as f64,
        values.iter().filter(|&&v| v < mean).count() as f64,
    ]
}

/// Least-squares linear trend over `t = 0..n-1`: `[slope, intercept]`.
pub fn trend_features(values: &[f64]) -> Vec<f64> {
    let n = values.len();
    if n < 2 {
        return vec![0.0, values.first().copied().unwrap_or(0.0)];
    }
    let t_mean = (n as f64 - 1.0) / 2.0;
    let v_mean = stats::mean(values);
    let mut num = 0.0;
    let mut den = 0.0;
    for (t, v) in values.iter().enumerate() {
        let dt = t as f64 - t_mean;
        num += dt * (v - v_mean);
        den += dt * dt;
    }
    let slope = if den > 0.0 { num / den } else { 0.0 };
    vec![slope, v_mean - slope * t_mean]
}

/// Counts of strict local maxima and minima: `[peak_count, valley_count]`.
pub fn peak_features(values: &[f64]) -> Vec<f64> {
    let mut peaks = 0usize;
    let mut valleys = 0usize;
    for w in values.windows(3) {
        if w[1] > w[0] && w[1] > w[2] {
            peaks += 1;
        }
        if w[1] < w[0] && w[1] < w[2] {
            valleys += 1;
        }
    }
    vec![peaks as f64, valleys as f64]
}

/// Autocorrelation at lags `1..=n_lags` (standard estimator: lag-covariance
/// over `n - lag` terms, normalised by the population variance). Lags at or
/// beyond the series length — and any lag of a constant series — are `0.0`.
pub fn autocorrelation_features(values: &[f64], n_lags: usize) -> Vec<f64> {
    autocorrelation(values, n_lags, VAR_FLOOR)
}

fn autocorrelation(values: &[f64], n_lags: usize, var_floor: f64) -> Vec<f64> {
    let n = values.len();
    let mean = stats::mean(values);
    let var = stats::variance(values);
    let mut out = Vec::with_capacity(n_lags);
    for lag in 1..=n_lags {
        if lag >= n || var <= var_floor {
            out.push(0.0);
            continue;
        }
        let mut acc = 0.0;
        for t in 0..n - lag {
            acc += (values[t] - mean) * (values[t + lag] - mean);
        }
        out.push(acc / ((n - lag) as f64 * var));
    }
    out
}

/// Magnitudes of DFT coefficients `1..=n_coefficients` (DC skipped),
/// normalised by the series length, via a hand-rolled `O(n·k)` real-input
/// DFT — no external FFT dependency, and `k` is small by construction.
/// The twiddle factors come from the calling thread's table for this length.
/// Coefficients at or beyond the series length are `0.0`.
pub fn fft_magnitude_features(values: &[f64], n_coefficients: usize) -> Vec<f64> {
    let n = values.len();
    let rows = n_coefficients.min(n.saturating_sub(1));
    SCRATCH.with(|scratch| {
        let dft = &mut scratch.borrow_mut().dft;
        let twiddles = dft.rows(n, rows);
        let mut out = Vec::with_capacity(n_coefficients);
        for k in 1..=n_coefficients {
            if k >= n {
                out.push(0.0);
                continue;
            }
            let (mut re, mut im) = (0.0f64, 0.0f64);
            for (v, &(cos, sin)) in values.iter().zip(&twiddles[(k - 1) * n..k * n]) {
                re += v * cos;
                im += v * sin;
            }
            out.push((re * re + im * im).sqrt() / n as f64);
        }
        out
    })
}

/// Per-thread scratch of the statistical layer, reused from series to
/// series: a sorted copy of the series and the DFT table of the last length.
#[derive(Default)]
struct StatScratch {
    sorted: Vec<f64>,
    dft: DftTable,
}

thread_local! {
    static SCRATCH: RefCell<StatScratch> = RefCell::new(StatScratch::default());
}

/// `(cos, sin)` of `-2π·k·t/n` for one series length `n`: row `k - 1` is
/// `twiddles[(k - 1)·n..k·n]`, over `t` in `0..n`.
#[derive(Default)]
struct DftTable {
    n: usize,
    rows: usize,
    twiddles: Vec<(f64, f64)>,
}

impl DftTable {
    /// The table for length `n` with at least `rows` rows, rebuilt (and the
    /// table of another length released) when it has fewer.
    fn rows(&mut self, n: usize, rows: usize) -> &[(f64, f64)] {
        if self.n != n || self.rows < rows {
            self.twiddles = Vec::with_capacity(n * rows);
            for k in 1..=rows {
                let step = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
                self.twiddles.extend((0..n).map(|t| {
                    let angle = step * t as f64;
                    (angle.cos(), angle.sin())
                }));
            }
            self.n = n;
            self.rows = rows;
        }
        &self.twiddles
    }
}

/// An importance-chosen subset of the wide catalogue.
///
/// The names are a subset of the wide feature names of some
/// [`FeatureConfig`](crate::FeatureConfig), kept in **wide-vector order** so
/// pruned extraction is exactly a column selection of wide extraction
/// (pinned bit-for-bit by the determinism suite). Attached to a
/// `FeatureConfig` via its `selection` field, it makes the extractor compute
/// only the graphs, censuses and statistical families the subset needs.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureSelection {
    names: Vec<String>,
}

impl FeatureSelection {
    /// Wraps an explicit list of wide-catalogue feature names.
    pub fn new(names: Vec<String>) -> Self {
        FeatureSelection { names }
    }

    /// Picks the `k` most important features and returns them re-ordered to
    /// the wide-vector order given by `wide_names`.
    ///
    /// `ranked` must be sorted by descending importance (the output of
    /// [`rank_features`](crate::rank_features)); names not present in
    /// `wide_names` are ignored.
    pub fn from_importances(
        ranked: &[FeatureImportance],
        wide_names: &[String],
        k: usize,
    ) -> Result<Self, String> {
        if k == 0 {
            return Err("selection size must be at least 1".to_string());
        }
        if ranked.is_empty() {
            return Err(
                "no feature importances available (classifier family exposes none)".to_string(),
            );
        }
        let chosen: BTreeSet<&str> = ranked.iter().take(k).map(|f| f.name.as_str()).collect();
        let names: Vec<String> = wide_names
            .iter()
            .filter(|n| chosen.contains(n.as_str()))
            .cloned()
            .collect();
        if names.is_empty() {
            return Err("none of the ranked feature names exist in the wide catalogue".to_string());
        }
        Ok(FeatureSelection { names })
    }

    /// Checks the selection against the catalogue of `config`: it must be
    /// non-empty, free of duplicates, and every name must be one `config`
    /// can produce ([`FeatureConfig::is_known_feature_name`]). A snapshot
    /// claiming features absent from the running catalogue fails here and
    /// is skipped-and-refit by the serving registry.
    ///
    /// [`FeatureConfig::is_known_feature_name`]: crate::FeatureConfig::is_known_feature_name
    pub fn validate(&self, config: &crate::FeatureConfig) -> Result<(), String> {
        if self.names.is_empty() {
            return Err("feature selection is empty".to_string());
        }
        let mut seen = BTreeSet::new();
        for name in &self.names {
            if !seen.insert(name.as_str()) {
                return Err(format!("duplicate feature {name:?} in selection"));
            }
            if !config.is_known_feature_name(name) {
                return Err(format!("feature {name:?} is not in the running catalogue"));
            }
        }
        Ok(())
    }

    /// The selected feature names, in wide-vector order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of selected features.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the selection is empty (never valid for extraction).
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i as f64) * 0.21).sin() + 0.3 * ((i as f64) * 0.037).cos())
            .collect()
    }

    #[test]
    fn catalogue_names_are_unique_and_resolvable() {
        let mut seen = BTreeSet::new();
        for f in FAMILIES {
            assert!(seen.insert(f.name), "duplicate family {}", f.name);
            assert_eq!(family(f.name).unwrap().name, f.name);
        }
        assert!(family("no-such-family").is_none());
        for f in StatFamily::ALL {
            assert!(family(f.family_name()).is_some());
        }
    }

    #[test]
    fn statistical_layer_names_match_values() {
        let cfg = StatisticalConfig::standard();
        let values = wave(128);
        let mut feats = vec![f64::NAN; cfg.n_features()];
        compute_stat_layer(&cfg, &values, &vec![true; feats.len()], &mut feats);
        let names = cfg.feature_names();
        assert_eq!(feats.len(), names.len());
        assert_eq!(feats.len(), cfg.n_features());
        assert_eq!(feats.len(), 16 + 2 + 2 + 8 + 8);
        assert!(feats.iter().all(|v| v.is_finite()), "{feats:?}");
    }

    #[test]
    fn disabled_layer_is_empty() {
        let cfg = StatisticalConfig::default();
        assert!(!cfg.enabled);
        assert_eq!(cfg.n_features(), 0);
        assert!(cfg.feature_names().is_empty());
        assert_eq!(cfg.feature_index("stat mean"), None);
    }

    #[test]
    fn statistical_names_parse_back_to_their_position() {
        let cfg = StatisticalConfig {
            enabled: true,
            acf_lags: 12,
            fft_coefficients: 3,
        };
        for (i, name) in cfg.feature_names().iter().enumerate() {
            assert_eq!(cfg.feature_index(name), Some(i), "{name}");
        }
        for bad in [
            "stat acf_0",
            "stat acf_13",
            "stat acf_01",
            "stat acf_+1",
            "stat fft_mag_4",
            "stat bogus",
            "mean",
        ] {
            assert_eq!(cfg.feature_index(bad), None, "{bad}");
        }
    }

    #[test]
    fn only_canonical_decimal_indices_parse() {
        assert_eq!(parse_index("0"), Some(0));
        assert_eq!(parse_index("140"), Some(140));
        for bad in ["", "01", "+1", "-1", " 1", "1 ", "1e2", "٣"] {
            assert_eq!(parse_index(bad), None, "{bad:?}");
        }
        assert_eq!(parse_index("99999999999999999999999"), None);
    }

    #[test]
    fn distribution_features_known_values() {
        let f = distribution_features(&[1.0, 2.0, 3.0, 4.0]);
        let names = stat_family_names(StatFamily::Dist, &StatisticalConfig::standard());
        let get = |n: &str| {
            f[names
                .iter()
                .position(|x| x == &format!("stat {n}"))
                .unwrap()]
        };
        assert!((get("mean") - 2.5).abs() < 1e-12);
        assert!((get("std") - 1.25f64.sqrt()).abs() < 1e-12);
        assert_eq!(get("min"), 1.0);
        assert_eq!(get("max"), 4.0);
        assert_eq!(get("median"), 2.5);
        assert!((get("energy") - 30.0).abs() < 1e-12);
        assert_eq!(get("above_mean"), 2.0);
        assert_eq!(get("below_mean"), 2.0);
        assert!((get("skewness")).abs() < 1e-12); // symmetric
    }

    #[test]
    fn constant_series_is_all_finite_with_zero_moment_ratios() {
        let f = distribution_features(&[3.0; 32]);
        assert!(f.iter().all(|v| v.is_finite()));
        let names = stat_family_names(StatFamily::Dist, &StatisticalConfig::standard());
        let get = |n: &str| {
            f[names
                .iter()
                .position(|x| x == &format!("stat {n}"))
                .unwrap()]
        };
        assert_eq!(get("skewness"), 0.0);
        assert_eq!(get("kurtosis"), 0.0);
        assert_eq!(get("std"), 0.0);
        let acf = autocorrelation_features(&[3.0; 32], 4);
        assert_eq!(acf, vec![0.0; 4]);
    }

    #[test]
    fn trend_of_linear_series_recovers_slope_and_intercept() {
        let values: Vec<f64> = (0..64).map(|t| 0.5 * t as f64 + 2.0).collect();
        let f = trend_features(&values);
        assert!((f[0] - 0.5).abs() < 1e-9);
        assert!((f[1] - 2.0).abs() < 1e-9);
        assert_eq!(trend_features(&[7.0]), vec![0.0, 7.0]);
        assert_eq!(trend_features(&[]), vec![0.0, 0.0]);
    }

    #[test]
    fn peak_counts_of_zigzag() {
        let f = peak_features(&[0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0]);
        assert_eq!(f, vec![3.0, 2.0]);
        assert_eq!(peak_features(&[1.0, 2.0]), vec![0.0, 0.0]);
    }

    #[test]
    fn autocorrelation_of_alternating_series_is_negative_at_lag_one() {
        let values: Vec<f64> = (0..64)
            .map(|t| if t % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let acf = autocorrelation_features(&values, 2);
        assert!(acf[0] < -0.9, "{acf:?}");
        assert!(acf[1] > 0.9, "{acf:?}");
    }

    #[test]
    fn short_series_lags_and_coefficients_are_zero() {
        let acf = autocorrelation_features(&[1.0, 2.0], 4);
        assert_eq!(&acf[1..], &[0.0, 0.0, 0.0]);
        let fft = fft_magnitude_features(&[1.0, 2.0], 4);
        assert_eq!(&fft[1..], &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn dft_of_pure_tone_peaks_at_its_coefficient() {
        let n = 64;
        let values: Vec<f64> = (0..n)
            .map(|t| (2.0 * std::f64::consts::PI * 3.0 * t as f64 / n as f64).sin())
            .collect();
        let mags = fft_magnitude_features(&values, 8);
        let (argmax, _) = mags
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        assert_eq!(argmax + 1, 3, "{mags:?}");
        assert!((mags[2] - 0.5).abs() < 1e-9, "{mags:?}"); // amplitude/2
    }

    #[test]
    fn selection_from_importances_reorders_to_wide_order() {
        let wide: Vec<String> = ["a", "b", "c", "d"].iter().map(|s| s.to_string()).collect();
        let ranked = vec![
            FeatureImportance {
                name: "d".to_string(),
                importance: 0.9,
            },
            FeatureImportance {
                name: "b".to_string(),
                importance: 0.5,
            },
            FeatureImportance {
                name: "ghost".to_string(),
                importance: 0.4,
            },
            FeatureImportance {
                name: "a".to_string(),
                importance: 0.1,
            },
        ];
        let sel = FeatureSelection::from_importances(&ranked, &wide, 2).unwrap();
        assert_eq!(sel.names(), &["b".to_string(), "d".to_string()]);
        assert!(FeatureSelection::from_importances(&ranked, &wide, 0).is_err());
        assert!(FeatureSelection::from_importances(&[], &wide, 2).is_err());
        // ranked names entirely outside the catalogue
        let err = FeatureSelection::from_importances(&ranked[2..3], &wide, 1);
        assert!(err.is_err());
    }

    #[test]
    fn tier_and_scope_labels() {
        assert_eq!(CostTier::Fast.as_str(), "fast");
        assert_eq!(CostTier::Medium.as_str(), "medium");
        assert_eq!(CostTier::Slow.as_str(), "slow");
        assert_eq!(FamilyScope::PerSeries.as_str(), "per-series");
        assert_eq!(FamilyScope::PerGraph.as_str(), "per-graph");
    }
}
