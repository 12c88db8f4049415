//! Pruned extraction is a column gather of wide extraction, bit for bit.
//!
//! Random subsets of wide feature names, in random order, are extracted
//! through both series entry points and compared with the matching columns
//! of the wide row. The names are drawn from the longest length's catalogue,
//! so shorter series also select scales they do not produce; those columns
//! must be `0.0`.

use proptest::prelude::*;
use tsg_core::{
    extract_series_features, extract_series_features_traced, ExtractStage, FeatureConfig,
    FeatureSelection, TraceSink,
};
use tsg_graph::motifs::MotifWorkspace;
use tsg_graph::visibility::VisibilityKind;
use tsg_ts::TimeSeries;

const LENGTHS: [usize; 4] = [8, 33, 140, 500];

fn configs() -> [FeatureConfig; 6] {
    [
        FeatureConfig::mvg(),
        FeatureConfig::wide(),
        FeatureConfig::uvg(),
        FeatureConfig::amvg(),
        FeatureConfig::uniscale_single(VisibilityKind::Natural, true),
        FeatureConfig {
            detrend: true,
            ..FeatureConfig::wide()
        },
    ]
}

/// A trending oscillation with seeded LCG noise.
fn series(len: usize, seed: u64) -> TimeSeries {
    let mut state = seed;
    let values = (0..len)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let noise = ((state >> 33) as f64) / f64::from(u32::MAX) - 0.5;
            ((i as f64) * 0.23).sin() + 0.01 * i as f64 + 0.3 * noise
        })
        .collect();
    TimeSeries::new(values)
}

/// A sink that only counts its callbacks, so the traced entry point runs
/// with a sink that is not the no-op one.
#[derive(Default)]
struct CountingSink {
    enters: usize,
    exits: usize,
}

impl TraceSink for CountingSink {
    fn enter(&mut self, _stage: ExtractStage) {
        self.enters += 1;
    }
    fn exit(&mut self, _stage: ExtractStage) {
        self.exits += 1;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn pruned_extraction_is_a_gather_of_wide_extraction(
        config_index in 0usize..6,
        length_index in 0usize..4,
        seed in 0u64..1_000_000,
        picks in prop::collection::vec(0usize..1_000_000, 1..40),
    ) {
        let wide_config = configs()[config_index].clone();
        let len = LENGTHS[length_index];
        let series = series(len, seed);
        let catalogue = wide_config.feature_names_for_length(LENGTHS[LENGTHS.len() - 1]);
        let mut names: Vec<String> = Vec::new();
        for pick in picks {
            let name = &catalogue[pick % catalogue.len()];
            if !names.contains(name) {
                names.push(name.clone());
            }
        }
        let wide = extract_series_features(&series, &wide_config);
        let wide_names = wide_config.feature_names_for_length(len);
        let pruned_config = FeatureConfig {
            selection: Some(FeatureSelection::new(names.clone())),
            ..wide_config
        };
        let untraced = extract_series_features(&series, &pruned_config);
        let mut sink = CountingSink::default();
        let mut workspace = MotifWorkspace::new();
        let traced =
            extract_series_features_traced(&series, &pruned_config, &mut workspace, &mut sink);
        prop_assert_eq!(untraced.len(), names.len());
        prop_assert_eq!(traced.len(), names.len());
        prop_assert_eq!(sink.enters, sink.exits);
        for (j, name) in names.iter().enumerate() {
            let want = wide_names
                .iter()
                .position(|n| n == name)
                .map_or(0.0, |i| wide[i]);
            prop_assert_eq!((name, untraced[j].to_bits()), (name, want.to_bits()));
            prop_assert_eq!((name, traced[j].to_bits()), (name, want.to_bits()));
        }
    }
}
