//! The synthetic archive catalogue: 39 dataset specifications matching the
//! paper's Table 2 (name, number of classes, train/test sizes and series
//! length), each mapped to a generator family.

use crate::families::Family;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tsg_ts::{Dataset, TimeSeries};

/// Version of the generators, recorded in every synthetic split's
/// provenance. Bump it whenever [`crate::families`] or the generation logic
/// below changes observable output, so an artefact names the generator that
/// produced its series.
pub const GENERATOR_VERSION: u32 = 1;

/// Specification of one synthetic dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetSpec {
    /// Dataset name (matches the UCR archive name).
    pub name: &'static str,
    /// Number of classes.
    pub n_classes: usize,
    /// Number of training instances (Table 2 orientation).
    pub n_train: usize,
    /// Number of test instances.
    pub n_test: usize,
    /// Series length ("Dim." in the paper's tables).
    pub length: usize,
    /// Generator family.
    pub family: Family,
}

/// The full catalogue: the 39 UCR datasets of the paper's Tables 2 and 3.
pub const ALL_DATASETS: [DatasetSpec; 39] = [
    DatasetSpec {
        name: "ArrowHead",
        n_classes: 3,
        n_train: 36,
        n_test: 175,
        length: 251,
        family: Family::Outline,
    },
    DatasetSpec {
        name: "BeetleFly",
        n_classes: 2,
        n_train: 20,
        n_test: 20,
        length: 512,
        family: Family::Outline,
    },
    DatasetSpec {
        name: "BirdChicken",
        n_classes: 2,
        n_train: 20,
        n_test: 20,
        length: 512,
        family: Family::Outline,
    },
    DatasetSpec {
        name: "Computers",
        n_classes: 2,
        n_train: 250,
        n_test: 250,
        length: 720,
        family: Family::Device,
    },
    DatasetSpec {
        name: "DistalPhalanxOutlineAgeGroup",
        n_classes: 3,
        n_train: 139,
        n_test: 400,
        length: 80,
        family: Family::Outline,
    },
    DatasetSpec {
        name: "DistalPhalanxOutlineCorrect",
        n_classes: 2,
        n_train: 276,
        n_test: 600,
        length: 80,
        family: Family::Outline,
    },
    DatasetSpec {
        name: "DistalPhalanxTW",
        n_classes: 6,
        n_train: 139,
        n_test: 400,
        length: 80,
        family: Family::Outline,
    },
    DatasetSpec {
        name: "ECG5000",
        n_classes: 5,
        n_train: 500,
        n_test: 4500,
        length: 140,
        family: Family::Ecg,
    },
    DatasetSpec {
        name: "Earthquakes",
        n_classes: 2,
        n_train: 139,
        n_test: 322,
        length: 512,
        family: Family::Sensor,
    },
    DatasetSpec {
        name: "ElectricDevices",
        n_classes: 7,
        n_train: 8926,
        n_test: 7711,
        length: 96,
        family: Family::Device,
    },
    DatasetSpec {
        name: "FordA",
        n_classes: 2,
        n_train: 1320,
        n_test: 3601,
        length: 500,
        family: Family::Sensor,
    },
    DatasetSpec {
        name: "FordB",
        n_classes: 2,
        n_train: 810,
        n_test: 3636,
        length: 500,
        family: Family::Sensor,
    },
    DatasetSpec {
        name: "Ham",
        n_classes: 2,
        n_train: 109,
        n_test: 105,
        length: 431,
        family: Family::Spectro,
    },
    DatasetSpec {
        name: "HandOutlines",
        n_classes: 2,
        n_train: 370,
        n_test: 1000,
        length: 2709,
        family: Family::Outline,
    },
    DatasetSpec {
        name: "Herring",
        n_classes: 2,
        n_train: 64,
        n_test: 64,
        length: 512,
        family: Family::Outline,
    },
    DatasetSpec {
        name: "InsectWingbeatSound",
        n_classes: 11,
        n_train: 220,
        n_test: 1980,
        length: 256,
        family: Family::Sensor,
    },
    DatasetSpec {
        name: "LargeKitchenAppliances",
        n_classes: 3,
        n_train: 375,
        n_test: 375,
        length: 720,
        family: Family::Device,
    },
    DatasetSpec {
        name: "Meat",
        n_classes: 3,
        n_train: 60,
        n_test: 60,
        length: 448,
        family: Family::Spectro,
    },
    DatasetSpec {
        name: "MiddlePhalanxOutlineAgeGroup",
        n_classes: 3,
        n_train: 154,
        n_test: 400,
        length: 80,
        family: Family::Outline,
    },
    DatasetSpec {
        name: "MiddlePhalanxOutlineCorrect",
        n_classes: 2,
        n_train: 291,
        n_test: 600,
        length: 80,
        family: Family::Outline,
    },
    DatasetSpec {
        name: "MiddlePhalanxTW",
        n_classes: 6,
        n_train: 154,
        n_test: 399,
        length: 80,
        family: Family::Outline,
    },
    DatasetSpec {
        name: "PhalangesOutlinesCorrect",
        n_classes: 2,
        n_train: 1800,
        n_test: 858,
        length: 80,
        family: Family::Outline,
    },
    DatasetSpec {
        name: "Phoneme",
        n_classes: 39,
        n_train: 214,
        n_test: 1896,
        length: 1024,
        family: Family::Chaotic,
    },
    DatasetSpec {
        name: "ProximalPhalanxOutlineAgeGroup",
        n_classes: 3,
        n_train: 400,
        n_test: 205,
        length: 80,
        family: Family::Outline,
    },
    DatasetSpec {
        name: "ProximalPhalanxOutlineCorrect",
        n_classes: 2,
        n_train: 600,
        n_test: 291,
        length: 80,
        family: Family::Outline,
    },
    DatasetSpec {
        name: "ProximalPhalanxTW",
        n_classes: 6,
        n_train: 205,
        n_test: 400,
        length: 80,
        family: Family::Outline,
    },
    DatasetSpec {
        name: "RefrigerationDevices",
        n_classes: 3,
        n_train: 375,
        n_test: 375,
        length: 720,
        family: Family::Device,
    },
    DatasetSpec {
        name: "ScreenType",
        n_classes: 3,
        n_train: 375,
        n_test: 375,
        length: 720,
        family: Family::Device,
    },
    DatasetSpec {
        name: "ShapeletSim",
        n_classes: 2,
        n_train: 20,
        n_test: 180,
        length: 500,
        family: Family::Shapelet,
    },
    DatasetSpec {
        name: "ShapesAll",
        n_classes: 60,
        n_train: 600,
        n_test: 600,
        length: 512,
        family: Family::Outline,
    },
    DatasetSpec {
        name: "SmallKitchenAppliances",
        n_classes: 3,
        n_train: 375,
        n_test: 375,
        length: 720,
        family: Family::Device,
    },
    DatasetSpec {
        name: "Strawberry",
        n_classes: 2,
        n_train: 370,
        n_test: 613,
        length: 235,
        family: Family::Spectro,
    },
    DatasetSpec {
        name: "ToeSegmentation1",
        n_classes: 2,
        n_train: 40,
        n_test: 228,
        length: 277,
        family: Family::Shapelet,
    },
    DatasetSpec {
        name: "ToeSegmentation2",
        n_classes: 2,
        n_train: 36,
        n_test: 130,
        length: 343,
        family: Family::Shapelet,
    },
    DatasetSpec {
        name: "UWaveGestureLibraryAll",
        n_classes: 8,
        n_train: 896,
        n_test: 3582,
        length: 945,
        family: Family::Motion,
    },
    DatasetSpec {
        name: "Wine",
        n_classes: 2,
        n_train: 57,
        n_test: 54,
        length: 234,
        family: Family::Spectro,
    },
    DatasetSpec {
        name: "WordSynonyms",
        n_classes: 25,
        n_train: 267,
        n_test: 638,
        length: 270,
        family: Family::Motion,
    },
    DatasetSpec {
        name: "Worms",
        n_classes: 5,
        n_train: 77,
        n_test: 181,
        length: 900,
        family: Family::Motion,
    },
    DatasetSpec {
        name: "WormsTwoClass",
        n_classes: 2,
        n_train: 77,
        n_test: 181,
        length: 900,
        family: Family::Motion,
    },
];

/// Options bounding the generated size of a dataset.
///
/// The paper-scale archive contains datasets with thousands of instances and
/// series of length 2709; generating and processing them at full size is
/// possible but slow, so the experiment binaries default to a bounded budget
/// and accept `--full` to lift it. The shape of each dataset (class count,
/// class balance, relative train/test ratio) is preserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchiveOptions {
    /// Maximum number of training instances.
    pub max_train: usize,
    /// Maximum number of test instances.
    pub max_test: usize,
    /// Maximum series length.
    pub max_length: usize,
    /// Base random seed (combined with the dataset name hash).
    pub seed: u64,
}

impl Default for ArchiveOptions {
    fn default() -> Self {
        ArchiveOptions::full(7)
    }
}

impl ArchiveOptions {
    /// Paper-scale generation (no size bounds).
    pub fn full(seed: u64) -> Self {
        ArchiveOptions {
            max_train: usize::MAX,
            max_test: usize::MAX,
            max_length: usize::MAX,
            seed,
        }
    }

    /// A bounded budget suitable for laptop-scale experiment runs.
    pub fn bounded(max_instances: usize, max_length: usize, seed: u64) -> Self {
        ArchiveOptions {
            max_train: max_instances,
            max_test: max_instances,
            max_length,
            seed,
        }
    }
}

/// Looks up a dataset specification by name.
pub fn spec_by_name(name: &str) -> Option<&'static DatasetSpec> {
    ALL_DATASETS.iter().find(|s| s.name == name)
}

/// The class label of instance `i` in a split of `n_instances`: round-robin
/// over classes keeps every class represented even in heavily subsampled
/// datasets; a mild imbalance is added for larger ones so oversampling stays
/// exercised.
fn instance_class(spec: &DatasetSpec, n_instances: usize, i: usize) -> usize {
    if n_instances >= spec.n_classes * 4 && i.is_multiple_of(7) {
        0
    } else {
        i % spec.n_classes
    }
}

/// The RNG generating a dataset's splits (train first, test continuing the
/// same keystream), seeded from the base seed and the dataset name.
fn split_rng(spec: &DatasetSpec, seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed ^ tsg_ts::hash::Fnv1a::hash(spec.name.as_bytes()))
}

/// Effective `(n_train, n_test, length)` shape of a spec under a size
/// budget: the budget can never cut below one instance per class or below
/// 32 points per series.
pub fn effective_shape(spec: &DatasetSpec, options: ArchiveOptions) -> (usize, usize, usize) {
    (
        spec.n_train.min(options.max_train).max(spec.n_classes),
        spec.n_test.min(options.max_test).max(spec.n_classes),
        spec.length.min(options.max_length).max(32),
    )
}

fn generate_split<R: Rng + ?Sized>(
    spec: &DatasetSpec,
    n_instances: usize,
    length: usize,
    rng: &mut R,
    split_name: &str,
) -> Dataset {
    let mut dataset = Dataset::new(format!("{}_{}", spec.name, split_name));
    for i in 0..n_instances {
        let class = instance_class(spec, n_instances, i);
        let values = spec.family.generate(rng, class, spec.n_classes, length);
        dataset.push(TimeSeries::with_label(values, class));
    }
    dataset
}

/// Generates the `(train, test)` splits of a dataset at paper scale.
pub fn generate(spec: &DatasetSpec, seed: u64) -> (Dataset, Dataset) {
    generate_scaled(spec, ArchiveOptions::full(seed))
}

/// Generates the `(train, test)` splits of a dataset under a size budget.
pub fn generate_scaled(spec: &DatasetSpec, options: ArchiveOptions) -> (Dataset, Dataset) {
    let (n_train, n_test, length) = effective_shape(spec, options);
    let mut rng = split_rng(spec, options.seed);
    let train = generate_split(spec, n_train, length, &mut rng, "TRAIN");
    let test = generate_split(spec, n_test, length, &mut rng, "TEST");
    (train, test)
}

/// Generates only the training split under a size budget: the first half of
/// [`generate_scaled`]'s keystream, so bit-identical to its training split.
pub(crate) fn generate_train_scaled(spec: &DatasetSpec, options: ArchiveOptions) -> Dataset {
    let (n_train, _, length) = effective_shape(spec, options);
    generate_split(
        spec,
        n_train,
        length,
        &mut split_rng(spec, options.seed),
        "TRAIN",
    )
}

/// Generates a dataset by its UCR name at paper scale; `None`-safe variant of
/// [`generate`] returning an error string for unknown names.
pub fn generate_by_name(name: &str, seed: u64) -> Result<(Dataset, Dataset), String> {
    let spec = spec_by_name(name).ok_or_else(|| format!("unknown dataset `{name}`"))?;
    Ok(generate(spec, seed))
}

/// Generates a dataset by name under a size budget.
pub fn generate_by_name_scaled(
    name: &str,
    options: ArchiveOptions,
) -> Result<(Dataset, Dataset), String> {
    let spec = spec_by_name(name).ok_or_else(|| format!("unknown dataset `{name}`"))?;
    Ok(generate_scaled(spec, options))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_has_39_unique_datasets() {
        assert_eq!(ALL_DATASETS.len(), 39);
        let mut names = std::collections::HashSet::new();
        for spec in &ALL_DATASETS {
            assert!(names.insert(spec.name), "duplicate {}", spec.name);
            assert!(spec.n_classes >= 2);
            assert!(spec.n_train > 0 && spec.n_test > 0 && spec.length > 0);
        }
    }

    #[test]
    fn catalogue_matches_paper_shapes_spot_checks() {
        let arrow = spec_by_name("ArrowHead").unwrap();
        assert_eq!(
            (arrow.n_classes, arrow.n_train, arrow.n_test, arrow.length),
            (3, 36, 175, 251)
        );
        let ecg = spec_by_name("ECG5000").unwrap();
        assert_eq!(
            (ecg.n_classes, ecg.n_train, ecg.n_test, ecg.length),
            (5, 500, 4500, 140)
        );
        let phoneme = spec_by_name("Phoneme").unwrap();
        assert_eq!(phoneme.n_classes, 39);
        assert_eq!(phoneme.length, 1024);
        assert!(spec_by_name("DoesNotExist").is_none());
    }

    #[test]
    fn generated_shapes_match_spec() {
        let spec = spec_by_name("BeetleFly").unwrap();
        let (train, test) = generate(spec, 3);
        assert_eq!(train.len(), spec.n_train);
        assert_eq!(test.len(), spec.n_test);
        assert!(train.is_uniform_length());
        assert_eq!(train.max_length(), spec.length);
        assert_eq!(train.n_classes(), spec.n_classes);
        assert_eq!(test.n_classes(), spec.n_classes);
    }

    #[test]
    fn scaled_generation_respects_budget_and_classes() {
        let spec = spec_by_name("ElectricDevices").unwrap();
        let options = ArchiveOptions::bounded(40, 96, 1);
        let (train, test) = generate_scaled(spec, options);
        assert!(train.len() <= 40);
        assert!(test.len() <= 40);
        assert_eq!(train.max_length(), 96);
        assert_eq!(train.n_classes(), spec.n_classes);
        let shapes = spec_by_name("ShapesAll").unwrap();
        let (train, _) = generate_scaled(shapes, ArchiveOptions::bounded(50, 128, 1));
        // the budget can never cut below one instance per class
        assert!(train.len() >= shapes.n_classes);
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let spec = spec_by_name("Wine").unwrap();
        let (a_train, _) = generate(spec, 5);
        let (b_train, _) = generate(spec, 5);
        let (c_train, _) = generate(spec, 6);
        assert_eq!(a_train, b_train);
        assert_ne!(a_train, c_train);
    }

    #[test]
    fn different_datasets_differ_even_with_same_seed() {
        let (a, _) = generate_by_name("BeetleFly", 1).unwrap();
        let (b, _) = generate_by_name("BirdChicken", 1).unwrap();
        assert_ne!(a.series()[0].values(), b.series()[0].values());
        assert!(generate_by_name("Nope", 1).is_err());
        let options = ArchiveOptions::bounded(6, 48, 1);
        assert!(generate_by_name_scaled("Wine", options).is_ok());
        assert!(generate_by_name_scaled("Nope", options).is_err());
    }

    #[test]
    fn every_dataset_generates_under_a_small_budget() {
        let options = ArchiveOptions::bounded(12, 64, 2);
        for spec in &ALL_DATASETS {
            let (train, test) = generate_scaled(spec, options);
            assert!(!train.is_empty(), "{}", spec.name);
            assert!(!test.is_empty(), "{}", spec.name);
            assert_eq!(train.n_classes(), spec.n_classes, "{}", spec.name);
            for s in train.series().iter().chain(test.series()) {
                assert!(s.values().iter().all(|v| v.is_finite()), "{}", spec.name);
            }
        }
    }
}
