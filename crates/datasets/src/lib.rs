//! # tsg-datasets — a synthetic stand-in for the UCR archive
//!
//! The paper evaluates on 39 datasets of the UCR / UEA & UCR archives. Those
//! datasets cannot be redistributed with this reproduction, so this crate
//! synthesises an archive with the *same catalogue* — the same dataset
//! names, class counts, train/test sizes and series lengths as the paper's
//! Tables 2 and 3 — where every dataset is generated by a seeded stochastic
//! process chosen to mimic the qualitative character of the original data
//! (ECG-like pulse trains, appliance load profiles, image-outline radial
//! profiles, noisy industrial sensor data, …).
//!
//! Classes within a dataset differ by structural properties (frequency
//! content, roughness, local patterns, regime behaviour) plus nuisance
//! variation (phase, jitter, noise), so that graph-feature methods,
//! distance-based methods and shapelet methods all face a non-trivial task —
//! the relative behaviour the paper reports is the reproduction target, not
//! its absolute error rates.
//!
//! Real UCR files can still be used: the [`source::DatasetSource`] resolver
//! reads the archive's `_TRAIN`/`_TEST` text format (nested or flat layout,
//! any of the common extensions) and takes precedence when a directory is
//! supplied via `TSG_UCR_DIR` or [`source::DatasetSource::with_ucr_dir`].
//! `DatasetSource` unifies the two places a split can come from — synthesis
//! and a real directory — behind one eager resolver that materialises a
//! split as a `Dataset` when it is asked for, with per-split provenance
//! ([`source::SplitProvenance`]); [`fixture`] writes
//! golden real-format trees so that path stays exercised without
//! redistributing UCR data.

pub mod archive;
pub mod families;
pub mod fixture;
pub mod loader;
pub mod source;

pub use archive::{
    generate, generate_by_name, generate_scaled, ArchiveOptions, DatasetSpec, ALL_DATASETS,
};
pub use families::Family;
pub use source::{
    DatasetSource, ResolvedPair, SourceError, SourceKind, Split, SplitProvenance, UCR_DIR_ENV,
};
