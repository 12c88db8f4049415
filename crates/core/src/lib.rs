//! # tsg-core — Multiscale Visibility Graph features for time series classification
//!
//! The paper's contribution, assembled from the substrates:
//!
//! 1. a time series is expanded into its multiscale representation
//!    (`T0, T1, …, Tm`, PAA halvings down to a minimum length `τ`);
//! 2. every scale is transformed into a natural visibility graph and/or a
//!    horizontal visibility graph;
//! 3. every graph yields a block of purely statistical features: normalised
//!    motif probability distributions ([`motif_groups`]) plus density,
//!    maximum coreness, assortativity and degree statistics
//!    ([`graph_features`]);
//! 4. the concatenated feature vector is fed to a generic classifier
//!    (gradient boosting by default, optionally Random Forest, SVM, or a
//!    stacked ensemble of all three families).
//!
//! The high-level entry point is [`MvgClassifier`]; the individual stages are
//! exposed in [`extractor`] and [`representation`] so experiments can study
//! them separately (UVG vs AMVG vs MVG, HVG vs VG, MPDs vs all features —
//! exactly the ablations of the paper's Table 2).

pub mod catalogue;
pub mod classifier;
pub mod extractor;
pub mod graph_features;
pub mod importance;
pub mod motif_groups;
pub mod representation;
pub mod trace;

pub use catalogue::{
    CostTier, FamilyScope, FamilySpec, FeatureSelection, StatFamily, StatisticalConfig, FAMILIES,
};
pub use classifier::{ClassifierChoice, MvgClassifier, MvgConfig};
pub use extractor::{
    extract_dataset_features, extract_series_features, extract_series_features_traced,
    FeatureConfig,
};
pub use graph_features::graph_feature_names;
pub use importance::{rank_features, FeatureImportance};
pub use motif_groups::{motif_probability_distribution, MotifGroup, MOTIF_GROUPS};
pub use representation::{ScaleMode, SeriesGraphs};
pub use trace::{ExtractStage, NoopTraceSink, TraceSink};

/// Crate-wide error type (re-used from the ML substrate, whose stages
/// dominate the fallible surface).
pub type Error = tsg_ml::MlError;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;
