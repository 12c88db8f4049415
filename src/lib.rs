//! # tsc-mvg — Multiscale Visibility Graph time series classification
//!
//! Facade crate for the Rust reproduction of *"Extracting Statistical Graph
//! Features for Accurate and Efficient Time Series Classification"* (EDBT
//! 2018). It re-exports the workspace crates under short module names:
//!
//! * [`ts`] — time series substrate (PAA, multiscale approximation, DTW,
//!   SAX, generators, UCR I/O).
//! * [`graph`] — graph substrate (visibility graphs, graphlet counting,
//!   k-core, assortativity).
//! * [`ml`] — generic classifiers (gradient boosting, random forest, SVM,
//!   logistic regression), cross-validation, grid search, stacking.
//! * [`mvg`] — the paper's contribution: UVG/AMVG/MVG feature extraction and
//!   the end-to-end [`mvg::MvgClassifier`].
//! * [`baselines`] — the five baselines of Table 3: 1NN-ED, 1NN-DTW,
//!   SAX-VSM, Fast Shapelets and Learning Shapelets.
//! * [`datasets`] — the synthetic stand-in for the UCR archive, unified with
//!   real UCR directory trees behind the [`datasets::DatasetSource`]
//!   resolver (eager splits with per-split provenance; set `TSG_UCR_DIR`
//!   to run against the real archive).
//! * [`eval`] — Wilcoxon / Friedman–Nemenyi tests, ranks, scatter and table
//!   helpers used by the experiment binaries.
//! * [`serve`] — the batching classification server: model registry,
//!   micro-batch scheduler, metrics, and the `tsg-serve` / `serve_loadgen`
//!   binaries.
//!
//! ## Quick start
//!
//! ```
//! use tsc_mvg::datasets::archive::{generate_by_name_scaled, ArchiveOptions};
//! use tsc_mvg::mvg::{MvgClassifier, MvgConfig};
//!
//! // A small synthetic two-class problem (stand-in for a UCR dataset).
//! let options = ArchiveOptions::bounded(20, 192, 7);
//! let (train, test) = generate_by_name_scaled("BeetleFly", options).unwrap();
//! let mut clf = MvgClassifier::new(MvgConfig::fast());
//! clf.fit(&train).unwrap();
//! let accuracy = clf.score(&test).unwrap();
//! assert!((0.0..=1.0).contains(&accuracy));
//! ```

pub use tsg_baselines as baselines;
pub use tsg_core as mvg;
pub use tsg_datasets as datasets;
pub use tsg_eval as eval;
pub use tsg_graph as graph;
pub use tsg_ml as ml;
pub use tsg_serve as serve;
pub use tsg_ts as ts;
