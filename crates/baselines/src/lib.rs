//! # tsg-baselines — reference time series classifiers
//!
//! The five state-of-the-art methods the paper compares against (section
//! 4.4), implemented from their original descriptions so that both the
//! accuracy *and* the runtime comparisons of Table 3 / Figures 8–9 run real
//! competing computations:
//!
//! * [`nn`] — 1-nearest-neighbour with Euclidean or DTW distance (with
//!   `LB_Keogh` pruning and early abandoning).
//! * [`sax_vsm`] — SAX-VSM: class-level tf-idf vectors over SAX word bags,
//!   cosine-similarity classification (Senin & Malinchik, 2013).
//! * [`fast_shapelets`] — a shapelet decision tree with random-projection
//!   style candidate subsampling in the spirit of Fast Shapelets
//!   (Rakthanmanon & Keogh, 2013).
//! * [`learning_shapelets`] — Learning Shapelets: jointly learning shapelets
//!   and a logistic model by gradient descent (Grabocka et al., 2014).
//!
//! All classifiers implement the common [`TscClassifier`] trait so the
//! benchmark harness can drive them uniformly.

pub mod error;
pub mod fast_shapelets;
pub mod learning_shapelets;
pub mod nn;
pub mod sax_vsm;
pub mod traits;

pub use error::BaselineError;
pub use fast_shapelets::{FastShapelets, FastShapeletsParams};
pub use learning_shapelets::{LearningShapelets, LearningShapeletsParams};
pub use nn::{NnClassifier, NnDistance};
pub use sax_vsm::{SaxVsm, SaxVsmParams};
pub use traits::TscClassifier;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, BaselineError>;
