//! # tsg-ts — time series substrate
//!
//! This crate provides the time series foundation used by the Multiscale
//! Visibility Graph (MVG) reproduction:
//!
//! * [`TimeSeries`] and [`Dataset`] — the basic labeled time series types
//!   (Definition 2.1 of the paper).
//! * [`paa`](mod@paa) — Piecewise Aggregate Approximation (equation 1), the
//!   dimensionality-reduction primitive used to build multiscale
//!   representations (Definition 2.2).
//! * [`multiscale`] — the multiscale approximation cascade of Definition 3.1
//!   and the full multiscale representation of Definition 3.2.
//! * [`distance`] — Euclidean and Dynamic Time Warping distances, including a
//!   Sakoe–Chiba band, the `LB_Keogh` lower bound and early abandoning, used
//!   by the 1NN baselines.
//! * [`sax`] — Symbolic Aggregate approXimation, required by the SAX-VSM
//!   baseline.
//! * [`generators`] — seeded synthetic series generators (noise, chaotic
//!   logistic maps, pulse trains, …) used to build the
//!   synthetic stand-in for the UCR archive.
//! * [`io`] — reading and writing the UCR archive text format.
//! * [`preprocess`] — z-normalisation, min-max scaling, detrending.
//! * [`hash`] — FNV-1a, the stable content hash behind dataset seeds,
//!   provenance, config fingerprints and model snapshots.

pub mod distance;
pub mod error;
pub mod generators;
pub mod hash;
pub mod io;
pub mod multiscale;
pub mod paa;
pub mod preprocess;
pub mod sax;
pub mod series;
pub mod stats;

pub use distance::{dtw, dtw_windowed, euclidean, lb_keogh, DtwOptions};
pub use error::TsError;
pub use multiscale::{multiscale_approximations, MultiscaleOptions, MultiscaleRepresentation};
pub use paa::paa;
pub use series::{Dataset, DatasetSummary, TimeSeries};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TsError>;
