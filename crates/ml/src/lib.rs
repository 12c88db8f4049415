//! # tsg-ml — generic machine-learning substrate
//!
//! The paper feeds statistical graph features into off-the-shelf classifiers
//! (XGBoost, Random Forest, SVM) tuned by stratified cross-validation and
//! grid search, and combines the best estimators per family through stacked
//! generalization (Algorithm 2). None of those components may be assumed to
//! exist in this environment, so this crate implements them from scratch:
//!
//! * [`data`] — dense feature matrices, label vectors, stratified k-fold
//!   splitting and random oversampling of minority classes.
//! * [`scaling`] — min-max and standard scalers (SVM inputs must be scaled).
//! * [`tree`] — CART decision trees for classification and second-order
//!   regression trees used inside gradient boosting.
//! * [`forest`] — Random Forest with bootstrap sampling and feature
//!   subsampling.
//! * [`gbt`] — gradient-boosted trees with the XGBoost objective
//!   (second-order gradients, shrinkage, L2 regularisation, row/column
//!   subsampling, softmax multi-class).
//! * [`svm`] — kernel SVM trained with SMO, one-vs-rest for multi-class.
//! * [`logreg`] — multinomial logistic regression (used as the stacking
//!   meta-learner).
//! * [`metrics`] — accuracy, error rate, log-loss, confusion matrices.
//! * [`model_selection`] — stratified k-fold cross-validation and grid
//!   search driven by cross-entropy (equation 5).
//! * [`stacking`] — stacked generalization (Algorithm 2).

pub mod data;
pub mod error;
pub mod forest;
pub mod gbt;
pub mod logreg;
pub mod metrics;
pub mod model_selection;
pub mod scaling;
pub mod snapshot;
pub mod stacking;
pub mod svm;
pub mod traits;
pub mod tree;

pub use data::{FeatureMatrix, StratifiedKFold};
pub use error::MlError;
pub use forest::{RandomForest, RandomForestParams};
pub use gbt::{GradientBoosting, GradientBoostingParams};
pub use logreg::{LogisticRegression, LogisticRegressionParams};
pub use metrics::{accuracy, error_rate, log_loss};
pub use model_selection::{cross_val_log_loss, GridSearch};
pub use scaling::{MinMaxScaler, StandardScaler};
pub use snapshot::restore_classifier;
pub use stacking::{StackingEnsemble, StackingParams};
pub use svm::{SvmClassifier, SvmKernel, SvmParams};
pub use traits::Classifier;
pub use tree::{DecisionTree, DecisionTreeParams};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, MlError>;
