//! The end-to-end MVG classifier.
//!
//! [`MvgClassifier`] bundles feature extraction (section 3.1) with a generic
//! classifier (section 3.2): gradient boosting by default, optionally Random
//! Forest, SVM, a small cross-validated grid of boosting configurations, or a
//! stacked ensemble of the three families (section 4.3). Minority classes can
//! be randomly oversampled before training, as the paper does for imbalanced
//! datasets.

use crate::extractor::{
    extract_dataset_features, extract_row_traced, extract_rows, FeatureColumn, FeatureConfig,
};
use crate::importance::{rank_features, FeatureImportance};
use crate::trace::TraceSink;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::borrow::Borrow;
use tsg_graph::motifs::MotifWorkspace;
use tsg_ml::data::{random_oversample, FeatureMatrix};
use tsg_ml::forest::{RandomForest, RandomForestParams};
use tsg_ml::gbt::{GradientBoosting, GradientBoostingParams};
use tsg_ml::metrics::accuracy;
use tsg_ml::scaling::MinMaxScaler;
use tsg_ml::stacking::{StackingEnsemble, StackingParams};
use tsg_ml::svm::{SvmClassifier, SvmKernel, SvmParams};
use tsg_ml::traits::Classifier;
use tsg_ml::{GridSearch, MlError};
use tsg_ts::{Dataset, TimeSeries};

/// Which classifier family consumes the extracted features.
#[derive(Debug, Clone, PartialEq)]
pub enum ClassifierChoice {
    /// Gradient boosting with fixed hyper-parameters.
    GradientBoosting(GradientBoostingParams),
    /// Gradient boosting tuned by a small stratified-CV grid search over
    /// learning rate, number of estimators and depth (the paper's setup,
    /// scaled down).
    GradientBoostingGrid,
    /// Random Forest with fixed hyper-parameters.
    RandomForest(RandomForestParams),
    /// RBF-kernel SVM (features are min-max scaled automatically).
    Svm(SvmParams),
    /// Stacked generalization over the top configurations of each family
    /// (Algorithm 2 / Figure 7).
    Stacked {
        /// How many configurations per family are offered to the selector.
        top_k: usize,
    },
}

/// Full configuration of an [`MvgClassifier`].
#[derive(Debug, Clone, PartialEq)]
pub struct MvgConfig {
    /// Feature extraction configuration.
    pub features: FeatureConfig,
    /// Classifier family and hyper-parameters.
    pub classifier: ClassifierChoice,
    /// Randomly oversample minority classes before training.
    pub oversample: bool,
    /// Worker threads shared by feature extraction, grid search and the
    /// stacking ensemble (`0` = process default, see
    /// [`tsg_parallel::default_threads`]). Outputs are identical for every
    /// thread count.
    pub n_threads: usize,
    /// Random seed (oversampling, subsampling, folds).
    pub seed: u64,
}

impl Default for MvgConfig {
    fn default() -> Self {
        MvgConfig::paper()
    }
}

impl MvgConfig {
    /// The paper's configuration: full MVG features, grid-searched boosting,
    /// oversampling enabled.
    pub fn paper() -> Self {
        MvgConfig {
            features: FeatureConfig::mvg(),
            classifier: ClassifierChoice::GradientBoostingGrid,
            oversample: true,
            n_threads: crate::parallel::default_threads(),
            seed: 7,
        }
    }

    /// A fast configuration for tests and examples: full MVG features with a
    /// small fixed boosting model.
    pub fn fast() -> Self {
        MvgConfig {
            features: FeatureConfig::mvg(),
            classifier: ClassifierChoice::GradientBoosting(GradientBoostingParams {
                n_estimators: 25,
                max_depth: 3,
                learning_rate: 0.2,
                subsample: 0.8,
                colsample_bytree: 0.8,
                ..Default::default()
            }),
            oversample: true,
            n_threads: crate::parallel::default_threads(),
            seed: 7,
        }
    }

    /// Replaces the feature configuration.
    pub fn with_features(mut self, features: FeatureConfig) -> Self {
        self.features = features;
        self
    }

    /// Replaces the classifier choice.
    pub fn with_classifier(mut self, classifier: ClassifierChoice) -> Self {
        self.classifier = classifier;
        self
    }

    /// Replaces the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Labels per series, plus class probabilities when they were asked for.
pub type RowPredictions = (Vec<usize>, Option<Vec<Vec<f64>>>);

/// The end-to-end MVG pipeline: feature extraction + generic classification.
pub struct MvgClassifier {
    config: MvgConfig,
    model: Option<Box<dyn Classifier>>,
    scaler: Option<MinMaxScaler>,
    feature_names: Vec<String>,
    /// `feature_names`, parsed once: the layout of every row it predicts.
    layout: Vec<Option<FeatureColumn>>,
    gbt_importance: Vec<f64>,
    n_classes: usize,
}

impl MvgClassifier {
    /// Creates an unfitted classifier.
    pub fn new(config: MvgConfig) -> Self {
        MvgClassifier {
            config,
            model: None,
            scaler: None,
            feature_names: Vec::new(),
            layout: Vec::new(),
            gbt_importance: Vec::new(),
            n_classes: 0,
        }
    }

    /// The configuration this classifier was built with.
    pub fn config(&self) -> &MvgConfig {
        &self.config
    }

    /// Names of the extracted features (available after fitting).
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// Number of classes seen during fitting.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Extracts the raw feature matrix of a dataset under this classifier's
    /// feature configuration (exposed for experiments that reuse features
    /// across classifier families): in the training layout once fitted,
    /// whatever the dataset's lengths, as [`extract_dataset_features`] before.
    pub fn extract_features(&self, dataset: &Dataset) -> (FeatureMatrix, Vec<String>) {
        if self.model.is_none() {
            return extract_dataset_features(dataset, &self.config.features, self.config.n_threads);
        }
        let rows = self.extract_rows(dataset);
        let matrix = FeatureMatrix::from_rows(&rows).expect("rows share the model's layout");
        (matrix, self.feature_names.clone())
    }

    /// The raw feature rows of a dataset in this model's layout.
    fn extract_rows(&self, dataset: &Dataset) -> Vec<Vec<f64>> {
        let (config, n_threads) = (&self.config.features, self.config.n_threads);
        extract_rows(dataset.series(), config, &self.layout, n_threads)
    }

    /// The raw feature row of one series, gathered by the training names
    /// (`0.0` for a scale the series lacks): the serving extraction path,
    /// on a caller-held `workspace` and traced into `sink` as in
    /// [`crate::extract_series_features_traced`].
    pub fn extract_row_traced<S: TraceSink>(
        &self,
        series: &TimeSeries,
        workspace: &mut MotifWorkspace,
        sink: &mut S,
    ) -> Vec<f64> {
        let layout = Some(self.layout.as_slice());
        extract_row_traced(series, &self.config.features, layout, workspace, sink)
    }

    fn build_grid(&self) -> GridSearch {
        let mut grid = GridSearch::new(self.config.seed);
        grid.n_threads = self.config.n_threads;
        for &learning_rate in &[0.1, 0.3] {
            for &n_estimators in &[30usize, 60] {
                for &max_depth in &[4usize, 8] {
                    let params = GradientBoostingParams {
                        n_estimators,
                        learning_rate,
                        max_depth,
                        subsample: 0.5,
                        colsample_bytree: 0.5,
                        seed: self.config.seed,
                        ..Default::default()
                    };
                    grid.add(
                        format!("xgb(lr={learning_rate},n={n_estimators},d={max_depth})"),
                        Box::new(move || {
                            Box::new(GradientBoosting::new(params)) as Box<dyn Classifier>
                        }),
                    );
                }
            }
        }
        grid
    }

    fn build_stacking(&self, top_k: usize) -> StackingEnsemble {
        let seed = self.config.seed;
        let mut ens = StackingEnsemble::new(StackingParams {
            top_k,
            cv_folds: 3,
            seed,
            n_threads: self.config.n_threads,
        });
        for &(lr, n, d) in &[(0.1, 30usize, 4usize), (0.1, 60, 8), (0.3, 60, 4)] {
            let params = GradientBoostingParams {
                n_estimators: n,
                learning_rate: lr,
                max_depth: d,
                subsample: 0.5,
                colsample_bytree: 0.5,
                seed,
                ..Default::default()
            };
            ens.add_candidate(
                format!("xgb(lr={lr},n={n},d={d})"),
                Box::new(move || Box::new(GradientBoosting::new(params)) as Box<dyn Classifier>),
            );
        }
        for &(n, d) in &[(50usize, 8usize), (100, 12)] {
            let params = RandomForestParams {
                n_estimators: n,
                max_depth: d,
                seed,
                // the ensemble already parallelises across candidates; serial
                // trees avoid oversubscribing the pool
                n_threads: 1,
                ..Default::default()
            };
            ens.add_candidate(
                format!("rf(n={n},d={d})"),
                Box::new(move || Box::new(RandomForest::new(params)) as Box<dyn Classifier>),
            );
        }
        for &(c, gamma) in &[(1.0, 1.0), (10.0, 0.5)] {
            let params = SvmParams {
                c,
                kernel: SvmKernel::Rbf { gamma },
                seed,
                ..Default::default()
            };
            ens.add_candidate(
                format!("svm(C={c},gamma={gamma})"),
                Box::new(move || Box::new(SvmClassifier::new(params)) as Box<dyn Classifier>),
            );
        }
        ens
    }

    /// Fits the pipeline on a labeled training dataset.
    pub fn fit(&mut self, train: &Dataset) -> crate::Result<()> {
        if let Some(selection) = &self.config.features.selection {
            selection
                .validate(&self.config.features)
                .map_err(|e| MlError::InvalidData(format!("invalid feature selection: {e}")))?;
        }
        let labels = train
            .labels_required()
            .map_err(|e| MlError::InvalidData(e.to_string()))?;
        let (features, names) =
            extract_dataset_features(train, &self.config.features, self.config.n_threads);
        self.fit_features(features, names, &labels)
    }

    /// The half of [`MvgClassifier::fit`] after extraction: fits the scaler
    /// and the model on raw feature rows whose columns are `names`. The rows
    /// this model extracts from then on take the layout of `names`. An owned
    /// matrix is freed before the model fit; a borrowed one stays with the
    /// caller.
    pub fn fit_features(
        &mut self,
        features: impl Borrow<FeatureMatrix>,
        names: Vec<String>,
        labels: &[usize],
    ) -> crate::Result<()> {
        if labels.is_empty() {
            return Err(MlError::InvalidData("training dataset is empty".into()));
        }
        let raw = features.borrow();
        if raw.n_cols() != names.len() || raw.n_rows() != labels.len() {
            return Err(MlError::InvalidData(
                "one name per column, one label per row".into(),
            ));
        }
        self.set_feature_names(names)?;
        // min-max scale: harmless for trees, required for SVM
        let (scaler, mut x) = MinMaxScaler::fit_transform(raw)?;
        // an owned unscaled copy is dead from here; free it before the fit
        drop(features);
        self.scaler = Some(scaler);
        let mut y = labels.to_vec();
        if self.config.oversample {
            let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
            let indices = random_oversample(&y, &mut rng);
            x = x.select_rows(&indices);
            y = indices.iter().map(|&i| y[i]).collect();
        }
        self.n_classes = y.iter().copied().max().map(|m| m + 1).unwrap_or(0);
        let model: Box<dyn Classifier> = match &self.config.classifier {
            ClassifierChoice::GradientBoosting(params) => {
                let mut gbt = GradientBoosting::new(*params);
                gbt.fit(&x, &y)?;
                self.gbt_importance = gbt.feature_importance();
                Box::new(gbt)
            }
            ClassifierChoice::GradientBoostingGrid => {
                let grid = self.build_grid();
                let (results_model, _results) = grid.fit_best(&x, &y)?;
                // re-fit a matching booster to recover feature importances
                // (the grid returns a type-erased model)
                self.gbt_importance = Vec::new();
                results_model
            }
            ClassifierChoice::RandomForest(params) => {
                let mut rf = RandomForest::new(*params);
                rf.fit(&x, &y)?;
                self.gbt_importance = rf.feature_importance();
                Box::new(rf)
            }
            ClassifierChoice::Svm(params) => {
                let mut svm = SvmClassifier::new(*params);
                svm.fit(&x, &y)?;
                Box::new(svm)
            }
            ClassifierChoice::Stacked { top_k } => {
                let mut ens = self.build_stacking(*top_k);
                ens.fit(&x, &y)?;
                Box::new(ens)
            }
        };
        self.model = Some(model);
        Ok(())
    }

    /// Takes `names` as the training layout; each must be in the catalogue.
    fn set_feature_names(&mut self, names: Vec<String>) -> crate::Result<()> {
        self.layout = self.config.features.row_layout(&names);
        self.feature_names = names;
        if self.layout.contains(&None) {
            return Err(MlError::InvalidData(
                "feature name outside the catalogue".into(),
            ));
        }
        Ok(())
    }

    /// Scales raw feature rows in this model's layout with the fitted scaler;
    /// a row of another width is rejected, not repaired.
    fn transform_rows(&self, rows: &[Vec<f64>]) -> crate::Result<FeatureMatrix> {
        let scaler = self.scaler.as_ref().ok_or(MlError::NotFitted)?;
        scaler.transform(&FeatureMatrix::from_rows(rows)?)
    }

    /// Predicts labels from raw feature rows, one per series, as
    /// [`MvgClassifier::extract_row_traced`] extracts them.
    ///
    /// This is the serving batch path: a caller that extracts features on its
    /// own worker pool — reusing per-worker motif workspaces — gets
    /// bit-identical predictions to [`MvgClassifier::predict`], because both
    /// paths gather the training layout by name, scale with the fitted
    /// scaler and run the same model.
    pub fn predict_from_feature_rows(&self, rows: Vec<Vec<f64>>) -> crate::Result<Vec<usize>> {
        Ok(self.predict_feature_rows(&rows, false)?.0)
    }

    /// Predicts class probabilities from pre-extracted raw feature rows; the
    /// probability counterpart of [`MvgClassifier::predict_from_feature_rows`].
    pub fn predict_proba_from_feature_rows(
        &self,
        rows: Vec<Vec<f64>>,
    ) -> crate::Result<Vec<Vec<f64>>> {
        let model = self.model.as_ref().ok_or(MlError::NotFitted)?;
        if rows.is_empty() {
            return Ok(Vec::new());
        }
        let x = self.transform_rows(&rows)?;
        model.predict_proba(&x)
    }

    /// Labels, and probabilities when `with_proba` is set, from borrowed
    /// pre-extracted raw feature rows in this model's layout, scaling the
    /// rows only once — the serving batch path. Results are identical to
    /// [`MvgClassifier::predict_from_feature_rows`] and
    /// [`MvgClassifier::predict_proba_from_feature_rows`]; the caller keeps
    /// the rows, e.g. to retry a failed batch request by request.
    pub fn predict_feature_rows(
        &self,
        rows: &[Vec<f64>],
        with_proba: bool,
    ) -> crate::Result<RowPredictions> {
        let model = self.model.as_ref().ok_or(MlError::NotFitted)?;
        if rows.is_empty() {
            return Ok((Vec::new(), with_proba.then(Vec::new)));
        }
        let x = self.transform_rows(rows)?;
        let labels = model.predict(&x)?;
        let probabilities = if with_proba {
            Some(model.predict_proba(&x)?)
        } else {
            None
        };
        Ok((labels, probabilities))
    }

    /// Predicts labels for a dataset.
    pub fn predict(&self, dataset: &Dataset) -> crate::Result<Vec<usize>> {
        let model = self.model.as_ref().ok_or(MlError::NotFitted)?;
        model.predict(&self.transform_rows(&self.extract_rows(dataset))?)
    }

    /// Predicts class probabilities for a dataset.
    pub fn predict_proba(&self, dataset: &Dataset) -> crate::Result<Vec<Vec<f64>>> {
        let model = self.model.as_ref().ok_or(MlError::NotFitted)?;
        model.predict_proba(&self.transform_rows(&self.extract_rows(dataset))?)
    }

    /// Accuracy on a labeled dataset.
    pub fn score(&self, dataset: &Dataset) -> crate::Result<f64> {
        let truth = dataset
            .labels_required()
            .map_err(|e| MlError::InvalidData(e.to_string()))?;
        let pred = self.predict(dataset)?;
        Ok(accuracy(&truth, &pred))
    }

    /// Error rate (`1 - accuracy`) on a labeled dataset — the quantity the
    /// paper's tables report.
    pub fn error_rate(&self, dataset: &Dataset) -> crate::Result<f64> {
        Ok(1.0 - self.score(dataset)?)
    }

    /// Ranked feature importances (available for tree-based classifiers with
    /// fixed parameters; empty otherwise).
    pub fn feature_importances(&self) -> Vec<FeatureImportance> {
        rank_features(&self.feature_names, &self.gbt_importance)
    }

    /// The pruning half of the wide-then-prune workflow: a copy of this
    /// classifier's configuration whose feature extraction is restricted to
    /// the `k` most important features of *this* (fitted, wide) classifier.
    ///
    /// The returned configuration is what a caller refits to obtain the
    /// compact per-dataset model the serving registry deploys. Requires a
    /// fitted classifier of a family that exposes importances (fixed-
    /// parameter boosting or forest); errors otherwise, and when `k == 0`.
    pub fn pruned_config(&self, k: usize) -> crate::Result<MvgConfig> {
        if self.model.is_none() {
            return Err(MlError::NotFitted);
        }
        if self.config.features.selection.is_some() {
            return Err(MlError::InvalidData(
                "configuration is already pruned; prune from the wide fit instead".into(),
            ));
        }
        let ranked = self.feature_importances();
        let selection =
            crate::catalogue::FeatureSelection::from_importances(&ranked, &self.feature_names, k)
                .map_err(MlError::InvalidData)?;
        let mut config = self.config.clone();
        config.features.selection = Some(selection);
        Ok(config)
    }

    /// [`MvgClassifier::pruned_config`]`(k)`, fitted on the selected columns
    /// of the raw matrix this model was fitted on, without extracting again.
    /// Bit-identical to fitting that configuration on the training set:
    /// pruned extraction is a column gather of wide extraction, min-max
    /// scaling is per column, and oversampling reads only seed and labels.
    pub fn refit_pruned(
        &self,
        k: usize,
        features: &FeatureMatrix,
        labels: &[usize],
    ) -> crate::Result<MvgClassifier> {
        if features.n_cols() != self.feature_names.len() {
            return Err(MlError::InvalidData(
                "features are not in this model's layout".into(),
            ));
        }
        let config = self.pruned_config(k)?;
        let selection = config.features.selection.as_ref();
        let names = selection.map_or_else(Vec::new, |s| s.names().to_vec());
        let position = |n: &String| self.feature_names.iter().position(|w| w == n);
        let columns: Vec<usize> = names.iter().filter_map(position).collect();
        let data = features
            .rows()
            .flat_map(|row| columns.iter().map(|&j| row[j]));
        let pruned = FeatureMatrix::from_flat(data.collect(), features.n_rows(), columns.len())?;
        let mut refit = MvgClassifier::new(config);
        refit.fit_features(pruned, names, labels)?;
        Ok(refit)
    }

    /// FNV-1a fingerprint of the behaviour-relevant configuration fields:
    /// features, classifier choice, oversampling and seed. `n_threads` is
    /// deliberately excluded — outputs are identical for every thread count
    /// (pinned by the parallel-consistency tests), so a snapshot written on
    /// an 8-core box must restore on a 2-core one.
    pub fn config_fingerprint(config: &MvgConfig) -> u64 {
        let canonical = format!(
            "{:?}|{:?}|{}|{}",
            config.features, config.classifier, config.oversample, config.seed
        );
        tsg_ts::hash::Fnv1a::hash(canonical.as_bytes())
    }

    /// Serialises the fitted state — feature names, scaler, model, class
    /// count, importances — prefixed by [`MvgClassifier::config_fingerprint`]
    /// so a restore under a different configuration is rejected instead of
    /// silently mispredicting. Errors when unfitted or when the classifier
    /// family does not support snapshots (grid/stacked/forest/SVM models fall
    /// back to refitting).
    pub fn snapshot_bytes(&self) -> crate::Result<Vec<u8>> {
        use tsg_ml::snapshot as snap;
        let model = self.model.as_ref().ok_or(MlError::NotFitted)?;
        let scaler = self.scaler.as_ref().ok_or(MlError::NotFitted)?;
        let mut model_blob = Vec::new();
        if !model.snapshot_state(&mut model_blob) {
            return Err(MlError::InvalidData(format!(
                "classifier family does not support snapshots: {}",
                model.describe()
            )));
        }
        let mut out = Vec::new();
        snap::put_u64(&mut out, Self::config_fingerprint(&self.config));
        snap::put_u64(&mut out, self.n_classes as u64);
        snap::put_u32(&mut out, self.feature_names.len() as u32);
        for name in &self.feature_names {
            snap::put_str(&mut out, name);
        }
        snap::put_f64s(&mut out, &self.gbt_importance);
        let mut scaler_blob = Vec::new();
        scaler.snapshot_bytes(&mut scaler_blob);
        snap::put_blob(&mut out, &scaler_blob);
        snap::put_blob(&mut out, &model_blob);
        Ok(out)
    }

    /// Rebuilds a fitted classifier from [`MvgClassifier::snapshot_bytes`]
    /// output. The caller supplies the configuration (snapshots carry only
    /// its fingerprint); a mismatch, truncation or any corruption fails
    /// closed with an error — a restored classifier either predicts
    /// bit-identically to the one that was snapshotted or does not exist.
    pub fn from_snapshot(config: MvgConfig, bytes: &[u8]) -> crate::Result<Self> {
        use tsg_ml::snapshot as snap;
        let corrupt = || MlError::InvalidData("corrupt or truncated model snapshot".into());
        let mut r = snap::SnapReader::new(bytes);
        let stored = r.u64().ok_or_else(corrupt)?;
        if stored != Self::config_fingerprint(&config) {
            return Err(MlError::InvalidData(
                "snapshot was written under a different configuration".into(),
            ));
        }
        let n_classes = r.u64().ok_or_else(corrupt)? as usize;
        let n_names = r.u32().ok_or_else(corrupt)? as usize;
        let mut feature_names = Vec::with_capacity(n_names.min(1 << 16));
        for _ in 0..n_names {
            feature_names.push(r.str().ok_or_else(corrupt)?);
        }
        let gbt_importance = r.f64s().ok_or_else(corrupt)?;
        let mut scaler_reader = snap::SnapReader::new(r.blob().ok_or_else(corrupt)?);
        let scaler = MinMaxScaler::from_snapshot(&mut scaler_reader).ok_or_else(corrupt)?;
        if !scaler_reader.is_empty() {
            return Err(corrupt());
        }
        let model =
            tsg_ml::restore_classifier(r.blob().ok_or_else(corrupt)?).ok_or_else(corrupt)?;
        if !r.is_empty() || model.n_classes() != n_classes {
            return Err(corrupt());
        }
        let mut restored = MvgClassifier {
            model: Some(model),
            scaler: Some(scaler),
            gbt_importance,
            n_classes,
            ..MvgClassifier::new(config)
        };
        restored
            .set_feature_names(feature_names)
            .map_err(|_| corrupt())?;
        Ok(restored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tsg_ts::generators;
    use tsg_ts::TimeSeries;

    fn structured_dataset(n_per_class: usize, len: usize, seed: u64) -> Dataset {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut d = Dataset::new("synthetic");
        for i in 0..n_per_class * 2 {
            let label = i % 2;
            let values = if label == 0 {
                generators::sine_wave(&mut rng, len, 20.0, 1.0, 0.3, 0.2)
            } else {
                generators::ar1(&mut rng, len, 0.7, 1.0)
            };
            d.push(TimeSeries::with_label(values, label));
        }
        d
    }

    #[test]
    fn fast_config_learns_structured_vs_autoregressive() {
        let train = structured_dataset(12, 128, 1);
        let test = structured_dataset(10, 128, 2);
        let mut clf = MvgClassifier::new(MvgConfig::fast());
        clf.fit(&train).unwrap();
        let acc = clf.score(&test).unwrap();
        assert!(acc >= 0.8, "accuracy {acc}");
        assert_eq!(clf.n_classes(), 2);
        assert!(!clf.feature_names().is_empty());
        let err = clf.error_rate(&test).unwrap();
        assert!((err - (1.0 - acc)).abs() < 1e-12);
    }

    #[test]
    fn probabilities_are_valid() {
        let train = structured_dataset(8, 128, 3);
        let mut clf = MvgClassifier::new(MvgConfig::fast());
        clf.fit(&train).unwrap();
        for p in clf.predict_proba(&train).unwrap() {
            assert_eq!(p.len(), 2);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn feature_importances_are_ranked() {
        let train = structured_dataset(10, 128, 4);
        let mut clf = MvgClassifier::new(MvgConfig::fast());
        clf.fit(&train).unwrap();
        let imp = clf.feature_importances();
        assert!(!imp.is_empty());
        for w in imp.windows(2) {
            assert!(w[0].importance >= w[1].importance);
        }
    }

    #[test]
    fn random_forest_and_svm_choices_work() {
        let train = structured_dataset(8, 128, 5);
        let test = structured_dataset(6, 128, 6);
        for choice in [
            ClassifierChoice::RandomForest(RandomForestParams {
                n_estimators: 20,
                max_depth: 8,
                ..Default::default()
            }),
            ClassifierChoice::Svm(SvmParams {
                c: 5.0,
                kernel: SvmKernel::Rbf { gamma: 2.0 },
                ..Default::default()
            }),
        ] {
            let config = MvgConfig::fast().with_classifier(choice);
            let mut clf = MvgClassifier::new(config);
            clf.fit(&train).unwrap();
            let acc = clf.score(&test).unwrap();
            assert!(
                acc >= 0.6,
                "accuracy {acc} for {:?}",
                clf.config().classifier
            );
        }
    }

    #[test]
    fn fitted_classifier_is_shareable_across_threads() {
        // the boxed model carries the trait's Send + Sync bound, so a fitted
        // pipeline can be shared by serving workers
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MvgClassifier>();

        let train = structured_dataset(6, 96, 8);
        let mut clf = MvgClassifier::new(MvgConfig::fast());
        clf.fit(&train).unwrap();
        let reference = clf.predict(&train).unwrap();
        let clf = std::sync::Arc::new(clf);
        let predictions: Vec<Vec<usize>> = std::thread::scope(|scope| {
            (0..3)
                .map(|_| {
                    let clf = std::sync::Arc::clone(&clf);
                    let train = &train;
                    scope.spawn(move || clf.predict(train).unwrap())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for pred in predictions {
            assert_eq!(pred, reference);
        }
    }

    #[test]
    fn feature_row_predictions_match_dataset_predictions() {
        use crate::extractor::extract_series_features;
        let train = structured_dataset(6, 96, 10);
        let test = structured_dataset(5, 96, 11);
        let mut clf = MvgClassifier::new(MvgConfig::fast());
        clf.fit(&train).unwrap();
        let expected = clf.predict(&test).unwrap();
        let expected_proba = clf.predict_proba(&test).unwrap();
        let rows: Vec<Vec<f64>> = test
            .series()
            .iter()
            .map(|s| extract_series_features(s, &clf.config().features))
            .collect();
        assert_eq!(
            clf.predict_from_feature_rows(rows.clone()).unwrap(),
            expected
        );
        assert_eq!(
            clf.predict_proba_from_feature_rows(rows.clone()).unwrap(),
            expected_proba
        );
        let (combined_pred, combined_proba) = clf.predict_feature_rows(&rows, true).unwrap();
        assert_eq!(combined_pred, expected);
        assert_eq!(combined_proba, Some(expected_proba));
        assert_eq!(
            clf.predict_feature_rows(&rows, false).unwrap(),
            (expected, None)
        );
        assert!(clf
            .predict_from_feature_rows(Vec::new())
            .unwrap()
            .is_empty());
        // a row of another width is rejected, never padded or truncated
        let mut short = rows.clone();
        short[1].pop();
        assert!(clf.predict_feature_rows(&short, false).is_err());
        let mut long = rows;
        long[0].push(0.0);
        assert!(clf.predict_feature_rows(&long, false).is_err());
    }

    #[test]
    fn snapshot_restores_bit_identical_predictions() {
        let train = structured_dataset(8, 96, 21);
        let test = structured_dataset(6, 96, 22);
        let mut clf = MvgClassifier::new(MvgConfig::fast());
        clf.fit(&train).unwrap();
        let bytes = clf.snapshot_bytes().unwrap();
        let restored = MvgClassifier::from_snapshot(MvgConfig::fast(), &bytes).unwrap();
        assert_eq!(restored.n_classes(), clf.n_classes());
        assert_eq!(restored.feature_names(), clf.feature_names());
        assert_eq!(
            restored.predict(&test).unwrap(),
            clf.predict(&test).unwrap()
        );
        for (a, b) in clf
            .predict_proba(&test)
            .unwrap()
            .iter()
            .zip(restored.predict_proba(&test).unwrap().iter())
        {
            for (va, vb) in a.iter().zip(b.iter()) {
                assert_eq!(va.to_bits(), vb.to_bits(), "restored pipeline drifted");
            }
        }
        // n_threads must NOT be part of the fingerprint (a snapshot written
        // on one machine restores on another with a different core count)
        let mut other_threads = MvgConfig::fast();
        other_threads.n_threads = (other_threads.n_threads % 4) + 1;
        assert!(MvgClassifier::from_snapshot(other_threads, &bytes).is_ok());
        // but any behaviour-relevant change is rejected outright
        assert!(MvgClassifier::from_snapshot(MvgConfig::fast().with_seed(99), &bytes).is_err());
        // and the fingerprint itself is pinned: a snapshot written by an
        // older build must keep restoring under the same configuration
        assert_eq!(
            MvgClassifier::config_fingerprint(&MvgConfig::fast()),
            0xe489_19a8_3483_1cfa
        );
        // corruption fails closed: every truncation and a one-bit flip
        for cut in [0, 7, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                MvgClassifier::from_snapshot(MvgConfig::fast(), &bytes[..cut]).is_err(),
                "truncation at {cut} restored a classifier"
            );
        }
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        if let Ok(model) = MvgClassifier::from_snapshot(MvgConfig::fast(), &flipped) {
            // a flip in leaf-weight payload bits can still parse; it must at
            // least still be a structurally valid, usable model
            model.predict(&test).unwrap();
        }
    }

    #[test]
    fn snapshot_unsupported_family_and_unfitted_error_cleanly() {
        let unfitted = MvgClassifier::new(MvgConfig::fast());
        assert!(unfitted.snapshot_bytes().is_err());
        let train = structured_dataset(6, 96, 23);
        let config =
            MvgConfig::fast().with_classifier(ClassifierChoice::RandomForest(RandomForestParams {
                n_estimators: 5,
                max_depth: 4,
                ..Default::default()
            }));
        let mut clf = MvgClassifier::new(config);
        clf.fit(&train).unwrap();
        // forests don't snapshot (yet): callers must fall back to refitting
        assert!(clf.snapshot_bytes().is_err());
    }

    #[test]
    fn pruned_config_selects_top_k_and_refits() {
        let train = structured_dataset(10, 128, 31);
        let test = structured_dataset(8, 128, 32);
        let wide_config = MvgConfig::fast().with_features(FeatureConfig::wide());
        let mut wide = MvgClassifier::new(wide_config);
        wide.fit(&train).unwrap();

        let pruned_config = wide.pruned_config(24).unwrap();
        let selection = pruned_config.features.selection.as_ref().unwrap();
        assert_eq!(selection.len(), 24);
        // selection is in wide order and drawn from the wide names
        let wide_names = wide.feature_names();
        let positions: Vec<usize> = selection
            .names()
            .iter()
            .map(|n| wide_names.iter().position(|w| w == n).unwrap())
            .collect();
        assert!(positions.windows(2).all(|w| w[0] < w[1]));
        // the top-k by importance are exactly the selected set
        let ranked = wide.feature_importances();
        let mut expected: Vec<&str> = ranked[..24].iter().map(|f| f.name.as_str()).collect();
        expected.sort_unstable();
        let mut got: Vec<&str> = selection.names().iter().map(|s| s.as_str()).collect();
        got.sort_unstable();
        assert_eq!(got, expected);

        let mut pruned = MvgClassifier::new(pruned_config);
        pruned.fit(&train).unwrap();
        assert_eq!(pruned.feature_names().len(), 24);
        let acc_wide = wide.score(&test).unwrap();
        let acc_pruned = pruned.score(&test).unwrap();
        assert!(
            acc_pruned >= acc_wide - 0.15,
            "pruned accuracy {acc_pruned} collapsed vs wide {acc_wide}"
        );
    }

    #[test]
    fn pruned_config_error_paths() {
        let unfitted = MvgClassifier::new(MvgConfig::fast());
        assert!(unfitted.pruned_config(8).is_err());

        let train = structured_dataset(6, 96, 33);
        let mut clf = MvgClassifier::new(MvgConfig::fast());
        clf.fit(&train).unwrap();
        assert!(clf.pruned_config(0).is_err());
        // pruning an already-pruned configuration is rejected
        let pruned_config = clf.pruned_config(8).unwrap();
        let mut pruned = MvgClassifier::new(pruned_config);
        pruned.fit(&train).unwrap();
        assert!(pruned.pruned_config(4).is_err());
        // a family without importances cannot drive pruning
        let config = MvgConfig::fast().with_classifier(ClassifierChoice::Svm(SvmParams {
            c: 1.0,
            kernel: SvmKernel::Rbf { gamma: 1.0 },
            ..Default::default()
        }));
        let mut svm = MvgClassifier::new(config);
        svm.fit(&train).unwrap();
        assert!(svm.pruned_config(8).is_err());
    }

    #[test]
    fn fit_rejects_selection_not_in_catalogue() {
        let train = structured_dataset(4, 96, 34);
        let mut config = MvgConfig::fast();
        config.features.selection = Some(crate::catalogue::FeatureSelection::new(vec![
            "T0 VG bogus_feature".to_string(),
        ]));
        let mut clf = MvgClassifier::new(config);
        let err = clf.fit(&train).unwrap_err();
        assert!(
            err.to_string().contains("not in the running catalogue"),
            "{err}"
        );
    }

    #[test]
    fn pruned_snapshot_round_trips_with_selection_fingerprint() {
        let train = structured_dataset(8, 96, 35);
        let test = structured_dataset(6, 96, 36);
        let wide_config = MvgConfig::fast().with_features(FeatureConfig::wide());
        let mut wide = MvgClassifier::new(wide_config.clone());
        wide.fit(&train).unwrap();
        let pruned_config = wide.pruned_config(16).unwrap();
        let mut pruned = MvgClassifier::new(pruned_config.clone());
        pruned.fit(&train).unwrap();
        let bytes = pruned.snapshot_bytes().unwrap();
        let restored = MvgClassifier::from_snapshot(pruned_config.clone(), &bytes).unwrap();
        assert_eq!(restored.feature_names(), pruned.feature_names());
        assert_eq!(
            restored.predict(&test).unwrap(),
            pruned.predict(&test).unwrap()
        );
        // a different selection is a different fingerprint
        let other = wide.pruned_config(8).unwrap();
        assert!(MvgClassifier::from_snapshot(other, &bytes).is_err());
        // and the wide config cannot claim the pruned snapshot
        assert_eq!(
            MvgClassifier::config_fingerprint(&wide_config),
            0x4ca5_349d_9074_699e,
            "the wide preset's fingerprint is pinned across versions"
        );
        assert!(MvgClassifier::from_snapshot(wide_config, &bytes).is_err());
    }

    #[test]
    fn unfitted_prediction_errors() {
        let clf = MvgClassifier::new(MvgConfig::fast());
        let d = structured_dataset(2, 64, 9);
        assert!(clf.predict(&d).is_err());
        assert!(clf.score(&d).is_err());
    }

    #[test]
    fn empty_dataset_rejected() {
        let mut clf = MvgClassifier::new(MvgConfig::fast());
        assert!(clf.fit(&Dataset::new("empty")).is_err());
    }
}
