//! The model registry: named, fitted [`MvgClassifier`] instances behind
//! `Arc`s, all feeding one shared micro-batch scheduler.
//!
//! Models are fitted either from the [`tsg_datasets`] catalogue — resolved
//! through the unified [`tsg_datasets::DatasetSource`], so a real UCR
//! directory (`TSG_UCR_DIR`) takes precedence over synthesis — or from
//! training series supplied inline in the fit request. Each model records
//! the provenance of its training split (`synthetic` / `real` / `inline`)
//! in its [`ModelInfo`].
//!
//! Every successful fit is stamped with a registry-wide monotonically
//! increasing **version** ([`ModelInfo::version`]). Fitting replaces an
//! existing model of the same name atomically, but in-flight classify
//! requests hold an `Arc` to the *entry* they resolved, so a hot-swap never
//! changes the model under a request that already passed routing. Clients
//! that must not race a swap at all pin the version in the classify request
//! (`"version": N`): when the registered version no longer matches, the
//! server answers `409 Conflict` instead of silently classifying with a
//! different model.

use crate::batcher::{first_non_finite, BatchConfig, SharedBatcher};
use crate::metrics::ServerMetrics;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;
use tsg_core::{ClassifierChoice, FeatureConfig, MvgClassifier, MvgConfig};
use tsg_datasets::archive::ArchiveOptions;
use tsg_ml::gbt::GradientBoostingParams;
use tsg_parallel::ThreadPool;
use tsg_ts::Dataset;

/// Named classifier presets exposed on the wire (`"config"` field of a fit
/// request). Kept as a function of `(name, seed, n_threads)` so a client and
/// an in-process test can construct the *identical* configuration.
pub fn config_named(name: &str, seed: u64, n_threads: usize) -> Option<MvgConfig> {
    let base = match name {
        // full MVG features, small fixed booster — the serving default
        "fast" => MvgConfig::fast(),
        // the paper's grid-searched configuration (slow to fit)
        "paper" => MvgConfig::paper(),
        // uniscale features with a small booster — cheapest to fit and serve
        "uvg-fast" => MvgConfig {
            features: FeatureConfig::uvg(),
            classifier: ClassifierChoice::GradientBoosting(GradientBoostingParams {
                n_estimators: 20,
                max_depth: 3,
                learning_rate: 0.2,
                subsample: 0.8,
                colsample_bytree: 0.8,
                ..Default::default()
            }),
            oversample: true,
            n_threads: 0,
            seed: 0,
        },
        // the full tiered catalogue (graph features + statistical layer)
        // with a small fixed booster: the fit-wide-then-prune starting point
        "wide" => MvgConfig {
            features: FeatureConfig::wide(),
            ..MvgConfig::fast()
        },
        _ => return None,
    };
    Some(MvgConfig {
        n_threads,
        seed,
        ..base
    })
}

/// Names of the presets accepted by [`config_named`].
pub const CONFIG_PRESETS: [&str; 4] = ["fast", "paper", "uvg-fast", "wide"];

/// Where a model's training data came from.
#[derive(Debug, Clone)]
pub enum TrainingSource {
    /// A named dataset of the synthetic catalogue under a size budget.
    Catalogue {
        /// UCR dataset name.
        dataset: String,
        /// Generation budget and seed.
        options: ArchiveOptions,
    },
    /// Training series supplied inline in the fit request.
    Inline(Dataset),
}

/// Metadata of a fitted model (returned by `/models` and fit responses).
#[derive(Debug, Clone)]
pub struct ModelInfo {
    /// Registry name.
    pub name: String,
    /// Registry-wide monotonic fit counter; a refit under the same name gets
    /// a strictly larger version. Classify requests may pin this.
    pub version: u64,
    /// Catalogue dataset the model was fitted on (`None` for inline fits).
    pub dataset: Option<String>,
    /// Configuration preset name.
    pub config: String,
    /// Training instances.
    pub n_train: usize,
    /// Classes seen during fitting.
    pub n_classes: usize,
    /// Extracted features per series.
    pub n_features: usize,
    /// Wall-clock fit time in seconds.
    pub fit_seconds: f64,
    /// Where the training split came from: `synthetic`, `real` (a UCR
    /// directory via `TSG_UCR_DIR`) or `inline`.
    pub provenance: String,
    /// The importance-selected feature subset a pruned model extracts, in
    /// wide-vector order; `None` for unpruned models (full catalogue of the
    /// preset). Persisted in snapshots (format v2) and validated against
    /// the running catalogue on restore.
    pub features: Option<Vec<String>>,
}

/// A fitted model resolved from the registry. The entry owns an `Arc` to its
/// classifier, so a request that resolved an entry keeps exactly that model
/// alive and in use even if a refit replaces the registry slot mid-flight.
pub struct ModelEntry {
    /// Metadata (including the pinnable version).
    pub info: ModelInfo,
    model: Arc<MvgClassifier>,
}

impl ModelEntry {
    /// The fitted classifier behind this entry.
    pub fn classifier(&self) -> &Arc<MvgClassifier> {
        &self.model
    }
}

/// Errors surfaced by registry operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// No model with the requested name.
    UnknownModel(String),
    /// The preset name is not one of [`CONFIG_PRESETS`].
    UnknownConfig(String),
    /// The catalogue has no dataset with this name.
    UnknownDataset(String),
    /// The training input cannot be fitted, e.g. a series whose features
    /// overflow to a non-finite value.
    Input(String),
    /// Fitting failed.
    Fit(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::UnknownModel(n) => write!(f, "unknown model `{n}`"),
            RegistryError::UnknownConfig(n) => write!(
                f,
                "unknown config `{n}` (expected one of {})",
                CONFIG_PRESETS.join(", ")
            ),
            RegistryError::UnknownDataset(n) => write!(f, "unknown dataset `{n}`"),
            RegistryError::Input(e) => write!(f, "invalid training input: {e}"),
            RegistryError::Fit(e) => write!(f, "fit failed: {e}"),
        }
    }
}

/// The registry proper: the name → entry table plus the single shared
/// batcher all entries classify through.
pub struct ModelRegistry {
    models: RwLock<BTreeMap<String, Arc<ModelEntry>>>,
    batcher: Arc<SharedBatcher>,
    /// Source of [`ModelInfo::version`] stamps.
    next_version: AtomicU64,
    metrics: Arc<ServerMetrics>,
    n_threads: usize,
    /// When set, every successful fit writes a crash-safe snapshot here and
    /// [`ModelRegistry::warm_restart`] reloads fitted models on boot.
    snapshot_dir: Option<std::path::PathBuf>,
}

impl ModelRegistry {
    /// Read-locks the model table, recovering on poison. Entries are only
    /// ever inserted/removed whole, so a panicking writer cannot leave the
    /// map half-updated — serving the recovered table beats refusing every
    /// request forever.
    fn models_read(&self) -> std::sync::RwLockReadGuard<'_, BTreeMap<String, Arc<ModelEntry>>> {
        self.models
            .read()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    /// Write-locks the model table, recovering on poison (same reasoning as
    /// [`ModelRegistry::models_read`]).
    fn models_write(&self) -> std::sync::RwLockWriteGuard<'_, BTreeMap<String, Arc<ModelEntry>>> {
        self.models
            .write()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    /// Creates an empty registry. `n_threads` sizes the shared extraction
    /// pool (`0` = process default). Fails only when the batch dispatcher
    /// thread cannot be spawned.
    pub fn new(
        n_threads: usize,
        batch_config: BatchConfig,
        metrics: Arc<ServerMetrics>,
    ) -> std::io::Result<Self> {
        let pool = ThreadPool::new(n_threads);
        let batcher = Arc::new(SharedBatcher::new(
            batch_config,
            pool,
            Arc::clone(&metrics),
        )?);
        Ok(ModelRegistry {
            models: RwLock::new(BTreeMap::new()),
            batcher,
            next_version: AtomicU64::new(1),
            metrics,
            n_threads: tsg_parallel::resolve_threads(n_threads),
            snapshot_dir: None,
        })
    }

    /// Enables crash-safe model snapshots under `dir`: every successful fit
    /// writes one, and [`ModelRegistry::warm_restart`] reloads them on boot.
    pub fn set_snapshot_dir(&mut self, dir: std::path::PathBuf) {
        self.snapshot_dir = Some(dir);
    }

    /// The shared micro-batch scheduler (for asynchronous submission by the
    /// event loop).
    pub fn batcher(&self) -> &Arc<SharedBatcher> {
        &self.batcher
    }

    /// Fits a model and registers it under `name`, replacing any previous
    /// model of that name. Returns the new model's metadata, stamped with a
    /// fresh registry-wide version.
    pub fn fit(
        &self,
        name: &str,
        source: TrainingSource,
        config_name: &str,
        seed: u64,
    ) -> Result<ModelInfo, RegistryError> {
        self.fit_impl(name, source, config_name, seed, None)
    }

    /// [`ModelRegistry::fit`] with importance-driven pruning: fits the full
    /// preset once, selects the `k` most important features from that wide
    /// fit, then refits on the pruned configuration and registers *that*
    /// model. The served model extracts only the selected columns, so its
    /// classify latency drops with the catalogue width. The selected names
    /// land in [`ModelInfo::features`] (and in the snapshot, format v2).
    pub fn fit_pruned(
        &self,
        name: &str,
        source: TrainingSource,
        config_name: &str,
        seed: u64,
        k: usize,
    ) -> Result<ModelInfo, RegistryError> {
        self.fit_impl(name, source, config_name, seed, Some(k))
    }

    fn fit_impl(
        &self,
        name: &str,
        source: TrainingSource,
        config_name: &str,
        seed: u64,
        prune: Option<usize>,
    ) -> Result<ModelInfo, RegistryError> {
        let config = config_named(config_name, seed, self.n_threads)
            .ok_or_else(|| RegistryError::UnknownConfig(config_name.to_string()))?;
        let (train, dataset_name, provenance) = match source {
            TrainingSource::Catalogue { dataset, options } => {
                // the unified resolver: TSG_UCR_DIR (real files) first,
                // synthesis behind it. Only the training split is
                // materialised — fitting never touches (or hashes) the often
                // much larger _TEST file.
                let (train, provenance) = tsg_datasets::DatasetSource::from_env(options)
                    .resolve_split(&dataset, tsg_datasets::Split::Train)
                    .map_err(|e| match e {
                        tsg_datasets::SourceError::UnknownDataset(_) => {
                            RegistryError::UnknownDataset(dataset.clone())
                        }
                        other => RegistryError::Fit(other.to_string()),
                    })?;
                let provenance = provenance.kind.as_str().to_string();
                (train, Some(dataset), provenance)
            }
            TrainingSource::Inline(train) => (train, None, "inline".to_string()),
        };
        let started = Instant::now();
        let fit_error = |e: tsg_ml::MlError| RegistryError::Fit(e.to_string());
        let labels = train
            .labels_required()
            .map_err(|e| RegistryError::Fit(e.to_string()))?;
        // one extraction serves the wide fit and the pruned refit: the refit
        // takes the top-k columns of the same raw matrix, which only a
        // pruned fit keeps. fit_seconds deliberately covers both fits.
        let mut clf = MvgClassifier::new(config);
        let (wide, names) = clf.extract_features(&train);
        if let Some((row, value, name)) = first_non_finite(wide.rows(), &names) {
            return Err(RegistryError::Input(format!(
                "training series {row} has non-finite value {value} in feature `{name}`"
            )));
        }
        match prune {
            None => clf.fit_features(wide, names, &labels).map_err(fit_error)?,
            Some(k) => {
                clf.fit_features(&wide, names, &labels).map_err(fit_error)?;
                clf = clf.refit_pruned(k, &wide, &labels).map_err(fit_error)?;
            }
        }
        let features = prune.map(|_| clf.feature_names().to_vec());
        // the version is stamped only after a *successful* fit, so failed
        // fits never consume a version a client could be pinned against
        let version = self.next_version.fetch_add(1, Ordering::Relaxed);
        let info = ModelInfo {
            name: name.to_string(),
            version,
            dataset: dataset_name,
            config: config_name.to_string(),
            n_train: train.len(),
            n_classes: clf.n_classes(),
            n_features: clf.feature_names().len(),
            fit_seconds: started.elapsed().as_secs_f64(),
            provenance,
            features,
        };
        let entry = Arc::new(ModelEntry {
            info: info.clone(),
            model: Arc::new(clf),
        });
        self.metrics.models_fitted_total.inc();
        // the replaced entry (if any) drops outside the lock; in-flight
        // requests keep the old model alive through their own Arcs
        let _previous = self.models_write().insert(name.to_string(), entry.clone());
        // snapshot-on-fit: best effort — a failed write never fails the fit
        // (the model is already serving), it only costs a refit on restart
        if let Some(dir) = &self.snapshot_dir {
            match entry.model.snapshot_bytes() {
                Ok(payload) => {
                    if let Err(e) = crate::snapshot::write_snapshot(dir, &info, seed, &payload) {
                        tsg_trace::log::warn(
                            "registry",
                            &format!(
                                "snapshot of `{name}` failed (still serving; will refit after restart)"
                            ),
                            None,
                            &[("error", &e.to_string())],
                        );
                    }
                }
                Err(e) => tsg_trace::log::warn(
                    "registry",
                    &format!("model `{name}` not snapshotted"),
                    None,
                    &[("error", &e.to_string())],
                ),
            }
        }
        Ok(info)
    }

    /// Reloads every valid snapshot under the snapshot directory, restoring
    /// models with their stored metadata — **including their versions**, so
    /// client version pins stay valid across a restart (the version counter
    /// resumes past the largest restored stamp). Corrupt, truncated or
    /// stale-config snapshots are counted in `snapshot_load_failures_total`
    /// and skipped: a bad snapshot degrades to a refit, never to serving a
    /// wrong model. Returns the number of models restored.
    pub fn warm_restart(&self) -> usize {
        let Some(dir) = self.snapshot_dir.clone() else {
            return 0;
        };
        let mut restored = 0usize;
        for path in crate::snapshot::list_snapshots(&dir) {
            match self.restore_one(&path) {
                Ok(info) => {
                    restored += 1;
                    self.next_version
                        .fetch_max(info.version + 1, Ordering::Relaxed);
                }
                Err(reason) => {
                    self.metrics.snapshot_load_failures_total.inc();
                    tsg_trace::log::warn(
                        "registry",
                        &format!(
                            "skipping snapshot {}: {reason} (model will be refitted on demand)",
                            path.display()
                        ),
                        None,
                        &[],
                    );
                }
            }
        }
        restored
    }

    /// Restores one snapshot file into the registry (see
    /// [`ModelRegistry::warm_restart`]).
    fn restore_one(&self, path: &std::path::Path) -> Result<ModelInfo, String> {
        let (info, seed, payload) =
            crate::snapshot::read_snapshot(path).map_err(|e| e.to_string())?;
        let mut config = config_named(&info.config, seed, self.n_threads)
            .ok_or_else(|| format!("unknown config preset `{}`", info.config))?;
        if let Some(names) = &info.features {
            // a pruned snapshot is only usable if every selected feature
            // still exists in the running catalogue; a snapshot from a
            // newer/older build that selected features we do not compute
            // must degrade to a refit, never restore a misaligned model
            let selection = tsg_core::FeatureSelection::new(names.clone());
            selection
                .validate(&config.features)
                .map_err(|e| format!("stored feature selection is invalid: {e}"))?;
            config.features.selection = Some(selection);
        }
        let clf = MvgClassifier::from_snapshot(config, &payload).map_err(|e| e.to_string())?;
        if clf.n_classes() != info.n_classes || clf.feature_names().len() != info.n_features {
            return Err("stored metadata does not match the restored model".into());
        }
        if let Some(names) = &info.features {
            if clf.feature_names() != names.as_slice() {
                return Err("stored feature list does not match the restored model".into());
            }
        }
        let entry = Arc::new(ModelEntry {
            info: info.clone(),
            model: Arc::new(clf),
        });
        self.models_write().insert(info.name.clone(), entry);
        Ok(info)
    }

    /// Looks up a model by name.
    pub fn get(&self, name: &str) -> Result<Arc<ModelEntry>, RegistryError> {
        self.models_read()
            .get(name)
            .cloned()
            .ok_or_else(|| RegistryError::UnknownModel(name.to_string()))
    }

    /// Removes a model (and its on-disk snapshot, so a deleted model does
    /// not resurrect on the next warm restart); returns whether it existed.
    pub fn remove(&self, name: &str) -> bool {
        let existed = self.models_write().remove(name).is_some();
        if existed {
            if let Some(dir) = &self.snapshot_dir {
                let _ = tsg_faults::fsio::remove_file(&crate::snapshot::snapshot_path(dir, name));
            }
        }
        existed
    }

    /// Metadata of every registered model, sorted by name.
    pub fn list(&self) -> Vec<ModelInfo> {
        self.models_read()
            .values()
            .map(|e| e.info.clone())
            .collect()
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.models_read().len()
    }

    /// Whether no models are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Shuts down the shared batcher (draining queued work with 503s) and
    /// drops every entry.
    pub fn shutdown(&self) {
        self.batcher.shutdown();
        self.models_write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsg_ts::TimeSeries;

    fn registry() -> ModelRegistry {
        ModelRegistry::new(
            1,
            BatchConfig::default(),
            Arc::new(ServerMetrics::default()),
        )
        .expect("spawn registry")
    }

    fn catalogue_source() -> TrainingSource {
        TrainingSource::Catalogue {
            dataset: "BeetleFly".into(),
            options: ArchiveOptions::bounded(8, 64, 3),
        }
    }

    #[test]
    fn fit_from_catalogue_and_classify() {
        let r = registry();
        let info = r.fit("demo", catalogue_source(), "uvg-fast", 3).unwrap();
        assert_eq!(info.name, "demo");
        assert_eq!(info.dataset.as_deref(), Some("BeetleFly"));
        assert_eq!(info.n_classes, 2);
        assert!(info.n_features > 0);
        // no TSG_UCR_DIR in the test environment: catalogue fits resolve
        // by synthesis
        assert_eq!(info.provenance, "synthetic");
        let entry = r.get("demo").unwrap();
        let series = vec![TimeSeries::new((0..64).map(|t| (t as f64).sin()).collect())];
        let out = r
            .batcher()
            .classify(Arc::clone(entry.classifier()), series, false)
            .unwrap();
        assert_eq!(out.predictions.len(), 1);
        assert_eq!(r.list().len(), 1);
        assert!(r.remove("demo"));
        assert!(r.get("demo").is_err());
        assert!(r.is_empty());
    }

    #[test]
    fn fit_from_inline_series() {
        let r = registry();
        let mut train = Dataset::new("inline");
        for i in 0..6 {
            let label = i % 2;
            let values: Vec<f64> = (0..48)
                .map(|t| {
                    if label == 0 {
                        ((t as f64) * 0.5).sin()
                    } else {
                        ((t * 13 + i * 7) % 11) as f64
                    }
                })
                .collect();
            train.push(TimeSeries::with_label(values, label));
        }
        let info = r
            .fit("inline", TrainingSource::Inline(train), "uvg-fast", 1)
            .unwrap();
        assert!(info.dataset.is_none());
        assert_eq!(info.n_train, 6);
        assert_eq!(info.provenance, "inline");
    }

    #[test]
    fn unknown_names_are_rejected() {
        let r = registry();
        assert_eq!(
            r.fit("m", catalogue_source(), "nope", 1).unwrap_err(),
            RegistryError::UnknownConfig("nope".into())
        );
        let missing = TrainingSource::Catalogue {
            dataset: "NotADataset".into(),
            options: ArchiveOptions::bounded(8, 64, 3),
        };
        assert_eq!(
            r.fit("m", missing, "uvg-fast", 1).unwrap_err(),
            RegistryError::UnknownDataset("NotADataset".into())
        );
        assert!(matches!(
            r.get("m").err(),
            Some(RegistryError::UnknownModel(_))
        ));
    }

    #[test]
    fn refit_replaces_model_and_bumps_version() {
        let r = registry();
        r.fit("m", catalogue_source(), "uvg-fast", 1).unwrap();
        let first = r.get("m").unwrap();
        r.fit("m", catalogue_source(), "uvg-fast", 2).unwrap();
        let second = r.get("m").unwrap();
        assert!(!Arc::ptr_eq(&first, &second));
        assert_eq!(r.len(), 1);
        assert!(
            second.info.version > first.info.version,
            "refit must advance the version ({} -> {})",
            first.info.version,
            second.info.version
        );
        // a request that resolved `first` before the swap still classifies
        // with the old model — hot-swaps never change a resolved entry
        let series = vec![TimeSeries::new((0..64).map(|t| (t as f64).sin()).collect())];
        let old = r
            .batcher()
            .classify(Arc::clone(first.classifier()), series.clone(), false)
            .unwrap();
        let direct = first
            .classifier()
            .predict(&Dataset::from_series("q", series))
            .unwrap();
        assert_eq!(old.predictions, direct);
    }

    #[test]
    fn versions_are_distinct_across_names() {
        let r = registry();
        let a = r.fit("a", catalogue_source(), "uvg-fast", 1).unwrap();
        let b = r.fit("b", catalogue_source(), "uvg-fast", 1).unwrap();
        assert!(b.version > a.version, "{} vs {}", a.version, b.version);
    }

    #[test]
    fn warm_restart_restores_bit_identical_models_and_rejects_corruption() {
        static DIR_SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "tsg-registry-snap-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let probe = vec![TimeSeries::new((0..64).map(|t| (t as f64).sin()).collect())];
        let probe_set = Dataset::from_series("probe", probe);

        let mut first = registry();
        first.set_snapshot_dir(dir.clone());
        let info = first
            .fit("demo", catalogue_source(), "uvg-fast", 3)
            .unwrap();
        let expected = first
            .get("demo")
            .unwrap()
            .classifier()
            .predict_proba(&probe_set)
            .unwrap();
        drop(first); // the original process is gone; only the snapshot remains

        let metrics = Arc::new(ServerMetrics::default());
        let second =
            ModelRegistry::new(1, BatchConfig::default(), Arc::clone(&metrics)).map(|mut r| {
                r.set_snapshot_dir(dir.clone());
                r
            });
        let second = second.unwrap();
        assert_eq!(second.warm_restart(), 1);
        assert_eq!(metrics.snapshot_load_failures_total.get(), 0);
        let entry = second.get("demo").unwrap();
        // metadata — version included — survives the restart
        assert_eq!(entry.info.version, info.version);
        assert_eq!(entry.info.dataset.as_deref(), Some("BeetleFly"));
        assert_eq!(entry.info.config, "uvg-fast");
        // predictions are bit-identical to the pre-restart model
        let restored = entry.classifier().predict_proba(&probe_set).unwrap();
        for (a, b) in expected.iter().zip(restored.iter()) {
            for (va, vb) in a.iter().zip(b.iter()) {
                assert_eq!(va.to_bits(), vb.to_bits(), "restored model drifted");
            }
        }
        // the version counter resumed past the restored stamp: a client pin
        // on the restored version can never be silently re-used by a new fit
        let refit = second
            .fit("other", catalogue_source(), "uvg-fast", 3)
            .unwrap();
        assert!(refit.version > info.version);

        // corrupt the snapshot: the next restart detects it, counts it and
        // serves nothing rather than garbage
        let snap = crate::snapshot::snapshot_path(&dir, "demo");
        let valid = std::fs::read(&snap).unwrap();
        std::fs::write(&snap, &valid[..valid.len() / 2]).unwrap();
        let metrics3 = Arc::new(ServerMetrics::default());
        let third = ModelRegistry::new(1, BatchConfig::default(), Arc::clone(&metrics3))
            .map(|mut r| {
                r.set_snapshot_dir(dir.clone());
                r
            })
            .unwrap();
        // "other"'s snapshot is still valid; only the corrupt one is skipped
        assert_eq!(third.warm_restart(), 1);
        assert_eq!(metrics3.snapshot_load_failures_total.get(), 1);
        assert!(third.get("demo").is_err());
        assert!(third.get("other").is_ok());

        // removing a model removes its snapshot — no resurrection on restart
        assert!(third.remove("other"));
        assert!(!crate::snapshot::snapshot_path(&dir, "other").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pruned_fit_serves_fewer_features_and_survives_warm_restart() {
        static DIR_SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "tsg-registry-prune-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let mut r = registry();
        r.set_snapshot_dir(dir.clone());
        let wide = r.fit("full", catalogue_source(), "uvg-fast", 3).unwrap();
        assert_eq!(wide.features, None, "unpruned fits carry no feature list");
        let k = 8;
        let pruned = r
            .fit_pruned("pruned", catalogue_source(), "uvg-fast", 3, k)
            .unwrap();
        let names = pruned.features.clone().expect("pruned fit records names");
        assert_eq!(names.len(), k);
        assert_eq!(pruned.n_features, k);
        assert!(pruned.n_features < wide.n_features);
        // the registered model really extracts only the selection
        let entry = r.get("pruned").unwrap();
        assert_eq!(entry.classifier().feature_names(), names.as_slice());
        let probe = Dataset::from_series(
            "probe",
            vec![TimeSeries::new((0..64).map(|t| (t as f64).sin()).collect())],
        );
        let expected = entry.classifier().predict_proba(&probe).unwrap();
        drop(r);

        // warm restart: the pruned model comes back bit-identical, with its
        // feature list intact (snapshot format v2)
        let metrics = Arc::new(ServerMetrics::default());
        let mut second =
            ModelRegistry::new(1, BatchConfig::default(), Arc::clone(&metrics)).unwrap();
        second.set_snapshot_dir(dir.clone());
        assert_eq!(second.warm_restart(), 2);
        assert_eq!(metrics.snapshot_load_failures_total.get(), 0);
        let restored = second.get("pruned").unwrap();
        assert_eq!(restored.info.features.as_deref(), Some(names.as_slice()));
        assert_eq!(restored.classifier().feature_names(), names.as_slice());
        let got = restored.classifier().predict_proba(&probe).unwrap();
        for (a, b) in expected.iter().zip(got.iter()) {
            for (va, vb) in a.iter().zip(b.iter()) {
                assert_eq!(va.to_bits(), vb.to_bits(), "pruned model drifted");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_claiming_unknown_features_is_skipped_not_served() {
        static DIR_SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "tsg-registry-badfeat-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let mut r = registry();
        r.set_snapshot_dir(dir.clone());
        let info = r.fit("good", catalogue_source(), "uvg-fast", 3).unwrap();
        // forge a snapshot whose feature list names a feature the running
        // catalogue does not compute (as if written by a different build)
        let payload = r
            .get("good")
            .unwrap()
            .classifier()
            .snapshot_bytes()
            .unwrap();
        let mut forged = info.clone();
        forged.name = "stale".into();
        forged.features = Some(vec!["T0 VG density".into(), "stat not_a_feature".into()]);
        crate::snapshot::write_snapshot(&dir, &forged, 3, &payload).unwrap();

        let metrics = Arc::new(ServerMetrics::default());
        let mut second =
            ModelRegistry::new(1, BatchConfig::default(), Arc::clone(&metrics)).unwrap();
        second.set_snapshot_dir(dir.clone());
        // only the honest snapshot restores; the stale one is counted and
        // skipped — never a panic, never a misaligned model
        assert_eq!(second.warm_restart(), 1);
        assert_eq!(metrics.snapshot_load_failures_total.get(), 1);
        assert!(second.get("good").is_ok());
        assert!(second.get("stale").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn format_v1_snapshot_is_counted_skipped_and_refit() {
        static DIR_SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "tsg-registry-v1-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        // a v1 file holding a model that would restore if v1 were still read
        let fitted = registry();
        let info = fitted
            .fit("legacy", catalogue_source(), "uvg-fast", 3)
            .unwrap();
        let payload = fitted
            .get("legacy")
            .unwrap()
            .classifier()
            .snapshot_bytes()
            .unwrap();
        let path = crate::snapshot::snapshot_path(&dir, "legacy");
        let v1 = crate::snapshot::tests::v1_snapshot_bytes(&info, 3, &payload);
        std::fs::write(&path, v1).unwrap();

        let metrics = Arc::new(ServerMetrics::default());
        let mut r = ModelRegistry::new(1, BatchConfig::default(), Arc::clone(&metrics)).unwrap();
        r.set_snapshot_dir(dir.clone());
        assert_eq!(r.warm_restart(), 0);
        assert_eq!(metrics.snapshot_load_failures_total.get(), 1);
        assert!(r.get("legacy").is_err());
        // the model is refit on demand, and the refit replaces the v1 file
        r.fit("legacy", catalogue_source(), "uvg-fast", 3).unwrap();
        assert!(crate::snapshot::read_snapshot(&path).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pruned_fit_error_paths_do_not_register_a_model() {
        let r = registry();
        assert!(matches!(
            r.fit_pruned("m", catalogue_source(), "uvg-fast", 1, 0),
            Err(RegistryError::Fit(_))
        ));
        assert!(matches!(
            r.fit_pruned("m", catalogue_source(), "nope", 1, 4),
            Err(RegistryError::UnknownConfig(_))
        ));
        assert!(r.get("m").is_err(), "failed pruned fits register nothing");
    }

    #[test]
    fn presets_resolve() {
        for preset in CONFIG_PRESETS {
            assert!(config_named(preset, 1, 2).is_some(), "{preset}");
        }
        assert!(config_named("bogus", 1, 2).is_none());
        let c = config_named("fast", 9, 3).unwrap();
        assert_eq!(c.seed, 9);
        assert_eq!(c.n_threads, 3);
    }
}
