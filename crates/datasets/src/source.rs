//! `DatasetSource` — one answer to "where does a split come from?".
//!
//! A split can exist two ways in this workspace: synthesised from the
//! catalogue, or read from a real UCR directory tree. The experiment
//! binaries, the eval harness and the serving registry all resolve splits by
//! name through a [`DatasetSource`] and get the same three guarantees
//! everywhere:
//!
//! 1. **Eager, on demand** — nothing is generated or read before a split is
//!    asked for, and then the split is materialised whole as a [`Dataset`]
//!    ([`DatasetSource::resolve`] for the pair,
//!    [`DatasetSource::resolve_split`] for one half). The largest full-size
//!    split in the catalogue (UWaveGestureLibraryAll's test split,
//!    3582 × 945 `f64`) is about 26 MiB.
//! 2. **Provenance** — every split travels with a [`SplitProvenance`]
//!    recording whether it is synthetic or real, plus the seed and generator
//!    version (synthetic) or the backing file path and its FNV-1a content
//!    hash (real). Experiment artefacts embed it, so a reported number can
//!    always be traced to its exact input bytes.
//! 3. **Bit-exactness** — a catalogue dataset written as real UCR files
//!    reads back bit-identical to its synthesis: the UCR text writer emits
//!    shortest-round-trip decimals (`tests/dataset_conformance.rs` at the
//!    workspace root pins the two sources against each other).
//!
//! Resolution precedence: a configured UCR directory ([`UCR_DIR_ENV`] or
//! [`DatasetSource::with_ucr_dir`]) wins when it contains the
//! `_TRAIN`/`_TEST` pair; a present-but-malformed pair is a hard error (it
//! would otherwise silently change results); only a *truly absent* pair
//! falls back to in-memory synthesis.

use crate::archive::{
    generate_scaled, generate_train_scaled, spec_by_name, ArchiveOptions, DatasetSpec,
    GENERATOR_VERSION,
};
use crate::loader::find_ucr_pair;
use std::path::{Path, PathBuf};
use tsg_ts::hash::Fnv1a;
use tsg_ts::io::{parse_ucr_with, UcrRecordParser};
use tsg_ts::Dataset;

/// Environment variable pointing at a real UCR archive directory. When set
/// (and non-empty), [`DatasetSource::from_env`] resolves datasets from it
/// first, falling back per dataset to synthesis.
pub const UCR_DIR_ENV: &str = "TSG_UCR_DIR";

/// One half of a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Split {
    /// The training split (`*_TRAIN`).
    Train,
    /// The test split (`*_TEST`).
    Test,
}

impl Split {
    /// The UCR file-name suffix (`TRAIN` / `TEST`).
    pub fn suffix(self) -> &'static str {
        match self {
            Split::Train => "TRAIN",
            Split::Test => "TEST",
        }
    }
}

/// Where a split's bytes actually came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    /// Generated in memory from the seeded catalogue families.
    Synthetic,
    /// Read from a real UCR-format file.
    Real,
}

impl SourceKind {
    /// Stable lower-case name used in artefacts and wire responses.
    pub fn as_str(self) -> &'static str {
        match self {
            SourceKind::Synthetic => "synthetic",
            SourceKind::Real => "real",
        }
    }
}

impl std::fmt::Display for SourceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Provenance record travelling with every resolved split.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitProvenance {
    /// Dataset name (catalogue / directory name).
    pub dataset: String,
    /// Which split this record describes.
    pub split: Split,
    /// Synthetic or real.
    pub kind: SourceKind,
    /// Generation seed (synthetic splits).
    pub seed: Option<u64>,
    /// Generator version behind the series (synthetic splits).
    pub generator_version: Option<u32>,
    /// Backing file (real splits).
    pub path: Option<PathBuf>,
    /// FNV-1a hash of the backing file's bytes (real splits).
    pub content_hash: Option<u64>,
}

impl SplitProvenance {
    fn synthetic(dataset: &str, split: Split, seed: u64) -> Self {
        SplitProvenance {
            dataset: dataset.to_string(),
            split,
            kind: SourceKind::Synthetic,
            seed: Some(seed),
            generator_version: Some(GENERATOR_VERSION),
            path: None,
            content_hash: None,
        }
    }

    fn real(dataset: &str, split: Split, path: PathBuf, hash: u64) -> Self {
        SplitProvenance {
            dataset: dataset.to_string(),
            split,
            kind: SourceKind::Real,
            seed: None,
            generator_version: None,
            path: Some(path),
            content_hash: Some(hash),
        }
    }

    /// One-line human-readable description, e.g.
    /// `real (fixtures/Wine/Wine_TRAIN, fnv1a 0f3a…)` or
    /// `synthetic (seed 7, generator v1)`.
    pub fn describe(&self) -> String {
        let mut parts = Vec::new();
        if let Some(seed) = self.seed {
            parts.push(format!("seed {seed}"));
        }
        if let Some(v) = self.generator_version {
            parts.push(format!("generator v{v}"));
        }
        if let Some(path) = &self.path {
            parts.push(path.display().to_string());
        }
        if let Some(hash) = self.content_hash {
            parts.push(format!("fnv1a {hash:016x}"));
        }
        format!("{} ({})", self.kind, parts.join(", "))
    }
}

/// Errors surfaced while resolving a split.
#[derive(Debug, Clone, PartialEq)]
pub enum SourceError {
    /// The name is neither in the UCR directory nor in the catalogue.
    UnknownDataset(String),
    /// A real UCR file is present but unreadable or malformed. Deliberately
    /// *not* a fallback case: silently substituting synthetic data for a
    /// broken archive file would change reported results.
    Read {
        /// File that failed.
        path: PathBuf,
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for SourceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SourceError::UnknownDataset(name) => {
                write!(
                    f,
                    "unknown dataset `{name}` (not in the UCR directory or the catalogue)"
                )
            }
            SourceError::Read { path, message } => {
                write!(f, "failed to read UCR file {}: {message}", path.display())
            }
        }
    }
}

impl std::error::Error for SourceError {}

/// An eagerly resolved `(train, test)` pair plus per-split provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedPair {
    /// Training split.
    pub train: Dataset,
    /// Test split.
    pub test: Dataset,
    /// Provenance of the training split.
    pub train_provenance: SplitProvenance,
    /// Provenance of the test split.
    pub test_provenance: SplitProvenance,
}

impl ResolvedPair {
    /// The common source kind of both splits (they always resolve from the
    /// same place: real needs both files, synthetic none).
    pub fn kind(&self) -> SourceKind {
        self.train_provenance.kind
    }
}

/// The unified resolver. Cheap to construct and clone; nothing is read or
/// generated until [`DatasetSource::resolve`] /
/// [`DatasetSource::resolve_split`] is called.
#[derive(Debug, Clone)]
pub struct DatasetSource {
    ucr_dir: Option<PathBuf>,
    options: ArchiveOptions,
}

impl DatasetSource {
    /// Pure in-memory synthesis (no UCR directory).
    pub fn synthetic(options: ArchiveOptions) -> Self {
        DatasetSource {
            ucr_dir: None,
            options,
        }
    }

    /// The production default: [`DatasetSource::synthetic`] plus the UCR
    /// directory named by [`UCR_DIR_ENV`] when it is set (and non-empty).
    pub fn from_env(options: ArchiveOptions) -> Self {
        let ucr_dir = std::env::var(UCR_DIR_ENV)
            .ok()
            .filter(|d| !d.trim().is_empty())
            .map(PathBuf::from);
        DatasetSource { ucr_dir, options }
    }

    /// Resolves from this UCR directory first (overrides any env setting).
    pub fn with_ucr_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.ucr_dir = Some(dir.into());
        self
    }

    /// The UCR directory in effect, if any.
    pub fn ucr_dir(&self) -> Option<&Path> {
        self.ucr_dir.as_deref()
    }

    /// The generation budget and seed in effect.
    pub fn options(&self) -> ArchiveOptions {
        self.options
    }

    /// Eagerly resolves the `(train, test)` pair for `name`.
    pub fn resolve(&self, name: &str) -> Result<ResolvedPair, SourceError> {
        if let Some((train_path, test_path)) = self.real_pair(name) {
            // the test parser is seeded with the training label table so
            // both splits map raw labels to the same class indices
            let mut train_parser = UcrRecordParser::new();
            let (train, train_provenance) =
                read_real_split(&mut train_parser, &train_path, name, Split::Train)?;
            let (test, test_provenance) = read_real_split(
                &mut UcrRecordParser::seeded(train_parser.label_map()),
                &test_path,
                name,
                Split::Test,
            )?;
            return Ok(ResolvedPair {
                train,
                test,
                train_provenance,
                test_provenance,
            });
        }
        let (train, test) = generate_scaled(self.spec(name)?, self.options);
        Ok(ResolvedPair {
            train,
            test,
            train_provenance: SplitProvenance::synthetic(name, Split::Train, self.options.seed),
            test_provenance: SplitProvenance::synthetic(name, Split::Test, self.options.seed),
        })
    }

    /// Eagerly resolves **one** split, bit-identical to the corresponding
    /// half of [`DatasetSource::resolve`]. A training split reads (and
    /// hashes) only its own file or generates only its own series — the
    /// serving registry fits on it without touching the often much larger
    /// `_TEST` file. A test split needs its training half first (the label
    /// table of a real pair, the keystream of a synthetic one), so it is the
    /// test half of [`DatasetSource::resolve`].
    pub fn resolve_split(
        &self,
        name: &str,
        split: Split,
    ) -> Result<(Dataset, SplitProvenance), SourceError> {
        if split == Split::Test {
            let pair = self.resolve(name)?;
            return Ok((pair.test, pair.test_provenance));
        }
        if let Some((train_path, _)) = self.real_pair(name) {
            return read_real_split(&mut UcrRecordParser::new(), &train_path, name, split);
        }
        Ok((
            generate_train_scaled(self.spec(name)?, self.options),
            SplitProvenance::synthetic(name, split, self.options.seed),
        ))
    }

    /// The `(_TRAIN, _TEST)` files of `name` in the UCR directory, if the
    /// directory holds the pair.
    fn real_pair(&self, name: &str) -> Option<(PathBuf, PathBuf)> {
        find_ucr_pair(self.ucr_dir.as_deref()?, name)
    }

    fn spec(&self, name: &str) -> Result<&'static DatasetSpec, SourceError> {
        spec_by_name(name).ok_or_else(|| SourceError::UnknownDataset(name.to_string()))
    }
}

/// Reads one split of a real pair from a single read of its file, which
/// feeds both the parse and the provenance's FNV-1a hash. `parser` carries
/// the label table: fresh for `_TRAIN`, seeded with the `_TRAIN` table for
/// `_TEST`.
fn read_real_split(
    parser: &mut UcrRecordParser,
    path: &Path,
    name: &str,
    split: Split,
) -> Result<(Dataset, SplitProvenance), SourceError> {
    let read_err = |message: String| SourceError::Read {
        path: path.to_path_buf(),
        message,
    };
    let bytes = std::fs::read(path).map_err(|e| read_err(e.to_string()))?;
    let content = std::str::from_utf8(&bytes).map_err(|e| read_err(e.to_string()))?;
    let dataset = parse_ucr_with(parser, content, format!("{}_{}", name, split.suffix()))
        .map_err(|e| read_err(e.to_string()))?;
    let provenance = SplitProvenance::real(name, split, path.to_path_buf(), Fnv1a::hash(&bytes));
    Ok((dataset, provenance))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    static DIR_COUNTER: AtomicU32 = AtomicU32::new(0);

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tsg-source-{tag}-{}-{}",
            std::process::id(),
            DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn options() -> ArchiveOptions {
        ArchiveOptions::bounded(10, 64, 3)
    }

    #[test]
    fn real_directory_takes_precedence_and_streams_identically() {
        let dir = temp_dir("real");
        let synthetic = DatasetSource::synthetic(options());
        let resolved = synthetic.resolve("Herring").unwrap();
        std::fs::create_dir_all(dir.join("Herring")).unwrap();
        tsg_ts::io::write_ucr_file(&resolved.train, dir.join("Herring").join("Herring_TRAIN"))
            .unwrap();
        tsg_ts::io::write_ucr_file(&resolved.test, dir.join("Herring").join("Herring_TEST"))
            .unwrap();

        let real = DatasetSource::synthetic(options()).with_ucr_dir(&dir);
        let from_files = real.resolve("Herring").unwrap();
        assert_eq!(from_files.kind(), SourceKind::Real);
        assert_eq!(from_files.train.series(), resolved.train.series());
        assert_eq!(from_files.test.series(), resolved.test.series());
        assert!(from_files.train_provenance.path.is_some());
        assert!(from_files.train_provenance.describe().starts_with("real"));

        let (test, provenance) = real.resolve_split("Herring", Split::Test).unwrap();
        assert_eq!(provenance, from_files.test_provenance);
        assert_eq!(test.series(), resolved.test.series());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_real_pair_is_an_error_not_a_fallback() {
        let dir = temp_dir("malformed");
        std::fs::write(dir.join("BeetleFly_TRAIN.txt"), "1,0.5,oops\n").unwrap();
        std::fs::write(dir.join("BeetleFly_TEST.txt"), "1,0.5,0.6\n").unwrap();
        let source = DatasetSource::synthetic(options()).with_ucr_dir(&dir);
        assert!(matches!(
            source.resolve("BeetleFly"),
            Err(SourceError::Read { .. })
        ));
        assert!(matches!(
            source.resolve_split("BeetleFly", Split::Train),
            Err(SourceError::Read { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn absent_pair_falls_back_and_unknown_name_errors() {
        let dir = temp_dir("absent");
        // lone _TRAIN: the pair is absent, so the catalogue takes over
        std::fs::write(dir.join("BeetleFly_TRAIN.txt"), "1,0.5,0.6\n").unwrap();
        let source = DatasetSource::synthetic(options()).with_ucr_dir(&dir);
        assert_eq!(
            source.resolve("BeetleFly").unwrap().kind(),
            SourceKind::Synthetic
        );
        assert!(matches!(
            source.resolve("NotADataset"),
            Err(SourceError::UnknownDataset(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn variable_length_real_split_reports_true_max_length() {
        let dir = temp_dir("varlen");
        std::fs::write(
            dir.join("Var_TRAIN.txt"),
            "1,0.5,0.25,NaN,NaN\n2,1.0,2.0,3.0,4.0\n",
        )
        .unwrap();
        std::fs::write(dir.join("Var_TEST.txt"), "1,0.5,0.25,0.125,NaN\n").unwrap();
        let source = DatasetSource::synthetic(options()).with_ucr_dir(&dir);
        let (train, provenance) = source.resolve_split("Var", Split::Train).unwrap();
        assert_eq!(train.len(), 2);
        assert_eq!(train.max_length(), 4);
        // the content hash artefacts embed, pinned across versions
        assert_eq!(provenance.content_hash, Some(0x5d00_b80e_3c61_8b86));
        assert_eq!(train.series()[0].len(), 2);
        assert_eq!(train.series()[1].len(), 4);
        // the pair resolution agrees (names and all)
        let resolved = source.resolve("Var").unwrap();
        assert_eq!(resolved.train, train);
        assert_eq!(resolved.train.name, "Var_TRAIN");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn real_pair_label_indices_are_consistent_across_splits() {
        // the splits list classes in different first-appearance orders (and
        // TEST contains a label TRAIN never saw): raw labels must map to the
        // same indices in both splits, for the pair and for one split
        let dir = temp_dir("labels");
        std::fs::write(
            dir.join("Lab_TRAIN.txt"),
            "5,0.5,0.6\n-2,1.0,1.1\n5,0.2,0.3\n9,2.0,2.1\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("Lab_TEST.txt"),
            "-2,1.5,1.6\n9,2.5,2.6\n7,3.0,3.1\n",
        )
        .unwrap();
        let source = DatasetSource::synthetic(options()).with_ucr_dir(&dir);
        let resolved = source.resolve("Lab").unwrap();
        assert_eq!(resolved.train.labels_required().unwrap(), vec![0, 1, 0, 2]);
        // -2 → 1 and 9 → 2 exactly as in training; unseen 7 extends to 3
        assert_eq!(resolved.test.labels_required().unwrap(), vec![1, 2, 3]);
        let (eager_test, _) = source.resolve_split("Lab", Split::Test).unwrap();
        assert_eq!(eager_test.labels_required().unwrap(), vec![1, 2, 3]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resolve_split_matches_the_corresponding_resolve_half() {
        let dir = temp_dir("resolve-split");
        let source = DatasetSource::synthetic(options());
        let pair = source.resolve("BeetleFly").unwrap();
        // synthetic
        assert_eq!(pair.kind(), SourceKind::Synthetic);
        let (train, prov) = source.resolve_split("BeetleFly", Split::Train).unwrap();
        assert_eq!(train, pair.train);
        assert_eq!(prov, pair.train_provenance);
        assert_eq!(prov.seed, Some(3));
        assert_eq!(prov.generator_version, Some(GENERATOR_VERSION));
        let (test, prov) = source.resolve_split("BeetleFly", Split::Test).unwrap();
        assert_eq!(test, pair.test);
        assert_eq!(prov, pair.test_provenance);
        // real: only the requested split's file is needed on disk
        tsg_ts::io::write_ucr_file(&pair.train, dir.join("BeetleFly_TRAIN.txt")).unwrap();
        tsg_ts::io::write_ucr_file(&pair.test, dir.join("BeetleFly_TEST.txt")).unwrap();
        let real = source.clone().with_ucr_dir(&dir);
        let (train, prov) = real.resolve_split("BeetleFly", Split::Train).unwrap();
        assert_eq!(prov.kind, SourceKind::Real);
        assert_eq!(train.series(), pair.train.series());
        assert_eq!(train.name, "BeetleFly_TRAIN");
        assert_eq!(prov, real.resolve("BeetleFly").unwrap().train_provenance);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn split_suffix_and_kind_names_are_stable() {
        assert_eq!(Split::Train.suffix(), "TRAIN");
        assert_eq!(Split::Test.suffix(), "TEST");
        assert_eq!(SourceKind::Synthetic.as_str(), "synthetic");
        assert_eq!(SourceKind::Real.as_str(), "real");
    }
}
