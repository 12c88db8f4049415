//! `DatasetSource` — one lazy, streaming answer to "where does a split come
//! from?".
//!
//! A split can exist three ways in this workspace: synthesised from the
//! catalogue, persisted in the on-disk [`crate::cache`], or read from a real
//! UCR directory tree. Before this module every consumer hard-wired one of
//! those paths; now the experiment binaries, the eval harness and the
//! serving registry all resolve splits by name through a [`DatasetSource`]
//! and get the same three guarantees everywhere:
//!
//! 1. **Laziness** — nothing is generated or read before the split is asked
//!    for, and [`DatasetSource::open_split`] yields series
//!    *instance-at-a-time* ([`SplitStream`]), so a 10 000-instance split
//!    never needs a full `Vec<TimeSeries>` resident during feature
//!    extraction.
//! 2. **Provenance** — every split travels with a [`SplitProvenance`]
//!    recording whether it is synthetic, cached or real, plus the seed and
//!    generator version (synthetic/cached) or the backing file path and its
//!    FNV-1a content hash (cached/real). Experiment artefacts embed it, so a
//!    reported number can always be traced to its exact input bytes.
//! 3. **Bit-exactness** — all paths produce bit-identical series: the cache
//!    stores raw `f64` bits, the UCR text writer emits shortest-round-trip
//!    decimals, and the streaming readers share the exact parsing /
//!    generation code of the eager paths (`tests/dataset_conformance.rs` at
//!    the workspace root pins all four paths against each other).
//!
//! Resolution precedence: a configured UCR directory ([`UCR_DIR_ENV`] or
//! [`DatasetSource::with_ucr_dir`]) wins when it contains the
//! `_TRAIN`/`_TEST` pair; a present-but-malformed pair is a hard error (it
//! would otherwise silently change results); only a *truly absent* pair
//! falls back to the cache (when enabled) and then to in-memory synthesis.

use crate::archive::{
    effective_shape, generate_scaled, instance_class, spec_by_name, split_rng, ArchiveOptions,
    DatasetSpec,
};
use crate::cache::{self, CacheFileReader, GENERATOR_VERSION};
use crate::loader::find_ucr_pair;
use rand_chacha::ChaCha8Rng;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use tsg_ts::hash::Fnv1a;
use tsg_ts::io::UcrRecordParser;
use tsg_ts::{Dataset, TimeSeries};

/// Environment variable pointing at a real UCR archive directory. When set
/// (and non-empty), [`DatasetSource::from_env`] resolves datasets from it
/// first, falling back per dataset to the cache / synthesis.
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
    /// Read back from the on-disk dataset cache.
    Cached,
    /// Read from a real UCR-format file.
    Real,
}

impl SourceKind {
    /// Stable lower-case name used in artefacts and wire responses.
    pub fn as_str(self) -> &'static str {
        match self {
            SourceKind::Synthetic => "synthetic",
            SourceKind::Cached => "cached",
            SourceKind::Real => "real",
        }
    }
}

impl std::fmt::Display for SourceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Provenance record travelling with every resolved or streamed split.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitProvenance {
    /// Dataset name (catalogue / directory name).
    pub dataset: String,
    /// Which split this record describes.
    pub split: Split,
    /// Synthetic, cached or real.
    pub kind: SourceKind,
    /// Generation seed (synthetic and cached splits).
    pub seed: Option<u64>,
    /// Generator version behind the series (synthetic and cached splits).
    pub generator_version: Option<u32>,
    /// Backing file (cached and real splits).
    pub path: Option<PathBuf>,
    /// FNV-1a hash of the backing file's bytes (cached and real splits).
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

    fn cached(dataset: &str, split: Split, seed: u64, path: PathBuf, hash: u64) -> Self {
        SplitProvenance {
            dataset: dataset.to_string(),
            split,
            kind: SourceKind::Cached,
            seed: Some(seed),
            generator_version: Some(GENERATOR_VERSION),
            path: Some(path),
            content_hash: Some(hash),
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

/// Errors surfaced while resolving or streaming a split.
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
    /// A cache file turned corrupt mid-stream (it was valid at open time).
    CorruptCache {
        /// Cache file that failed.
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
            SourceError::CorruptCache { path, message } => {
                write!(f, "corrupt cache file {}: {message}", path.display())
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
    /// same place: real needs both files, cached one file, synthetic none).
    pub fn kind(&self) -> SourceKind {
        self.train_provenance.kind
    }
}

/// The unified resolver. Cheap to construct and clone; nothing is read or
/// generated until [`DatasetSource::resolve`] / [`DatasetSource::open_split`]
/// is called.
#[derive(Debug, Clone)]
pub struct DatasetSource {
    ucr_dir: Option<PathBuf>,
    options: ArchiveOptions,
    use_cache: bool,
}

impl DatasetSource {
    /// Pure in-memory synthesis (no UCR directory, no cache).
    pub fn synthetic(options: ArchiveOptions) -> Self {
        DatasetSource {
            ucr_dir: None,
            options,
            use_cache: false,
        }
    }

    /// Synthesis backed by the on-disk dataset cache.
    pub fn cached(options: ArchiveOptions) -> Self {
        DatasetSource {
            ucr_dir: None,
            options,
            use_cache: true,
        }
    }

    /// The production default: honours [`UCR_DIR_ENV`] when set (and
    /// non-empty), with the cache enabled for catalogue fallbacks.
    pub fn from_env(options: ArchiveOptions) -> Self {
        let ucr_dir = std::env::var(UCR_DIR_ENV)
            .ok()
            .filter(|d| !d.trim().is_empty())
            .map(PathBuf::from);
        DatasetSource {
            ucr_dir,
            options,
            use_cache: true,
        }
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
        if let Some(dir) = &self.ucr_dir {
            if let Some((train_path, test_path)) = find_ucr_pair(dir, name) {
                // the test parser is seeded with the training label table so
                // both splits map raw labels to the same class indices
                let mut train_parser = UcrRecordParser::new();
                let train = read_real_split(&mut train_parser, &train_path, name, Split::Train)?;
                let test = read_real_split(
                    &mut UcrRecordParser::seeded(train_parser.label_map()),
                    &test_path,
                    name,
                    Split::Test,
                )?;
                let train_provenance = SplitProvenance::real(
                    name,
                    Split::Train,
                    train_path.clone(),
                    hash_file(&train_path)?,
                );
                let test_provenance = SplitProvenance::real(
                    name,
                    Split::Test,
                    test_path.clone(),
                    hash_file(&test_path)?,
                );
                return Ok(ResolvedPair {
                    train,
                    test,
                    train_provenance,
                    test_provenance,
                });
            }
        }
        let spec =
            spec_by_name(name).ok_or_else(|| SourceError::UnknownDataset(name.to_string()))?;
        if self.use_cache {
            // one decode on a warm cache (the read doubles as validation),
            // one write on a cold one; any cache problem — including a hash
            // read racing a concurrent cleaner — falls through to synthesis:
            // the cache may never change results, only skip work
            if let Some((path, (train, test))) = cache::read_or_create_pair(spec, self.options) {
                if let Ok(hash) = hash_file(&path) {
                    let seed = self.options.seed;
                    return Ok(ResolvedPair {
                        train,
                        test,
                        train_provenance: SplitProvenance::cached(
                            name,
                            Split::Train,
                            seed,
                            path.clone(),
                            hash,
                        ),
                        test_provenance: SplitProvenance::cached(
                            name,
                            Split::Test,
                            seed,
                            path,
                            hash,
                        ),
                    });
                }
            }
            // cache directory unusable: fall through to in-memory synthesis
        }
        let (train, test) = generate_scaled(spec, self.options);
        Ok(ResolvedPair {
            train,
            test,
            train_provenance: SplitProvenance::synthetic(name, Split::Train, self.options.seed),
            test_provenance: SplitProvenance::synthetic(name, Split::Test, self.options.seed),
        })
    }

    /// Eagerly materialises **one** split, reading / generating only that
    /// split's records — e.g. the serving registry fits models on the
    /// training split without parsing (or hashing) the often much larger
    /// `_TEST` file. Built on [`DatasetSource::open_split`], so it is
    /// bit-identical to the corresponding half of [`DatasetSource::resolve`].
    pub fn resolve_split(
        &self,
        name: &str,
        split: Split,
    ) -> Result<(Dataset, SplitProvenance), SourceError> {
        let mut stream = self.open_split(name, split)?;
        let provenance = stream.provenance().clone();
        let mut dataset = Dataset::new(stream.name().to_string());
        for item in &mut stream {
            dataset.push(item?);
        }
        Ok((dataset, provenance))
    }

    /// Opens one split as an instance-at-a-time stream. The stream knows its
    /// instance count and maximum (padding-stripped) series length up front,
    /// which is exactly what chunk-wise feature extraction needs to size its
    /// rows without materialising the split.
    pub fn open_split(&self, name: &str, split: Split) -> Result<SplitStream, SourceError> {
        if let Some(dir) = &self.ucr_dir {
            if let Some((train_path, test_path)) = find_ucr_pair(dir, name) {
                // a TEST stream is seeded with the TRAIN file's label table
                // (one extra parse of the training file) so both splits map
                // raw labels to the same class indices
                return match split {
                    Split::Train => SplitStream::open_real(name, split, &train_path, &[]),
                    Split::Test => {
                        let labels = scan_label_map(&train_path)?;
                        SplitStream::open_real(name, split, &test_path, &labels)
                    }
                };
            }
        }
        let spec =
            spec_by_name(name).ok_or_else(|| SourceError::UnknownDataset(name.to_string()))?;
        if self.use_cache {
            if let Some(path) = cache::ensure_cached(spec, self.options) {
                if let Some(stream) =
                    SplitStream::open_cached(name, split, spec, self.options, &path)?
                {
                    return Ok(stream);
                }
            }
        }
        Ok(SplitStream::synthetic(name, split, spec, self.options))
    }
}

/// A lazy, instance-at-a-time iterator over one split.
///
/// Yields `Result<TimeSeries, SourceError>` so mid-stream failures (a cache
/// file truncated underneath us, an archive file edited mid-read) surface as
/// errors instead of silently short datasets. After the first error the
/// stream fuses to `None`.
pub struct SplitStream {
    name: String,
    split: Split,
    n_instances: usize,
    max_length: usize,
    provenance: SplitProvenance,
    yielded: usize,
    failed: bool,
    state: StreamState,
}

enum StreamState {
    Synthetic {
        spec: &'static DatasetSpec,
        rng: ChaCha8Rng,
        length: usize,
    },
    Cached {
        reader: CacheFileReader,
        path: PathBuf,
    },
    Real {
        reader: BufReader<std::fs::File>,
        parser: UcrRecordParser,
        path: PathBuf,
        lineno: usize,
        buffer: String,
    },
}

impl SplitStream {
    /// Streams a synthetic split straight from the seeded generators,
    /// holding only the RNG state. A `Test` stream replays (and discards)
    /// the training instances first, because the test split continues the
    /// same keystream — the cached path avoids that replay cost, which is
    /// one of the reasons the cache is on by default.
    fn synthetic(
        name: &str,
        split: Split,
        spec: &'static DatasetSpec,
        options: ArchiveOptions,
    ) -> SplitStream {
        let (n_train, n_test, length) = effective_shape(spec, options);
        let mut rng = split_rng(spec, options.seed);
        let n_instances = match split {
            Split::Train => n_train,
            Split::Test => {
                for i in 0..n_train {
                    let class = instance_class(spec, n_train, i);
                    let _ = spec
                        .family
                        .generate(&mut rng, class, spec.n_classes, length);
                }
                n_test
            }
        };
        SplitStream {
            name: format!("{}_{}", name, split.suffix()),
            split,
            n_instances,
            max_length: length,
            provenance: SplitProvenance::synthetic(name, split, options.seed),
            yielded: 0,
            failed: false,
            state: StreamState::Synthetic { spec, rng, length },
        }
    }

    /// Streams a split out of a verified cache file. Returns `Ok(None)` when
    /// the file cannot be opened or skipped through (callers fall back to
    /// synthesis — a cache may never change results, only skip work).
    fn open_cached(
        name: &str,
        split: Split,
        spec: &'static DatasetSpec,
        options: ArchiveOptions,
        path: &Path,
    ) -> Result<Option<SplitStream>, SourceError> {
        let Some(mut reader) = CacheFileReader::open(path) else {
            return Ok(None);
        };
        let Some((_, n_train)) = reader.read_header() else {
            return Ok(None);
        };
        let n_instances = match split {
            Split::Train => n_train,
            Split::Test => {
                for _ in 0..n_train {
                    if reader.read_record().is_none() {
                        return Ok(None);
                    }
                }
                match reader.read_header() {
                    Some((_, n_test)) => n_test,
                    None => return Ok(None),
                }
            }
        };
        // cache files always hold generator output, whose series all share
        // the budgeted length
        let (_, _, length) = effective_shape(spec, options);
        // a hash failure is a cache problem like any other: fall back
        let Ok(hash) = hash_file(path) else {
            return Ok(None);
        };
        Ok(Some(SplitStream {
            name: format!("{}_{}", name, split.suffix()),
            split,
            n_instances,
            max_length: length,
            provenance: SplitProvenance::cached(
                name,
                split,
                options.seed,
                path.to_path_buf(),
                hash,
            ),
            yielded: 0,
            failed: false,
            state: StreamState::Cached {
                reader,
                path: path.to_path_buf(),
            },
        }))
    }

    /// Streams a real UCR file. Opening scans the file once (hash, record
    /// count, maximum padding-stripped length) with O(1) memory, then
    /// reopens it for iteration; the scan uses the same [`UcrRecordParser`]
    /// as the eager reader, so the two can never disagree. `label_seed` is
    /// the label table to start from — the `_TRAIN` file's table when
    /// opening a `_TEST` stream, empty otherwise.
    fn open_real(
        name: &str,
        split: Split,
        path: &Path,
        label_seed: &[i64],
    ) -> Result<SplitStream, SourceError> {
        let read_err = |e: &dyn std::fmt::Display| SourceError::Read {
            path: path.to_path_buf(),
            message: e.to_string(),
        };
        let hash = hash_file(path)?;
        let file = std::fs::File::open(path).map_err(|e| read_err(&e))?;
        let mut scan = BufReader::new(file);
        let mut parser = UcrRecordParser::seeded(label_seed);
        let mut buffer = String::new();
        let (mut lineno, mut n_instances, mut max_length) = (0usize, 0usize, 0usize);
        loop {
            buffer.clear();
            let n = scan.read_line(&mut buffer).map_err(|e| read_err(&e))?;
            if n == 0 {
                break;
            }
            lineno += 1;
            if let Some(series) = parser
                .parse_line(lineno, &buffer)
                .map_err(|e| read_err(&e))?
            {
                n_instances += 1;
                max_length = max_length.max(series.len());
            }
        }
        parser.finish().map_err(|e| read_err(&e))?;
        let file = std::fs::File::open(path).map_err(|e| read_err(&e))?;
        Ok(SplitStream {
            name: format!("{}_{}", name, split.suffix()),
            split,
            n_instances,
            max_length,
            provenance: SplitProvenance::real(name, split, path.to_path_buf(), hash),
            yielded: 0,
            failed: false,
            state: StreamState::Real {
                reader: BufReader::new(file),
                parser: UcrRecordParser::seeded(label_seed),
                path: path.to_path_buf(),
                lineno: 0,
                buffer: String::new(),
            },
        })
    }

    /// Split name, e.g. `BeetleFly_TRAIN`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Which split this stream yields.
    pub fn split(&self) -> Split {
        self.split
    }

    /// Total number of instances the stream will yield.
    pub fn n_instances(&self) -> usize {
        self.n_instances
    }

    /// Maximum (padding-stripped) series length across the split — known
    /// before iteration so feature extraction can size its rows.
    pub fn max_length(&self) -> usize {
        self.max_length
    }

    /// Provenance of the split being streamed.
    pub fn provenance(&self) -> &SplitProvenance {
        &self.provenance
    }

    fn next_inner(&mut self) -> Result<TimeSeries, SourceError> {
        match &mut self.state {
            StreamState::Synthetic { spec, rng, length } => {
                let class = instance_class(spec, self.n_instances, self.yielded);
                let values = spec.family.generate(rng, class, spec.n_classes, *length);
                Ok(TimeSeries::with_label(values, class))
            }
            StreamState::Cached { reader, path } => {
                reader
                    .read_record()
                    .ok_or_else(|| SourceError::CorruptCache {
                        path: path.clone(),
                        message: format!(
                            "record {} of {} unreadable (file changed after open?)",
                            self.yielded + 1,
                            self.n_instances
                        ),
                    })
            }
            StreamState::Real {
                reader,
                parser,
                path,
                lineno,
                buffer,
            } => loop {
                buffer.clear();
                let read_err = |e: String| SourceError::Read {
                    path: path.clone(),
                    message: e,
                };
                let n = reader
                    .read_line(buffer)
                    .map_err(|e| read_err(e.to_string()))?;
                if n == 0 {
                    return Err(read_err(format!(
                        "file ended after {} of {} records (changed after open?)",
                        self.yielded, self.n_instances
                    )));
                }
                *lineno += 1;
                if let Some(series) = parser
                    .parse_line(*lineno, buffer)
                    .map_err(|e| read_err(e.to_string()))?
                {
                    return Ok(series);
                }
            },
        }
    }
}

impl Iterator for SplitStream {
    type Item = Result<TimeSeries, SourceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed || self.yielded >= self.n_instances {
            return None;
        }
        match self.next_inner() {
            Ok(series) => {
                self.yielded += 1;
                Some(Ok(series))
            }
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = if self.failed {
            0
        } else {
            self.n_instances - self.yielded
        };
        (remaining, Some(remaining))
    }
}

/// FNV-1a over a file's bytes, streamed in 64 KiB chunks.
fn hash_file(path: &Path) -> Result<u64, SourceError> {
    let file = std::fs::File::open(path).map_err(|e| SourceError::Read {
        path: path.to_path_buf(),
        message: e.to_string(),
    })?;
    let mut reader = BufReader::new(file);
    let mut hash = Fnv1a::default();
    let mut chunk = [0u8; 64 * 1024];
    loop {
        let n = reader.read(&mut chunk).map_err(|e| SourceError::Read {
            path: path.to_path_buf(),
            message: e.to_string(),
        })?;
        if n == 0 {
            return Ok(hash.finish());
        }
        hash.update(&chunk[..n]);
    }
}

fn read_real_split(
    parser: &mut UcrRecordParser,
    path: &Path,
    name: &str,
    split: Split,
) -> Result<Dataset, SourceError> {
    let mut dataset =
        tsg_ts::io::read_ucr_file_with(parser, path).map_err(|e| SourceError::Read {
            path: path.to_path_buf(),
            message: e.to_string(),
        })?;
    dataset.name = format!("{}_{}", name, split.suffix());
    Ok(dataset)
}

/// Parses every record of `path` solely for its label table, so a `_TEST`
/// stream can share its `_TRAIN` file's raw-label → class-index mapping
/// (the splits of a real pair routinely list classes in different
/// first-appearance orders).
fn scan_label_map(path: &Path) -> Result<Vec<i64>, SourceError> {
    let read_err = |e: &dyn std::fmt::Display| SourceError::Read {
        path: path.to_path_buf(),
        message: e.to_string(),
    };
    let file = std::fs::File::open(path).map_err(|e| read_err(&e))?;
    let mut reader = BufReader::new(file);
    let mut parser = UcrRecordParser::new();
    let mut buffer = String::new();
    let mut lineno = 0usize;
    loop {
        buffer.clear();
        let n = reader.read_line(&mut buffer).map_err(|e| read_err(&e))?;
        if n == 0 {
            break;
        }
        lineno += 1;
        parser
            .parse_line(lineno, &buffer)
            .map_err(|e| read_err(&e))?;
    }
    parser.finish().map_err(|e| read_err(&e))?;
    Ok(parser.label_map().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    static DIR_COUNTER: AtomicU32 = AtomicU32::new(0);

    fn temp_dir(tag: &str) -> PathBuf {
        // temp_dir() is a getenv; hold the crate's env lock so it cannot
        // race a sibling test's setenv (see TEST_ENV_LOCK)
        let _guard = cache::TEST_ENV_LOCK
            .lock()
            .unwrap_or_else(|p| p.into_inner());
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

    fn collect(stream: SplitStream) -> Vec<TimeSeries> {
        stream.map(|r| r.unwrap()).collect()
    }

    #[test]
    fn synthetic_stream_matches_eager_generation() {
        let source = DatasetSource::synthetic(options());
        let resolved = source.resolve("BeetleFly").unwrap();
        assert_eq!(resolved.kind(), SourceKind::Synthetic);
        assert_eq!(resolved.train_provenance.seed, Some(3));
        assert_eq!(
            resolved.train_provenance.generator_version,
            Some(GENERATOR_VERSION)
        );
        for (split, eager) in [
            (Split::Train, &resolved.train),
            (Split::Test, &resolved.test),
        ] {
            let stream = source.open_split("BeetleFly", split).unwrap();
            assert_eq!(stream.n_instances(), eager.len());
            assert_eq!(stream.max_length(), eager.max_length());
            assert_eq!(stream.provenance().kind, SourceKind::Synthetic);
            assert_eq!(collect(stream).as_slice(), eager.series());
        }
    }

    #[test]
    fn cached_stream_matches_eager_and_reports_cache_file() {
        let dir = temp_dir("cache");
        // CACHE_DIR_ENV is process-wide; hold the crate's env lock while a
        // private cache directory is in effect
        let _guard = cache::TEST_ENV_LOCK
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        std::env::set_var(cache::CACHE_DIR_ENV, &dir);
        let source = DatasetSource::cached(options());
        let resolved = source.resolve("Wine").unwrap();
        assert_eq!(resolved.kind(), SourceKind::Cached);
        let path = resolved.train_provenance.path.clone().unwrap();
        assert!(path.starts_with(&dir));
        assert!(resolved.train_provenance.content_hash.is_some());
        // bit-identical to pure synthesis
        let synthetic = DatasetSource::synthetic(options()).resolve("Wine").unwrap();
        assert_eq!(resolved.train, synthetic.train);
        assert_eq!(resolved.test, synthetic.test);
        for (split, eager) in [
            (Split::Train, &resolved.train),
            (Split::Test, &resolved.test),
        ] {
            let stream = source.open_split("Wine", split).unwrap();
            assert_eq!(stream.provenance().kind, SourceKind::Cached);
            assert_eq!(stream.n_instances(), eager.len());
            assert_eq!(collect(stream).as_slice(), eager.series());
        }
        std::env::remove_var(cache::CACHE_DIR_ENV);
        std::fs::remove_dir_all(&dir).ok();
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

        let stream = real.open_split("Herring", Split::Test).unwrap();
        assert_eq!(stream.provenance().kind, SourceKind::Real);
        assert_eq!(stream.n_instances(), resolved.test.len());
        assert_eq!(stream.max_length(), resolved.test.max_length());
        assert_eq!(collect(stream).as_slice(), resolved.test.series());
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
            source.open_split("BeetleFly", Split::Train),
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
        let stream = source.open_split("Var", Split::Train).unwrap();
        assert_eq!(stream.n_instances(), 2);
        assert_eq!(stream.max_length(), 4);
        // the content hash artefacts embed, pinned across versions
        assert_eq!(
            stream.provenance().content_hash,
            Some(0x5d00_b80e_3c61_8b86)
        );
        let series = collect(stream);
        assert_eq!(series[0].len(), 2);
        assert_eq!(series[1].len(), 4);
        // eager resolution agrees (names and all)
        let resolved = source.resolve("Var").unwrap();
        assert_eq!(resolved.train.series(), series.as_slice());
        assert_eq!(resolved.train.name, "Var_TRAIN");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn real_pair_label_indices_are_consistent_across_splits() {
        // the splits list classes in different first-appearance orders (and
        // TEST contains a label TRAIN never saw): raw labels must map to the
        // same indices in both splits, on both the eager and streaming paths
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
        let streamed: Vec<usize> = collect(source.open_split("Lab", Split::Test).unwrap())
            .iter()
            .map(|s| s.label().unwrap())
            .collect();
        assert_eq!(streamed, vec![1, 2, 3]);
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
        let (train, prov) = source.resolve_split("BeetleFly", Split::Train).unwrap();
        assert_eq!(train, pair.train);
        assert_eq!(prov.kind, SourceKind::Synthetic);
        let (test, _) = source.resolve_split("BeetleFly", Split::Test).unwrap();
        assert_eq!(test, pair.test);
        // real: only the requested split's file is needed on disk
        tsg_ts::io::write_ucr_file(&pair.train, dir.join("BeetleFly_TRAIN.txt")).unwrap();
        tsg_ts::io::write_ucr_file(&pair.test, dir.join("BeetleFly_TEST.txt")).unwrap();
        let real = source.clone().with_ucr_dir(&dir);
        let (train, prov) = real.resolve_split("BeetleFly", Split::Train).unwrap();
        assert_eq!(prov.kind, SourceKind::Real);
        assert_eq!(train.series(), pair.train.series());
        assert_eq!(train.name, "BeetleFly_TRAIN");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn split_suffix_and_kind_names_are_stable() {
        assert_eq!(Split::Train.suffix(), "TRAIN");
        assert_eq!(Split::Test.suffix(), "TEST");
        assert_eq!(SourceKind::Synthetic.as_str(), "synthetic");
        assert_eq!(SourceKind::Cached.as_str(), "cached");
        assert_eq!(SourceKind::Real.as_str(), "real");
    }
}
