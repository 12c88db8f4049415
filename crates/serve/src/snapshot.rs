//! Crash-safe on-disk snapshots of fitted models.
//!
//! One file per registered model under the server's `--snapshot-dir`,
//! written atomically (temp file + rename, through the injectable
//! [`tsg_faults::fsio`] seam) after every successful fit and reloaded by
//! [`crate::registry::ModelRegistry::warm_restart`] on boot. The format is
//! self-validating end to end:
//!
//! ```text
//! magic    "TSGSNAP1"                      8 bytes
//! version  u32 = 2                         little-endian
//! seed     u64                             fit seed (rebuilds the config)
//! info     ModelInfo fields                length-prefixed strings, f64 bits
//! features u8 flag [+ u32 count + strings] pruned feature subset
//! payload  u32-length-prefixed blob        MvgClassifier::snapshot_bytes
//! hash     u64 FNV-1a                      over every byte above
//! ```
//!
//! Format v2 appended the optional `features` field (the importance-selected
//! subset a pruned model extracts). Readers accept v2 only: a v1 file
//! (written before the catalogue landed) is refused as an unsupported
//! format version, which a warm restart counts, skips and refits.
//!
//! Readers verify magic, version and the content hash before touching the
//! payload, and the payload itself re-verifies its config fingerprint and
//! tree structure inside `tsg_core`/`tsg_ml` — a torn, truncated or
//! bit-flipped snapshot is *detected* and reported, never served. Failure to
//! read always degrades to a refit; the server can lose a snapshot but can
//! never serve garbage from one. The trailer's threat model is torn writes
//! and bit rot, not an adversary crafting collisions in their own model
//! files, so the workspace's FNV-1a is enough.

use crate::registry::ModelInfo;
use std::io;
use std::path::{Path, PathBuf};
use tsg_faults::{fsio, Site};
use tsg_ml::snapshot::{put_blob, put_f64, put_str, put_u32, put_u64, put_u8, SnapReader};
use tsg_ts::hash::Fnv1a;

/// Format magic; the trailing byte doubles as the major format generation.
const MAGIC: &[u8; 8] = b"TSGSNAP1";

/// Layout version under the magic; bump on any field change. v1 had no
/// `features` field; [`read_snapshot`] accepts this version only.
const FORMAT_VERSION: u32 = 2;

/// Installs tried per snapshot: one transient write fault must not cost the
/// model its warm restart.
const WRITE_ATTEMPTS: usize = 3;

/// The snapshot file for a model name: a sanitised prefix for debuggability
/// plus an FNV-1a hash of the full name for uniqueness (wire model names are
/// arbitrary strings; the filesystem never sees them verbatim).
pub(crate) fn snapshot_path(dir: &Path, name: &str) -> PathBuf {
    let safe: String = name
        .chars()
        .filter(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
        .take(40)
        .collect();
    dir.join(format!("{safe}-{:016x}.snap", Fnv1a::hash(name.as_bytes())))
}

/// Snapshot files under `dir`, sorted by path for a deterministic restore
/// order. Missing or unreadable directories read as empty.
pub(crate) fn list_snapshots(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().map(|e| e == "snap").unwrap_or(false))
        .collect();
    paths.sort();
    paths
}

/// Atomically writes one model snapshot, returning its path. Every file
/// touch goes through the injectable seam (`Snap*` fault sites), so chaos
/// runs can tear, truncate or fail any step of the install; a failed
/// install is retried up to [`WRITE_ATTEMPTS`] times.
pub(crate) fn write_snapshot(
    dir: &Path,
    info: &ModelInfo,
    seed: u64,
    payload: &[u8],
) -> io::Result<PathBuf> {
    fsio::create_dir_all(dir)?;
    let mut bytes = Vec::with_capacity(payload.len() + 256);
    bytes.extend_from_slice(MAGIC);
    put_u32(&mut bytes, FORMAT_VERSION);
    put_u64(&mut bytes, seed);
    put_str(&mut bytes, &info.name);
    put_u64(&mut bytes, info.version);
    match &info.dataset {
        Some(d) => {
            put_u8(&mut bytes, 1);
            put_str(&mut bytes, d);
        }
        None => put_u8(&mut bytes, 0),
    }
    put_str(&mut bytes, &info.config);
    put_u64(&mut bytes, info.n_train as u64);
    put_u64(&mut bytes, info.n_classes as u64);
    put_u64(&mut bytes, info.n_features as u64);
    put_f64(&mut bytes, info.fit_seconds);
    put_str(&mut bytes, &info.provenance);
    match &info.features {
        None => put_u8(&mut bytes, 0),
        Some(names) => {
            put_u8(&mut bytes, 1);
            put_u32(&mut bytes, names.len() as u32);
            for n in names {
                put_str(&mut bytes, n);
            }
        }
    }
    put_blob(&mut bytes, payload);
    let hash = Fnv1a::hash(&bytes);
    put_u64(&mut bytes, hash);

    let path = snapshot_path(dir, &info.name);
    let mut result = install(&path, &bytes);
    for _ in 1..WRITE_ATTEMPTS {
        if result.is_ok() {
            break;
        }
        result = install(&path, &bytes);
    }
    result.map(|()| path)
}

/// One temp-file-plus-rename install of `bytes` at `path`. The temp file is
/// read back before the rename, because a torn or bit-flipped write reports
/// success.
fn install(path: &Path, bytes: &[u8]) -> io::Result<()> {
    static TMP_COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let tmp = path.with_extension(format!(
        "tmp.{}.{}",
        std::process::id(),
        TMP_COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let result = (|| {
        let mut file = fsio::create(&tmp, Site::SnapOpen)?;
        fsio::write_all(&mut file, bytes, Site::SnapWrite)?;
        fsio::sync_all(&file, Site::SnapSync)?;
        drop(file);
        if fsio::read(&tmp, Site::SnapOpen)? != bytes {
            return Err(corrupt("written bytes did not read back"));
        }
        fsio::rename(&tmp, path, Site::SnapRename)
    })();
    if result.is_err() {
        // a failed install must not leave temp litter behind
        let _ = fsio::remove_file(&tmp);
    }
    result
}

fn corrupt(detail: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("snapshot: {detail}"))
}

/// Reads and fully validates one snapshot file: magic, format version and
/// content hash first, then the structured fields. Returns the stored
/// metadata, the fit seed and the opaque classifier payload (still to be
/// fingerprint-checked by `MvgClassifier::from_snapshot`).
pub(crate) fn read_snapshot(path: &Path) -> io::Result<(ModelInfo, u64, Vec<u8>)> {
    let bytes = fsio::read(path, Site::SnapOpen)?;
    let body_len = bytes
        .len()
        .checked_sub(MAGIC.len() + 8)
        .ok_or_else(|| corrupt("file shorter than header + trailer"))?;
    let (body, trailer) = bytes.split_at(body_len + MAGIC.len());
    let mut r = SnapReader::new(body);
    let mut magic = [0u8; 8];
    for slot in &mut magic {
        *slot = r.u8().ok_or_else(|| corrupt("truncated magic"))?;
    }
    if &magic != MAGIC {
        return Err(corrupt("bad magic (not a snapshot or wrong generation)"));
    }
    let mut stored_hash = [0u8; 8];
    stored_hash.copy_from_slice(trailer);
    if u64::from_le_bytes(stored_hash) != Fnv1a::hash(body) {
        return Err(corrupt("content hash mismatch (torn or corrupt file)"));
    }
    let version = r.u32().ok_or_else(|| corrupt("truncated version"))?;
    if version != FORMAT_VERSION {
        return Err(corrupt("unsupported format version"));
    }
    let truncated = || corrupt("truncated field");
    let seed = r.u64().ok_or_else(truncated)?;
    let name = r.str().ok_or_else(truncated)?;
    let model_version = r.u64().ok_or_else(truncated)?;
    let dataset = match r.u8().ok_or_else(truncated)? {
        0 => None,
        1 => Some(r.str().ok_or_else(truncated)?),
        _ => return Err(corrupt("bad dataset flag")),
    };
    let config = r.str().ok_or_else(truncated)?;
    let n_train = r.u64().ok_or_else(truncated)? as usize;
    let n_classes = r.u64().ok_or_else(truncated)? as usize;
    let n_features = r.u64().ok_or_else(truncated)? as usize;
    let fit_seconds = r.f64().ok_or_else(truncated)?;
    let provenance = r.str().ok_or_else(truncated)?;
    let features = match r.u8().ok_or_else(truncated)? {
        0 => None,
        1 => {
            let count = r.u32().ok_or_else(truncated)? as usize;
            let mut names = Vec::with_capacity(count.min(4096));
            for _ in 0..count {
                names.push(r.str().ok_or_else(truncated)?);
            }
            Some(names)
        }
        _ => return Err(corrupt("bad features flag")),
    };
    let payload = r.blob().ok_or_else(truncated)?.to_vec();
    if !r.is_empty() {
        return Err(corrupt("trailing bytes"));
    }
    let info = ModelInfo {
        name,
        version: model_version,
        dataset,
        config,
        n_train,
        n_classes,
        n_features,
        fit_seconds,
        provenance,
        features,
    };
    Ok((info, seed, payload))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn sample_info() -> ModelInfo {
        ModelInfo {
            name: "demo/model name!".into(),
            version: 42,
            dataset: Some("BeetleFly".into()),
            config: "uvg-fast".into(),
            n_train: 16,
            n_classes: 2,
            n_features: 27,
            fit_seconds: 0.125,
            provenance: "synthetic".into(),
            features: None,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tsg-snap-test-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn roundtrip_preserves_every_field_and_payload() {
        let dir = temp_dir("roundtrip");
        let info = sample_info();
        let payload = vec![1u8, 2, 3, 250, 0, 7];
        let path = write_snapshot(&dir, &info, 9, &payload).unwrap();
        let (back, seed, body) = read_snapshot(&path).unwrap();
        assert_eq!(back.name, info.name);
        assert_eq!(back.version, 42);
        assert_eq!(back.dataset.as_deref(), Some("BeetleFly"));
        assert_eq!(back.config, "uvg-fast");
        assert_eq!(back.n_train, 16);
        assert_eq!(back.n_classes, 2);
        assert_eq!(back.n_features, 27);
        assert_eq!(back.fit_seconds.to_bits(), 0.125f64.to_bits());
        assert_eq!(back.provenance, "synthetic");
        assert_eq!(seed, 9);
        assert_eq!(body, payload);
        assert_eq!(list_snapshots(&dir), vec![path.clone()]);
        // an inline fit (no dataset) roundtrips too
        let mut inline = sample_info();
        inline.name = "other".into();
        inline.dataset = None;
        let p2 = write_snapshot(&dir, &inline, 1, &[]).unwrap();
        assert_eq!(read_snapshot(&p2).unwrap().0.dataset, None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pruned_feature_list_roundtrips_in_order() {
        let dir = temp_dir("features");
        let mut info = sample_info();
        info.name = "pruned".into();
        info.features = Some(vec![
            "T0 HVG P(M44)".into(),
            "stat acf_3".into(),
            "stat fft_mag_1".into(),
        ]);
        info.n_features = 3;
        let path = write_snapshot(&dir, &info, 5, &[7u8; 16]).unwrap();
        let (back, _, _) = read_snapshot(&path).unwrap();
        assert_eq!(back.features, info.features, "order and content preserved");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A well-formed format-v1 file (written before the `features` field
    /// existed), hand-assembled to the exact v1 layout with a valid hash.
    pub(crate) fn v1_snapshot_bytes(info: &ModelInfo, seed: u64, payload: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        put_u32(&mut bytes, 1);
        put_u64(&mut bytes, seed);
        put_str(&mut bytes, &info.name);
        put_u64(&mut bytes, info.version);
        match &info.dataset {
            None => put_u8(&mut bytes, 0),
            Some(dataset) => {
                put_u8(&mut bytes, 1);
                put_str(&mut bytes, dataset);
            }
        }
        put_str(&mut bytes, &info.config);
        put_u64(&mut bytes, info.n_train as u64);
        put_u64(&mut bytes, info.n_classes as u64);
        put_u64(&mut bytes, info.n_features as u64);
        put_f64(&mut bytes, info.fit_seconds);
        put_str(&mut bytes, &info.provenance);
        // v1 ends here: no features flag before the payload
        put_blob(&mut bytes, payload);
        let hash = Fnv1a::hash(&bytes);
        put_u64(&mut bytes, hash);
        bytes
    }

    // an intact v1 file (magic and hash check out) is refused by its
    // version, so the caller refits
    #[test]
    fn format_v1_snapshots_are_refused() {
        let dir = temp_dir("v1-refused");
        let path = dir.join("legacy.snap");
        std::fs::write(
            &path,
            v1_snapshot_bytes(&sample_info(), 9, &[3, 1, 4, 1, 5]),
        )
        .unwrap();
        let err = read_snapshot(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("unsupported format version"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_truncation_and_any_bitflip_is_detected() {
        let dir = temp_dir("corrupt");
        let info = sample_info();
        let path = write_snapshot(&dir, &info, 9, &[9u8; 64]).unwrap();
        let valid = std::fs::read(&path).unwrap();
        for cut in 0..valid.len() {
            std::fs::write(&path, &valid[..cut]).unwrap();
            assert!(read_snapshot(&path).is_err(), "cut at {cut} accepted");
        }
        // flip one bit at a spread of positions — the hash must catch all
        for pos in (0..valid.len()).step_by(7) {
            let mut bad = valid.clone();
            bad[pos] ^= 0x20;
            std::fs::write(&path, &bad).unwrap();
            assert!(read_snapshot(&path).is_err(), "flip at {pos} accepted");
        }
        std::fs::write(&path, &valid).unwrap();
        assert!(read_snapshot(&path).is_ok(), "pristine file must read back");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hostile_names_map_to_safe_distinct_paths() {
        let dir = PathBuf::from("/snapdir");
        let a = snapshot_path(&dir, "../../etc/passwd");
        let b = snapshot_path(&dir, "..\\..\\etc\\passwd");
        let c = snapshot_path(&dir, "model v1 (prod)");
        for p in [&a, &b, &c] {
            assert_eq!(p.parent(), Some(dir.as_path()), "{p:?} escaped the dir");
        }
        assert_ne!(a, b, "distinct names must not collide");
        // same name → same path (refits overwrite in place)
        assert_eq!(snapshot_path(&dir, "m"), snapshot_path(&dir, "m"));
        // and across versions: a warm restart finds the file an older build
        // wrote only if the name hash never changes
        assert_eq!(
            snapshot_path(&dir, "demo/model name!"),
            dir.join("demomodelname-a60f77fae7cc87be.snap")
        );
    }

    #[test]
    fn missing_directory_lists_empty_and_read_errors_cleanly() {
        let ghost = PathBuf::from("/nonexistent-tsg-snapshot-dir");
        assert!(list_snapshots(&ghost).is_empty());
        assert!(read_snapshot(&ghost.join("x.snap")).is_err());
    }
}
