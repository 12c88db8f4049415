//! Locating real UCR archive files.
//!
//! A directory in the UCR text format holds one sub-directory per dataset
//! with `<Name>_TRAIN` / `<Name>_TEST` files, or flat files named that way.
//! This module only finds the files; [`crate::source::DatasetSource`] reads
//! them, and falls back to the synthetic archive when a directory lacks a
//! dataset.
//!
//! ## Pinned lookup precedence
//!
//! For each split the candidate paths are tried in this order, first hit
//! wins (the order is part of the public contract and pinned by the layout
//! matrix test below):
//!
//! 1. nested `root/Name/Name_SPLIT` with extensions `"" , .txt, .tsv, .csv`
//! 2. flat `root/Name_SPLIT` with the same extension order
//!
//! i.e. the nested layout always beats the flat layout, and within a layout
//! the extension-less name (the classic archive) beats the suffixed ones.
//! Train and test are located independently, so a mixed tree (nested train,
//! flat test) still loads.

use std::path::{Path, PathBuf};

/// Extension order tried for each layout (part of the pinned precedence).
const EXTENSIONS: [&str; 4] = ["", ".txt", ".tsv", ".csv"];

/// Locates the `_TRAIN`/`_TEST` pair for `name` under `root` following the
/// pinned precedence (nested before flat, extension-less before suffixed).
/// Returns `None` unless **both** split files exist — a lone `_TRAIN` is
/// treated as "the directory lacks this dataset", never half-loaded.
pub fn find_ucr_pair(root: &Path, name: &str) -> Option<(PathBuf, PathBuf)> {
    let train = find_split(root, name, "TRAIN")?;
    let test = find_split(root, name, "TEST")?;
    Some((train, test))
}

/// Locates one split file following the pinned precedence.
pub fn find_split(root: &Path, name: &str, suffix: &str) -> Option<PathBuf> {
    let nested = EXTENSIONS
        .iter()
        .map(|ext| root.join(name).join(format!("{name}_{suffix}{ext}")));
    let flat = EXTENSIONS
        .iter()
        .map(|ext| root.join(format!("{name}_{suffix}{ext}")));
    nested.chain(flat).find(|p| p.is_file())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::ArchiveOptions;
    use crate::source::{DatasetSource, SourceError, SourceKind};
    use std::sync::atomic::{AtomicU32, Ordering};
    use tsg_ts::io::write_ucr_file;
    use tsg_ts::{Dataset, TimeSeries};

    static DIR_COUNTER: AtomicU32 = AtomicU32::new(0);

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tsg-loader-{tag}-{}-{}",
            std::process::id(),
            DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Resolves `name` from `root` the way every production caller does.
    fn load(root: &Path, name: &str) -> Result<(Dataset, Dataset), SourceError> {
        let source =
            DatasetSource::synthetic(ArchiveOptions::bounded(10, 64, 1)).with_ucr_dir(root);
        source.resolve(name).map(|pair| (pair.train, pair.test))
    }

    fn toy_pair(marker: f64) -> (Dataset, Dataset) {
        let mut train = Dataset::new("Toy_TRAIN");
        train.push(TimeSeries::with_label(vec![marker, 1.0, 2.0], 0));
        train.push(TimeSeries::with_label(vec![2.0, 1.0, marker], 1));
        let mut test = Dataset::new("Toy_TEST");
        test.push(TimeSeries::with_label(vec![0.1, 1.1, marker], 0));
        (train, test)
    }

    fn write_pair(root: &Path, name: &str, nested: bool, ext: &str, marker: f64) {
        let (train, test) = toy_pair(marker);
        let dir = if nested {
            root.join(name)
        } else {
            root.to_path_buf()
        };
        std::fs::create_dir_all(&dir).unwrap();
        write_ucr_file(&train, dir.join(format!("{name}_TRAIN{ext}"))).unwrap();
        write_ucr_file(&test, dir.join(format!("{name}_TEST{ext}"))).unwrap();
    }

    #[test]
    fn layout_matrix_every_layout_and_extension_loads() {
        for nested in [true, false] {
            for ext in EXTENSIONS {
                let root = temp_root("matrix");
                write_pair(&root, "Toy", nested, ext, 7.5);
                let (train_path, test_path) = find_ucr_pair(&root, "Toy")
                    .unwrap_or_else(|| panic!("nested={nested} ext={ext:?} not found"));
                assert!(train_path
                    .to_string_lossy()
                    .ends_with(&format!("Toy_TRAIN{ext}")));
                assert!(test_path
                    .to_string_lossy()
                    .ends_with(&format!("Toy_TEST{ext}")));
                let (train, test) = load(&root, "Toy").unwrap();
                assert_eq!(train.len(), 2);
                assert_eq!(test.len(), 1);
                assert_eq!(train.name, "Toy_TRAIN");
                assert_eq!(train.series()[0].values()[0], 7.5);
                std::fs::remove_dir_all(&root).ok();
            }
        }
    }

    #[test]
    fn nested_layout_beats_flat_when_both_exist() {
        let root = temp_root("precedence");
        write_pair(&root, "Toy", true, "", 1.0); // nested, marker 1.0
        write_pair(&root, "Toy", false, ".txt", 2.0); // flat, marker 2.0
        let (train, _) = load(&root, "Toy").unwrap();
        assert_eq!(
            train.series()[0].values()[0],
            1.0,
            "pinned precedence: nested must win over flat"
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn extensionless_beats_suffixed_within_a_layout() {
        let root = temp_root("ext-precedence");
        write_pair(&root, "Toy", false, ".tsv", 3.0);
        write_pair(&root, "Toy", false, "", 4.0);
        write_pair(&root, "Toy", false, ".csv", 5.0);
        let (train, _) = load(&root, "Toy").unwrap();
        assert_eq!(
            train.series()[0].values()[0],
            4.0,
            "\"\" must beat .tsv/.csv"
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn mixed_layout_pair_still_loads() {
        let root = temp_root("mixed");
        // train nested, test flat — located independently
        let (train, test) = toy_pair(9.0);
        std::fs::create_dir_all(root.join("Toy")).unwrap();
        write_ucr_file(&train, root.join("Toy").join("Toy_TRAIN")).unwrap();
        write_ucr_file(&test, root.join("Toy_TEST.txt")).unwrap();
        assert!(find_ucr_pair(&root, "Toy").is_some());
        assert!(load(&root, "Toy").is_ok());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn lone_train_means_pair_absent() {
        let root = temp_root("lone");
        let (train, _) = toy_pair(1.0);
        write_ucr_file(&train, root.join("Toy_TRAIN.txt")).unwrap();
        assert!(find_ucr_pair(&root, "Toy").is_none());
        // absent, not broken: an uncatalogued name is unknown, not unreadable
        assert!(matches!(
            load(&root, "Toy"),
            Err(SourceError::UnknownDataset(_))
        ));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn missing_files_return_none() {
        let root = temp_root("missing");
        assert!(find_ucr_pair(&root, "Nothing").is_none());
        assert!(find_split(&root, "Nothing", "TRAIN").is_none());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn malformed_pair_is_err_not_none() {
        let root = temp_root("malformed");
        std::fs::write(root.join("Toy_TRAIN.txt"), "1,0.5,garbage\n").unwrap();
        std::fs::write(root.join("Toy_TEST.txt"), "1,0.5,0.6\n").unwrap();
        assert!(find_ucr_pair(&root, "Toy").is_some());
        assert!(matches!(load(&root, "Toy"), Err(SourceError::Read { .. })));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn pair_shares_one_label_table_across_splits() {
        // TRAIN sees raw labels 4, 8; TEST lists them in the opposite order
        // — the shared table must keep 4 → 0 and 8 → 1 in both splits
        let root = temp_root("labels");
        std::fs::write(root.join("Toy_TRAIN.txt"), "4,0.5,0.6\n8,1.0,1.1\n").unwrap();
        std::fs::write(root.join("Toy_TEST.txt"), "8,1.5,1.6\n4,0.1,0.2\n").unwrap();
        let (train, test) = load(&root, "Toy").unwrap();
        assert_eq!(train.labels_required().unwrap(), vec![0, 1]);
        assert_eq!(test.labels_required().unwrap(), vec![1, 0]);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn real_pair_wins_over_synthesis() {
        let root = temp_root("wins");
        write_pair(&root, "BeetleFly", true, ".txt", 42.0);
        let source =
            DatasetSource::synthetic(ArchiveOptions::bounded(10, 64, 1)).with_ucr_dir(&root);
        let pair = source.resolve("BeetleFly").unwrap();
        assert_eq!(pair.kind(), SourceKind::Real);
        assert_eq!(pair.train.len(), 2);
        assert_eq!(pair.train.series()[0].values()[0], 42.0);
        std::fs::remove_dir_all(&root).ok();
    }
}
