//! Golden UCR fixture trees.
//!
//! A *fixture tree* is a self-contained directory in the real UCR archive
//! text format, generated deterministically from the synthetic catalogue via
//! the hardened `tsg_ts::io` writer. It exists so that the real-file
//! ingestion path can be exercised end-to-end — in the conformance suite at
//! the workspace root, in CI (`make_ucr_fixture` + `fig6_fig7_classifiers
//! --ucr-dir`), and on a laptop — without redistributing the actual UCR
//! data.
//!
//! The tree deliberately covers the layout variety found in the wild: the
//! nested (`root/Name/Name_TRAIN`) and flat (`root/Name_TRAIN.txt`) layouts,
//! the `.txt`/`.tsv`/`.csv`/extension-less file names, comma- and
//! tab-separated flavours, and (optionally) edge-case datasets — NaN-padded
//! variable-length rows, negative / non-contiguous class labels, and a lone
//! `_TRAIN` file without its `_TEST` partner.

use crate::archive::{generate_scaled, spec_by_name, ArchiveOptions};
use std::path::{Path, PathBuf};
use tsg_ts::io::{write_ucr_file_with, UcrSeparator};
use tsg_ts::{Dataset, TimeSeries};

/// Dataset name of the NaN-padded variable-length edge-case fixture.
pub const VARLEN_FIXTURE: &str = "FixtureVarLen";

/// Dataset name of the negative / non-contiguous label edge-case fixture.
pub const LABELS_FIXTURE: &str = "FixtureLabels";

/// Dataset name of the lone-`_TRAIN` (no `_TEST`) edge-case fixture.
pub const LONE_TRAIN_FIXTURE: &str = "FixtureLoneTrain";

/// What [`write_ucr_fixture_tree`] produced.
#[derive(Debug, Clone, Default)]
pub struct FixtureReport {
    /// Catalogue datasets written (in input order).
    pub datasets: Vec<String>,
    /// Every file created, relative to the tree root.
    pub files: Vec<PathBuf>,
}

/// The four layout/extension/separator combinations rotated across the
/// catalogue datasets, indexed by dataset position.
fn layout(index: usize) -> (bool, &'static str, UcrSeparator) {
    match index % 4 {
        0 => (true, "", UcrSeparator::Tab), // nested, extension-less, tabs (UEA style)
        1 => (false, ".txt", UcrSeparator::Comma),
        2 => (true, ".tsv", UcrSeparator::Tab),
        _ => (false, ".csv", UcrSeparator::Comma),
    }
}

fn split_path(root: &Path, name: &str, suffix: &str, nested: bool, ext: &str) -> PathBuf {
    let file = format!("{name}_{suffix}{ext}");
    if nested {
        root.join(name).join(file)
    } else {
        root.join(file)
    }
}

/// Writes a golden fixture tree under `root` containing the named catalogue
/// datasets (generated under `options`) plus, when `edge_cases` is set, the
/// three hand-built edge-case datasets. Returns the written files; errors
/// are strings suitable for a binary's stderr.
pub fn write_ucr_fixture_tree(
    root: &Path,
    names: &[&str],
    options: ArchiveOptions,
    edge_cases: bool,
) -> Result<FixtureReport, String> {
    let mut report = FixtureReport::default();
    std::fs::create_dir_all(root).map_err(|e| format!("cannot create {}: {e}", root.display()))?;
    for (index, name) in names.iter().enumerate() {
        let spec =
            spec_by_name(name).ok_or_else(|| format!("unknown catalogue dataset `{name}`"))?;
        let (train, test) = generate_scaled(spec, options);
        let (nested, ext, sep) = layout(index);
        for (split, dataset) in [("TRAIN", &train), ("TEST", &test)] {
            let path = split_path(root, name, split, nested, ext);
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
            }
            write_ucr_file_with(dataset, &path, sep)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            report
                .files
                .push(path.strip_prefix(root).unwrap_or(&path).to_path_buf());
        }
        report.datasets.push(name.to_string());
    }
    if edge_cases {
        write_edge_cases(root, &mut report)?;
    }
    Ok(report)
}

/// Deterministic variable-length series: lengths differ per instance, so the
/// writer must pad with NaN and the reader must strip it again. They span
/// one to three PAA scales at the default `τ = 15`.
fn varlen_dataset(split: &str, n: usize) -> Dataset {
    let mut d = Dataset::new(format!("{VARLEN_FIXTURE}_{split}"));
    for i in 0..n {
        let label = i % 2;
        let len = 24 + (i * 13) % 48; // 24..72, varies per instance
        let values = (0..len)
            .map(|t| {
                let t = t as f64;
                if label == 0 {
                    (t * (0.21 + i as f64 * 0.015)).sin()
                } else {
                    (t * 0.4).cos() + ((t as u64 * 2654435761 + i as u64) % 17) as f64 * 0.05
                }
            })
            .collect();
        d.push(TimeSeries::with_label(values, label));
    }
    d
}

fn write_edge_cases(root: &Path, report: &mut FixtureReport) -> Result<(), String> {
    let write_raw = |path: PathBuf, content: &str, report: &mut FixtureReport| {
        std::fs::write(&path, content)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        report
            .files
            .push(path.strip_prefix(root).unwrap_or(&path).to_path_buf());
        Ok::<(), String>(())
    };

    // NaN-padded variable-length rows (flat .txt, comma-separated)
    for (split, n) in [("TRAIN", 8), ("TEST", 5)] {
        let path = root.join(format!("{VARLEN_FIXTURE}_{split}.txt"));
        write_ucr_file_with(&varlen_dataset(split, n), &path, UcrSeparator::Comma)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        report
            .files
            .push(path.strip_prefix(root).unwrap_or(&path).to_path_buf());
    }

    // negative and non-contiguous raw labels (remapped 0..k by the reader)
    write_raw(
        root.join(format!("{LABELS_FIXTURE}_TRAIN.txt")),
        "5,0.5,0.75,1.0,0.5\n-2,1.5,1.25,1.0,0.75\n5,0.25,0.5,0.75,1.0\n9,2.0,1.5,1.0,0.5\n",
        report,
    )?;
    write_raw(
        root.join(format!("{LABELS_FIXTURE}_TEST.txt")),
        "-2,1.0,1.5,1.25,0.5\n9,1.75,1.5,1.25,1.0\n",
        report,
    )?;

    // a lone _TRAIN without its _TEST partner: the loader must treat the
    // pair as absent (and fall back), never crash
    write_raw(
        root.join(format!("{LONE_TRAIN_FIXTURE}_TRAIN.txt")),
        "1,0.5,0.25,0.125\n2,1.0,2.0,3.0\n",
        report,
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{DatasetSource, SourceKind, Split};
    use std::sync::atomic::{AtomicU32, Ordering};

    static DIR_COUNTER: AtomicU32 = AtomicU32::new(0);

    fn temp_root() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tsg-fixture-{}-{}",
            std::process::id(),
            DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn fixture_tree_is_resolvable_as_real_for_every_layout() {
        let root = temp_root();
        let options = ArchiveOptions::bounded(6, 48, 5);
        // four datasets: one per layout/extension/separator combination
        let names = ["BeetleFly", "Wine", "Herring", "Meat"];
        let report = write_ucr_fixture_tree(&root, &names, options, true).unwrap();
        assert_eq!(report.datasets.len(), 4);
        // 4 datasets × 2 splits + 2 varlen + 2 labels + 1 lone train
        assert_eq!(report.files.len(), 13);
        let source = DatasetSource::synthetic(options).with_ucr_dir(&root);
        for name in names {
            let resolved = source.resolve(name).unwrap();
            assert_eq!(resolved.kind(), SourceKind::Real, "{name}");
            let expected = DatasetSource::synthetic(options).resolve(name).unwrap();
            assert_eq!(resolved.train.series(), expected.train.series(), "{name}");
            assert_eq!(resolved.test.series(), expected.test.series(), "{name}");
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn edge_case_fixtures_have_the_advertised_shapes() {
        let root = temp_root();
        let options = ArchiveOptions::bounded(6, 48, 5);
        write_ucr_fixture_tree(&root, &[], options, true).unwrap();
        let source = DatasetSource::synthetic(options).with_ucr_dir(&root);

        let varlen = source.resolve(VARLEN_FIXTURE).unwrap();
        assert_eq!(varlen.kind(), SourceKind::Real);
        assert!(!varlen.train.is_uniform_length(), "padding must vary");
        let (train, _) = source.resolve_split(VARLEN_FIXTURE, Split::Train).unwrap();
        assert_eq!(train, varlen.train);

        let labels = source.resolve(LABELS_FIXTURE).unwrap();
        // raw labels 5, -2, 5, 9 remap to 0, 1, 0, 2
        let got: Vec<usize> = labels.train.labels_required().unwrap();
        assert_eq!(got, vec![0, 1, 0, 2]);
        // TEST lists -2, 9 first — the shared table keeps their training
        // indices (1, 2), not a per-file first-appearance remap (0, 1)
        assert_eq!(labels.test.labels_required().unwrap(), vec![1, 2]);

        // the lone _TRAIN is not a pair: not in the catalogue either, so it
        // resolves to an unknown-dataset error rather than a crash
        assert!(source.resolve(LONE_TRAIN_FIXTURE).is_err());
        std::fs::remove_dir_all(&root).ok();
    }
}
