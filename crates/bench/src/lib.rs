//! # tsg-bench — experiment harness
//!
//! Shared plumbing for the per-table / per-figure experiment binaries under
//! `src/bin/`. Performance is measured elsewhere: `perfbench/` times every
//! pipeline layer on workload series, and the `feature_timing` binary here
//! prints the per-family feature cost table.
//!
//! Each binary regenerates one artefact of the paper's evaluation section:
//!
//! | binary | paper artefact |
//! |--------|----------------|
//! | `table1_motifs` | Table 1 (motif taxonomy) |
//! | `fig2_motif_distributions` | Figure 2 (per-class motif box plots, ArrowHead) |
//! | `table2_heuristics` | Table 2 + Figures 3, 4, 5 (heuristic ablations) |
//! | `fig6_fig7_classifiers` | Figures 6, 7 (critical-difference diagrams) |
//! | `table3_benchmark` | Table 3 + Figures 8, 9 (accuracy and runtime vs baselines) |
//! | `fig10_importance` | Figure 10 (top feature importances, FordA) |
//!
//! All binaries accept `--quick` (tiny budget, minutes), default to a
//! *reduced* budget (bounded instance counts and lengths) and accept
//! `--full` for paper-scale dataset sizes. Results are printed as aligned
//! text tables and written as CSV/JSON artefacts under `target/experiments/`.

use std::path::PathBuf;
use tsg_datasets::archive::ArchiveOptions;
use tsg_datasets::DatasetSource;

pub mod experiments;

/// Command-line options shared by all experiment binaries.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Dataset size budget.
    pub archive: ArchiveOptions,
    /// Restrict the run to datasets whose name contains one of these
    /// substrings (empty = all datasets).
    pub dataset_filter: Vec<String>,
    /// How many datasets to include at most (0 = all).
    pub max_datasets: usize,
    /// Emit per-figure CSV artefacts as well as the tables.
    pub figures: bool,
    /// Output directory for artefacts.
    pub output_dir: PathBuf,
    /// Random seed.
    pub seed: u64,
    /// Worker threads for extraction, grid search, forest fitting and
    /// stacking (`0` = process default, i.e. `TSC_MVG_THREADS` or available
    /// parallelism capped at 8).
    pub n_threads: usize,
    /// Real UCR archive directory (`--ucr-dir`; overrides the `TSG_UCR_DIR`
    /// environment variable). Datasets found there are loaded from disk;
    /// the rest fall back to the synthetic catalogue.
    pub ucr_dir: Option<PathBuf>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            archive: ArchiveOptions::bounded(60, 512, 7),
            dataset_filter: Vec::new(),
            max_datasets: 0,
            figures: true,
            output_dir: PathBuf::from("target/experiments"),
            seed: 7,
            n_threads: 0,
            ucr_dir: None,
        }
    }
}

impl RunOptions {
    /// Parses the common flags from `std::env::args`; a bad command line
    /// prints the reason and exits with status 2.
    ///
    /// Supported flags: `--quick`, `--full`, `--datasets a,b,c`,
    /// `--max-datasets N`, `--seed N`, `--threads N`, `--no-figures`,
    /// `--out DIR`, `--ucr-dir DIR`.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::from_arg_slice(&args).unwrap_or_else(|message| {
            eprintln!("error: {message}");
            std::process::exit(2);
        })
    }

    /// Parses flags from an explicit slice (testable). An unknown flag, a
    /// flag missing its value and a malformed number are errors that name
    /// the flag.
    pub fn from_arg_slice(args: &[String]) -> Result<Self, String> {
        let mut options = RunOptions::default();
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("`{flag}` needs a value"));
            let number = |text: &String| {
                text.parse::<u64>()
                    .map_err(|_| format!("`{flag}` expects a non-negative integer, got `{text}`"))
            };
            match flag.as_str() {
                "--quick" => {
                    options.archive = ArchiveOptions::bounded(24, 192, options.seed);
                    if options.max_datasets == 0 {
                        options.max_datasets = 8;
                    }
                }
                "--full" => {
                    options.archive = ArchiveOptions::full(options.seed);
                }
                "--no-figures" => options.figures = false,
                "--datasets" => {
                    options.dataset_filter =
                        value()?.split(',').map(|s| s.trim().to_string()).collect();
                }
                "--max-datasets" => options.max_datasets = number(value()?)? as usize,
                "--seed" => {
                    options.seed = number(value()?)?;
                    options.archive.seed = options.seed;
                }
                "--threads" => options.n_threads = number(value()?)? as usize,
                "--out" => options.output_dir = PathBuf::from(value()?),
                "--ucr-dir" => options.ucr_dir = Some(PathBuf::from(value()?)),
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(options)
    }

    /// The unified dataset resolver for this run: the `--ucr-dir` flag (or
    /// the `TSG_UCR_DIR` environment variable) in front, in-memory synthesis
    /// behind it. All experiment binaries load
    /// their splits through this, so provenance is uniform across artefacts.
    pub fn dataset_source(&self) -> DatasetSource {
        let source = DatasetSource::from_env(self.archive);
        match &self.ucr_dir {
            Some(dir) => source.with_ucr_dir(dir.clone()),
            None => source,
        }
    }

    /// The dataset specs selected by the filter / cap.
    pub fn selected_specs(&self) -> Vec<&'static tsg_datasets::DatasetSpec> {
        let mut specs: Vec<&'static tsg_datasets::DatasetSpec> = tsg_datasets::ALL_DATASETS
            .iter()
            .filter(|spec| {
                self.dataset_filter.is_empty()
                    || self
                        .dataset_filter
                        .iter()
                        .any(|f| spec.name.to_lowercase().contains(&f.to_lowercase()))
            })
            .collect();
        if self.max_datasets > 0 && specs.len() > self.max_datasets {
            specs.truncate(self.max_datasets);
        }
        specs
    }

    /// Ensures the output directory exists and returns the path of an
    /// artefact file inside it.
    pub fn artefact_path(&self, name: &str) -> PathBuf {
        std::fs::create_dir_all(&self.output_dir).ok();
        self.output_dir.join(name)
    }

    /// Writes an artefact file and logs its location.
    pub fn write_artefact(&self, name: &str, content: &str) {
        let path = self.artefact_path(name);
        match std::fs::write(&path, content) {
            Ok(()) => println!("  wrote {}", path.display()),
            Err(e) => eprintln!("  failed to write {}: {e}", path.display()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn default_options_select_all_datasets() {
        let options = RunOptions::default();
        assert_eq!(options.selected_specs().len(), 39);
    }

    #[test]
    fn flags_are_parsed() {
        let args: Vec<String> = [
            "--quick",
            "--datasets",
            "beetle,wine",
            "--seed",
            "13",
            "--threads",
            "3",
            "--no-figures",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let options = RunOptions::from_arg_slice(&args).unwrap();
        assert!(!options.figures);
        assert_eq!(options.seed, 13);
        assert_eq!(options.n_threads, 3);
        let specs = options.selected_specs();
        assert_eq!(specs.len(), 2);
        assert!(specs.iter().any(|s| s.name == "BeetleFly"));
        assert!(specs.iter().any(|s| s.name == "Wine"));
    }

    #[test]
    fn max_datasets_caps_selection() {
        let args: Vec<String> = ["--max-datasets", "5"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let options = RunOptions::from_arg_slice(&args).unwrap();
        assert_eq!(options.selected_specs().len(), 5);
    }

    #[test]
    fn ucr_dir_flag_feeds_the_dataset_source() {
        let args: Vec<String> = ["--ucr-dir", "/tmp/ucr-tree"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let options = RunOptions::from_arg_slice(&args).unwrap();
        assert_eq!(options.ucr_dir.as_deref(), Some(Path::new("/tmp/ucr-tree")));
        let source = options.dataset_source();
        assert_eq!(source.ucr_dir(), Some(Path::new("/tmp/ucr-tree")));
        assert_eq!(source.options(), options.archive);
    }

    #[test]
    fn unknown_flags_and_bad_values_are_rejected() {
        let parse = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            RunOptions::from_arg_slice(&args)
        };
        for (args, named) in [
            (&["--full", "--bogus"][..], "--bogus"),
            (&["--figures"][..], "--figures"),
            (&["--seed", "x7"][..], "--seed"),
            (&["--threads", "-1"][..], "--threads"),
            (&["--max-datasets", "five"][..], "--max-datasets"),
            (&["--quick", "--out"][..], "--out"),
        ] {
            let message = parse(args).expect_err(&format!("{args:?} was accepted"));
            assert!(message.contains(named), "{args:?}: {message}");
        }
        assert_eq!(parse(&["--full"]).unwrap().archive.max_train, usize::MAX);
    }
}
