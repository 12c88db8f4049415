//! Reading and writing the UCR archive text format.
//!
//! The classic UCR format stores one instance per line: the class label
//! followed by the series values, separated by commas (older archive) or
//! whitespace/tabs (UEA & UCR repository `_TRAIN`/`_TEST` files). This module
//! auto-detects the separator, so real archive files can be dropped in to
//! replace the synthetic datasets without code changes.
//!
//! ## Format rules (pinned by `tests/ucr_roundtrip.rs`)
//!
//! * Every record has the same number of raw fields; **ragged rows are a
//!   parse error**. Variable-length series are expressed the way the 2018
//!   archive expresses them: shorter series are padded with trailing `NaN`
//!   values up to the longest row, and the reader strips that padding.
//! * `NaN` is therefore reserved for padding — a `NaN` followed by a real
//!   value, a record that is *only* padding, or an infinite value are all
//!   parse errors rather than silently corrupted data.
//! * Labels may be arbitrary integers (including negative); they are
//!   remapped to consecutive `0..k` indices in order of first appearance.
//!   A `_TRAIN`/`_TEST` pair must share one remapping (the splits of a real
//!   archive dataset routinely list classes in different orders), so pair
//!   loaders parse the training file first and seed the test parser with
//!   its label table via [`UcrRecordParser::seeded`].
//! * Values round-trip **bit-exactly**: the writer emits the shortest
//!   decimal string that parses back to the identical `f64` (Rust's `{}`
//!   float formatting guarantee), so a write→read cycle never perturbs
//!   feature extraction downstream.
//!
//! Parsing is line by line: a [`UcrRecordParser`] consumes one line at a
//! time and is the single implementation behind [`parse_ucr`],
//! [`read_ucr_file`] and the split reader in `tsg_datasets::source`, so
//! they can never disagree.

use crate::error::TsError;
use crate::series::{Dataset, TimeSeries};
use crate::Result;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Field separator used when serialising a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UcrSeparator {
    /// Comma-separated values (the older UCR archive flavour).
    Comma,
    /// Tab-separated values (the UEA & UCR repository `.tsv` flavour).
    Tab,
}

impl UcrSeparator {
    fn as_char(self) -> char {
        match self {
            UcrSeparator::Comma => ',',
            UcrSeparator::Tab => '\t',
        }
    }
}

/// Line-by-line parser state for one UCR-format file.
///
/// [`parse_ucr_with`] feeds it the file's physical lines in order; a
/// malformed line is a [`TsError::Parse`], and so is a file with no
/// records. The parser carries the label-remapping table and the pinned
/// field count across lines.
#[derive(Debug, Clone, Default)]
pub struct UcrRecordParser {
    label_map: Vec<i64>,
    expected_fields: Option<usize>,
    records: usize,
}

impl UcrRecordParser {
    /// Creates a parser with an empty label table.
    pub fn new() -> Self {
        UcrRecordParser::default()
    }

    /// Creates a parser whose label table starts as `labels` (raw label →
    /// index by position). Use this to parse the `_TEST` file of a pair with
    /// the table its `_TRAIN` file produced, so both splits map the same raw
    /// label to the same class index regardless of first-appearance order;
    /// test-only labels extend the table past the training classes. Field
    /// counts are *not* carried over — each file of a variable-length pair
    /// is padded to its own longest row.
    pub fn seeded(labels: &[i64]) -> Self {
        UcrRecordParser {
            label_map: labels.to_vec(),
            expected_fields: None,
            records: 0,
        }
    }

    /// The label table built so far: raw labels in index order.
    pub fn label_map(&self) -> &[i64] {
        &self.label_map
    }

    /// Parses one physical line (`lineno` is 1-based, used in errors).
    ///
    /// Returns `Ok(None)` for blank lines, `Ok(Some(series))` for records
    /// (with trailing `NaN` padding stripped), and `Err` for malformed
    /// input: ragged rows, non-numeric tokens, interior `NaN`, infinite
    /// values, or records that are entirely padding.
    fn parse_line(&mut self, lineno: usize, line: &str) -> Result<Option<TimeSeries>> {
        let line = line.trim();
        if line.is_empty() {
            return Ok(None);
        }
        let mut fields: Vec<&str> = if line.contains(',') {
            line.split(',').map(str::trim).collect()
        } else {
            line.split_whitespace().collect()
        };
        // a trailing separator produces one empty trailing field; tolerate
        // exactly that one — several trailing separators are corruption, and
        // stripping them here would also defeat the uniform-field-count check
        if fields.last() == Some(&"") {
            fields.pop();
        }
        if fields.len() < 2 {
            return Err(TsError::Parse {
                line: lineno,
                message: format!(
                    "expected a label and at least one value, got {} fields",
                    fields.len()
                ),
            });
        }
        match self.expected_fields {
            Some(expected) if expected != fields.len() => {
                return Err(TsError::Parse {
                    line: lineno,
                    message: format!(
                        "record has {} fields where the first record had {expected} \
                         (ragged rows are not valid UCR data; pad variable-length \
                         series with trailing NaN values)",
                        fields.len()
                    ),
                });
            }
            _ => self.expected_fields = Some(fields.len()),
        }
        let raw_label: f64 = fields[0].parse().map_err(|_| TsError::Parse {
            line: lineno,
            message: format!("invalid label `{}`", fields[0]),
        })?;
        let raw_label = raw_label.round() as i64;
        let label = match self.label_map.iter().position(|l| *l == raw_label) {
            Some(idx) => idx,
            None => {
                self.label_map.push(raw_label);
                self.label_map.len() - 1
            }
        };
        let mut values = Vec::with_capacity(fields.len() - 1);
        let mut in_padding = false;
        for f in &fields[1..] {
            if f.is_empty() {
                return Err(TsError::Parse {
                    line: lineno,
                    message: "empty value field".into(),
                });
            }
            let v: f64 = f.parse().map_err(|_| TsError::Parse {
                line: lineno,
                message: format!("invalid value `{f}`"),
            })?;
            if v.is_nan() {
                in_padding = true;
                continue;
            }
            if in_padding {
                return Err(TsError::Parse {
                    line: lineno,
                    message: format!(
                        "value `{f}` after NaN padding (NaN is only valid as trailing padding)"
                    ),
                });
            }
            if v.is_infinite() {
                return Err(TsError::Parse {
                    line: lineno,
                    message: format!("non-finite value `{f}`"),
                });
            }
            values.push(v);
        }
        if values.is_empty() {
            return Err(TsError::Parse {
                line: lineno,
                message: "record contains no values (line is entirely NaN padding)".into(),
            });
        }
        self.records += 1;
        Ok(Some(TimeSeries::with_label(values, label)))
    }

    /// Final validation: a UCR file must contain at least one record.
    fn finish(&self) -> Result<()> {
        if self.records == 0 {
            return Err(TsError::Parse {
                line: 1,
                message: "file contains no records".into(),
            });
        }
        Ok(())
    }
}

/// Parses UCR-format content (one `label, v1, v2, …` record per line).
///
/// See the module documentation for the format rules (uniform field counts,
/// trailing-`NaN` padding, label remapping). Empty lines are skipped; an
/// input with no records at all is an error.
pub fn parse_ucr(content: &str, name: impl Into<String>) -> Result<Dataset> {
    parse_ucr_with(&mut UcrRecordParser::new(), content, name)
}

/// [`parse_ucr`] driving a caller-supplied parser — typically one created
/// with [`UcrRecordParser::seeded`] so a `_TEST` file reuses its `_TRAIN`
/// file's label table. Use one parser per file: the uniform-field-count pin
/// (and the no-records check) are per-file state.
pub fn parse_ucr_with(
    parser: &mut UcrRecordParser,
    content: &str,
    name: impl Into<String>,
) -> Result<Dataset> {
    let mut dataset = Dataset::new(name);
    for (lineno, line) in content.lines().enumerate() {
        if let Some(series) = parser.parse_line(lineno + 1, line)? {
            dataset.push(series);
        }
    }
    parser.finish()?;
    Ok(dataset)
}

/// Reads a UCR-format file from disk; the dataset is named after the file
/// stem.
pub fn read_ucr_file(path: impl AsRef<Path>) -> Result<Dataset> {
    let path = path.as_ref();
    let content = std::fs::read_to_string(path)?;
    let name = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "dataset".to_string());
    parse_ucr(&content, name)
}

/// Serialises a dataset to the comma-separated UCR format.
///
/// Variable-length datasets are padded with trailing `NaN` values to the
/// longest series, exactly as the 2018 UCR archive does; [`parse_ucr`]
/// strips the padding again, so the cycle round-trips lengths as well as
/// bit-exact values.
pub fn to_ucr_string(dataset: &Dataset) -> Result<String> {
    to_ucr_string_with(dataset, UcrSeparator::Comma)
}

/// [`to_ucr_string`] with an explicit field separator (the archive ships
/// both comma- and tab-separated flavours; both must parse identically).
pub fn to_ucr_string_with(dataset: &Dataset, separator: UcrSeparator) -> Result<String> {
    let sep = separator.as_char();
    let max_len = dataset.max_length();
    let mut out = String::new();
    for series in dataset.series() {
        let label = series.label().ok_or_else(|| {
            TsError::invalid("dataset", "cannot serialise unlabeled series to UCR format")
        })?;
        if series.is_empty() {
            return Err(TsError::invalid(
                "dataset",
                "cannot serialise an empty series to UCR format",
            ));
        }
        if let Some(bad) = series.values().iter().find(|v| !v.is_finite()) {
            return Err(TsError::invalid(
                "dataset",
                format!("cannot serialise non-finite value `{bad}` (NaN is reserved for padding)"),
            ));
        }
        out.push_str(&label.to_string());
        for v in series.values() {
            out.push(sep);
            out.push_str(&format!("{v}"));
        }
        for _ in series.len()..max_len {
            out.push(sep);
            out.push_str("NaN");
        }
        out.push('\n');
    }
    Ok(out)
}

/// Writes a dataset to disk in the comma-separated UCR format.
pub fn write_ucr_file(dataset: &Dataset, path: impl AsRef<Path>) -> Result<()> {
    write_ucr_file_with(dataset, path, UcrSeparator::Comma)
}

/// [`write_ucr_file`] with an explicit field separator.
pub fn write_ucr_file_with(
    dataset: &Dataset,
    path: impl AsRef<Path>,
    separator: UcrSeparator,
) -> Result<()> {
    let file = std::fs::File::create(path)?;
    let mut writer = BufWriter::new(file);
    writer.write_all(to_ucr_string_with(dataset, separator)?.as_bytes())?;
    writer.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_comma_separated() {
        let content = "1,0.5,0.6,0.7\n2,1.0,1.1,1.2\n1,0.4,0.5,0.6\n";
        let d = parse_ucr(content, "toy").unwrap();
        assert_eq!(d.len(), 3);
        assert_eq!(d.n_classes(), 2);
        assert_eq!(d.series()[0].label(), Some(0));
        assert_eq!(d.series()[1].label(), Some(1));
        assert_eq!(d.series()[2].label(), Some(0));
        assert_eq!(d.series()[0].values(), &[0.5, 0.6, 0.7]);
    }

    #[test]
    fn parses_whitespace_separated_and_negative_labels() {
        let content = "-1  0.5 0.6\n 1  1.0 1.1\n";
        let d = parse_ucr(content, "toy").unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.n_classes(), 2);
    }

    #[test]
    fn skips_blank_lines() {
        let content = "\n1,1.0,2.0\n\n2,3.0,4.0\n\n";
        let d = parse_ucr(content, "toy").unwrap();
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_ucr("not_a_label,1.0,2.0\n", "bad").is_err());
        assert!(parse_ucr("1,abc\n", "bad").is_err());
        assert!(parse_ucr("1\n", "bad").is_err());
    }

    #[test]
    fn rejects_ragged_rows() {
        let err = parse_ucr("1,1.0,2.0\n2,3.0\n", "bad").unwrap_err();
        assert!(err.to_string().contains("ragged"), "{err}");
        // whitespace flavour too
        assert!(parse_ucr("1 1.0 2.0\n2 3.0 4.0 5.0\n", "bad").is_err());
    }

    #[test]
    fn rejects_empty_input() {
        assert!(parse_ucr("", "bad").is_err());
        assert!(parse_ucr("\n\n\n", "bad").is_err());
    }

    #[test]
    fn strips_trailing_nan_padding() {
        let content = "1,0.5,0.6,NaN,NaN\n2,1.0,1.1,1.2,1.3\n";
        let d = parse_ucr(content, "toy").unwrap();
        assert_eq!(d.series()[0].values(), &[0.5, 0.6]);
        assert_eq!(d.series()[1].len(), 4);
        assert!(!d.is_uniform_length());
    }

    #[test]
    fn rejects_interior_nan_and_infinite_and_all_padding() {
        // NaN followed by a real value: padding cannot resume
        assert!(parse_ucr("1,0.5,NaN,0.7\n", "bad").is_err());
        // infinities are never valid UCR data
        assert!(parse_ucr("1,0.5,inf\n", "bad").is_err());
        assert!(parse_ucr("1,0.5,-inf\n", "bad").is_err());
        // a record that is only padding has no values
        assert!(parse_ucr("1,NaN,NaN\n", "bad").is_err());
    }

    #[test]
    fn tolerates_one_trailing_separator() {
        let d = parse_ucr("1,0.5,0.6,\n2,1.0,1.1,\n", "toy").unwrap();
        assert_eq!(d.series()[0].values(), &[0.5, 0.6]);
        // but an interior empty field is an error
        assert!(parse_ucr("1,0.5,,0.6\n", "bad").is_err());
        // and so are several trailing separators (only one is tolerated)
        assert!(parse_ucr("1,0.5,0.6,,\n", "bad").is_err());
        assert!(parse_ucr("1,0.5,0.6,,,,\n", "bad").is_err());
    }

    #[test]
    fn seeded_parser_shares_the_label_table_across_a_pair() {
        // the splits of a real pair routinely list classes in different
        // first-appearance orders; the seeded parser keeps indices aligned
        let mut train_parser = UcrRecordParser::new();
        let train = parse_ucr_with(
            &mut train_parser,
            "5,0.5,0.6\n-2,1.0,1.1\n9,2.0,2.1\n",
            "toy",
        )
        .unwrap();
        assert_eq!(train.labels_required().unwrap(), vec![0, 1, 2]);
        assert_eq!(train_parser.label_map(), &[5, -2, 9]);
        let mut test_parser = UcrRecordParser::seeded(train_parser.label_map());
        let test = parse_ucr_with(
            &mut test_parser,
            "-2,1.5,1.6\n9,2.5,2.6\n5,0.1,0.2\n",
            "toy",
        )
        .unwrap();
        assert_eq!(test.labels_required().unwrap(), vec![1, 2, 0]);
        // a label unseen in training extends the table past the known classes
        let mut extra_parser = UcrRecordParser::seeded(train_parser.label_map());
        let extra = parse_ucr_with(&mut extra_parser, "7,1.0,2.0\n", "toy").unwrap();
        assert_eq!(extra.labels_required().unwrap(), vec![3]);
        // field counts are per-file: a seeded parser accepts a different width
        let mut other_width = UcrRecordParser::seeded(train_parser.label_map());
        assert!(parse_ucr_with(&mut other_width, "5,1.0,2.0,3.0,4.0\n", "toy").is_ok());
    }

    #[test]
    fn roundtrip_through_string() {
        let content = "1,0.5,0.625,0.75\n2,1.5,1.25,1.125\n";
        let d = parse_ucr(content, "toy").unwrap();
        let s = to_ucr_string(&d).unwrap();
        let d2 = parse_ucr(&s, "toy").unwrap();
        assert_eq!(d, d2);
    }

    #[test]
    fn roundtrip_pads_variable_lengths_with_nan() {
        let mut d = Dataset::new("toy");
        d.push(TimeSeries::with_label(vec![0.5, 0.25], 0));
        d.push(TimeSeries::with_label(vec![1.5, 2.5, 3.5, 4.5], 1));
        let s = to_ucr_string(&d).unwrap();
        assert!(s.lines().next().unwrap().ends_with("NaN,NaN"));
        let d2 = parse_ucr(&s, "toy").unwrap();
        assert_eq!(d.series(), d2.series(), "lengths and bits must survive");
    }

    #[test]
    fn tab_separator_parses_identically() {
        let mut d = Dataset::new("toy");
        d.push(TimeSeries::with_label(vec![0.5, -0.0, 1e-300], 0));
        d.push(TimeSeries::with_label(vec![1.5, 2.5, -3.5], 1));
        let comma = parse_ucr(&to_ucr_string(&d).unwrap(), "toy").unwrap();
        let tab = parse_ucr(&to_ucr_string_with(&d, UcrSeparator::Tab).unwrap(), "toy").unwrap();
        assert_eq!(comma, tab);
    }

    #[test]
    fn roundtrip_through_file() {
        let dir = std::env::temp_dir().join("tsg_ts_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy_TRAIN.txt");
        let content = "1,0.5,0.625,0.75\n2,1.5,1.25,1.125\n";
        let d = parse_ucr(content, "toy").unwrap();
        write_ucr_file(&d, &path).unwrap();
        let d2 = read_ucr_file(&path).unwrap();
        assert_eq!(d.series(), d2.series());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unlabeled_and_nonfinite_series_cannot_serialize() {
        let mut d = Dataset::new("toy");
        d.push(TimeSeries::new(vec![1.0, 2.0]));
        assert!(to_ucr_string(&d).is_err());
        let mut d = Dataset::new("toy");
        d.push(TimeSeries::with_label(vec![1.0, f64::NAN], 0));
        assert!(to_ucr_string(&d).is_err());
        let mut d = Dataset::new("toy");
        d.push(TimeSeries::with_label(vec![f64::INFINITY], 0));
        assert!(to_ucr_string(&d).is_err());
        let mut d = Dataset::new("toy");
        d.push(TimeSeries::with_label(Vec::new(), 0));
        assert!(to_ucr_string(&d).is_err());
    }

    #[test]
    fn incremental_parser_matches_eager_parse() {
        let content = "1,0.5,0.6,NaN\n\n2,1.0,1.1,1.2\n-3,0.4,0.5,NaN\n";
        let eager = parse_ucr(content, "toy").unwrap();
        let mut parser = UcrRecordParser::new();
        let mut streamed = Vec::new();
        for (i, line) in content.lines().enumerate() {
            if let Some(series) = parser.parse_line(i + 1, line).unwrap() {
                streamed.push(series);
            }
        }
        parser.finish().unwrap();
        assert_eq!(streamed.len(), 3);
        assert_eq!(eager.series(), streamed.as_slice());
    }
}
