//! Plain-text / Markdown result tables for the experiment binaries.

/// A simple column-aligned table builder.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (short rows are padded with empty cells, long rows are
    /// truncated to the header width).
    pub fn add_row(&mut self, cells: Vec<String>) -> &mut Self {
        let mut cells = cells;
        cells.resize(self.header.len(), String::new());
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Renders the table with whitespace-aligned columns for terminals.
    pub fn to_aligned(&self) -> String {
        let n_cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (j, cell) in row.iter().enumerate().take(n_cols) {
                widths[j] = widths[j].max(cell.len());
            }
        }
        let render_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(j, c)| format!("{:width$}", c, width = widths[j]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = render_row(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (n_cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row));
            out.push('\n');
        }
        out
    }

    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = self.header.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// Formats an error rate / probability with three decimals (the paper's
/// table precision).
pub fn fmt3(value: f64) -> String {
    format!("{value:.3}")
}

/// Formats a 64-bit content hash as fixed-width lowercase hex — the
/// rendering used for dataset provenance columns (file fingerprints) in
/// experiment tables and artefacts.
pub fn fmt_hash(hash: u64) -> String {
    format!("{hash:016x}")
}

/// [`fmt_hash`] for optional hashes; `None` renders as `-` so provenance
/// columns stay aligned for synthetic (hash-less) datasets.
pub fn fmt_hash_opt(hash: Option<u64>) -> String {
    hash.map(fmt_hash).unwrap_or_else(|| "-".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let mut t = Table::new(&["Dataset", "1NN-ED", "MVG"]);
        t.add_row(vec!["ArrowHead".into(), fmt3(0.2), fmt3(0.398)]);
        t.add_row(vec!["BeetleFly".into(), fmt3(0.25), fmt3(0.18)]);
        t
    }

    #[test]
    fn aligned_rendering_pads_columns() {
        let txt = table().to_aligned();
        let lines: Vec<&str> = txt.lines().collect();
        assert!(lines[0].starts_with("Dataset"));
        assert!(lines[2].starts_with("ArrowHead"));
    }

    #[test]
    fn hash_formatting_is_fixed_width_hex() {
        assert_eq!(fmt_hash(0), "0000000000000000");
        assert_eq!(fmt_hash(0xdeadbeef), "00000000deadbeef");
        assert_eq!(fmt_hash(u64::MAX), "ffffffffffffffff");
        assert_eq!(fmt_hash_opt(Some(1)), "0000000000000001");
        assert_eq!(fmt_hash_opt(None), "-");
    }

    #[test]
    fn csv_rendering_and_row_padding() {
        let mut t = Table::new(&["a", "b"]);
        t.add_row(vec!["1".into()]);
        t.add_row(vec!["1".into(), "2".into(), "3".into()]);
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert_eq!(t.n_rows(), 2);
        assert!(csv.lines().nth(1).unwrap().starts_with("1,"));
    }
}
