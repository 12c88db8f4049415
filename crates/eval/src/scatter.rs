//! Pairwise scatter comparisons (Figures 3, 4, 5, 8, 9).
//!
//! A [`ScatterComparison`] holds paired values of two methods across datasets
//! together with win/tie/loss counts, can serialise itself to CSV/JSON for
//! external plotting and renders a coarse ASCII scatter plot for terminal
//! inspection.

/// Win / tie / loss counts of method Y against method X.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WinLoss {
    /// Datasets where Y has the strictly smaller value (wins, for error rates).
    pub wins: usize,
    /// Datasets where the values are equal.
    pub ties: usize,
    /// Datasets where Y has the strictly larger value.
    pub losses: usize,
}

/// A paired comparison of two methods over a set of named datasets.
#[derive(Debug, Clone, PartialEq)]
pub struct ScatterComparison {
    /// Label of the x-axis method.
    pub x_label: String,
    /// Label of the y-axis method.
    pub y_label: String,
    /// Dataset names.
    pub datasets: Vec<String>,
    /// Values of the x-axis method (e.g. error rates).
    pub x: Vec<f64>,
    /// Values of the y-axis method.
    pub y: Vec<f64>,
}

impl ScatterComparison {
    /// Creates a comparison from parallel vectors.
    pub fn new(
        x_label: impl Into<String>,
        y_label: impl Into<String>,
        datasets: Vec<String>,
        x: Vec<f64>,
        y: Vec<f64>,
    ) -> Self {
        assert_eq!(x.len(), y.len(), "paired values must align");
        assert_eq!(x.len(), datasets.len(), "dataset names must align");
        ScatterComparison {
            x_label: x_label.into(),
            y_label: y_label.into(),
            datasets,
            x,
            y,
        }
    }

    /// Win/tie/loss counts of the y-axis method (smaller is better, as for
    /// error rates and runtimes).
    pub fn win_loss(&self) -> WinLoss {
        let mut out = WinLoss::default();
        for (x, y) in self.x.iter().zip(self.y.iter()) {
            if (x - y).abs() < 1e-12 {
                out.ties += 1;
            } else if y < x {
                out.wins += 1;
            } else {
                out.losses += 1;
            }
        }
        out
    }

    /// CSV serialisation (`dataset,x,y` with a header row).
    pub fn to_csv(&self) -> String {
        let mut out = format!("dataset,{},{}\n", self.x_label, self.y_label);
        for ((name, x), y) in self.datasets.iter().zip(self.x.iter()).zip(self.y.iter()) {
            out.push_str(&format!("{name},{x},{y}\n"));
        }
        out
    }

    /// A coarse ASCII scatter plot (square, `size × size` characters) with
    /// the diagonal marked; points below the diagonal are wins for the
    /// y-axis method when smaller values are better.
    pub fn render_ascii(&self, size: usize) -> String {
        let size = size.max(8);
        let max = self
            .x
            .iter()
            .chain(self.y.iter())
            .cloned()
            .fold(f64::MIN, f64::max)
            .max(1e-12);
        let mut grid = vec![vec![' '; size]; size];
        for (i, row) in grid.iter_mut().enumerate() {
            // diagonal: x == y
            row[i] = '.';
        }
        for (x, y) in self.x.iter().zip(self.y.iter()) {
            let col = ((x / max) * (size - 1) as f64).round() as usize;
            let row = ((y / max) * (size - 1) as f64).round() as usize;
            // plot with y increasing upwards
            grid[size - 1 - row][col] = 'o';
        }
        let mut out = format!(
            "{} (x) vs {} (y); points below the diagonal favour {}\n",
            self.x_label, self.y_label, self.y_label
        );
        for row in grid {
            out.push('|');
            out.extend(row);
            out.push('\n');
        }
        out.push_str(&format!("max = {max:.3}\n"));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comparison() -> ScatterComparison {
        ScatterComparison::new(
            "A",
            "B",
            vec!["d1".into(), "d2".into(), "d3".into(), "d4".into()],
            vec![0.30, 0.20, 0.10, 0.25],
            vec![0.10, 0.20, 0.30, 0.20],
        )
    }

    #[test]
    fn win_loss_counts() {
        let wl = comparison().win_loss();
        assert_eq!(wl.wins, 2);
        assert_eq!(wl.ties, 1);
        assert_eq!(wl.losses, 1);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = comparison().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[0], "dataset,A,B");
        assert!(lines[1].starts_with("d1,"));
    }

    #[test]
    fn ascii_render_contains_points() {
        let plot = comparison().render_ascii(16);
        assert!(plot.contains('o'));
        assert!(plot.contains("A (x) vs B (y)"));
        assert!(plot.lines().count() >= 16);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        ScatterComparison::new("A", "B", vec!["d".into()], vec![0.1, 0.2], vec![0.1]);
    }
}
