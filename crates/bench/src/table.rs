//! Plain-text table rendering and number formatting for the experiments.

/// A simple aligned text table.
#[derive(Debug, Clone, Default)]
pub(crate) struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub(crate) fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; short rows are padded with empty cells.
    pub(crate) fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Renders the table with aligned columns.
    pub(crate) fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                // Left-align the first column, right-align the rest.
                if i == 0 {
                    line.push_str(&format!("{:<w$}", cell, w = widths[i]));
                } else {
                    line.push_str(&format!("{:>w$}", cell, w = widths[i]));
                }
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a ratio like `2.9x`.
pub(crate) fn fmt_x(v: f64) -> String {
    format!("{v:.2}x")
}

/// Formats a fraction as a percentage.
pub(crate) fn fmt_pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Formats nanoseconds as milliseconds with three decimals.
pub(crate) fn fmt_ms(ns: f64) -> String {
    format!("{:.3}", ns / 1e6)
}

/// Formats an accuracy score with three decimals.
pub(crate) fn fmt_score(v: f64) -> String {
    format!("{v:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["video", "iou"]);
        t.row(vec!["cows", "0.93"]);
        t.row(vec!["parkour-long-name", "0.88"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("video"));
        assert!(lines[1].starts_with("---"));
        assert!(lines[3].starts_with("parkour-long-name"));
        // Right-aligned numeric column.
        assert!(lines[2].ends_with("0.93"));
    }

    #[test]
    fn pads_short_rows() {
        let mut t = Table::new(vec!["a", "b", "c"]);
        t.row(vec!["x"]);
        assert!(t.render().lines().count() == 3);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_x(2.899), "2.90x");
        assert_eq!(fmt_pct(0.651), "65.1%");
        assert_eq!(fmt_ms(1_234_567.0), "1.235");
        assert_eq!(fmt_score(0.9157), "0.916");
    }
}
