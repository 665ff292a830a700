//! ASCII-table and CSV rendering for experiment output.

use std::fmt;
use std::io::{self, Write};
use std::path::Path;

/// A rendered experiment result: title, header row, data rows.
///
/// # Examples
///
/// ```
/// use iroram_experiments::Table;
/// let mut t = Table::new("demo", ["bench", "speedup"]);
/// t.row(["gcc", "1.42"]);
/// let text = t.to_string();
/// assert!(text.contains("gcc"));
/// assert!(t.to_csv().starts_with("bench,speedup"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Table title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (each the same length as `headers`).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(title: &str, headers: I) -> Self {
        Table {
            title: title.to_owned(),
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(row);
    }

    /// Renders as CSV (headers + rows; commas in cells are replaced).
    pub fn to_csv(&self) -> String {
        let clean = |s: &str| s.replace(',', ";");
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| clean(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for r in &self.rows {
            out.push_str(&r.iter().map(|c| clean(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Writes the CSV next to stdout output (used by the `all` harness).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_csv().as_bytes())
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ncol = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let sep: String = widths
            .iter()
            .map(|w| format!("+{}", "-".repeat(w + 2)))
            .collect::<String>()
            + "+";
        writeln!(f, "# {}", self.title)?;
        writeln!(f, "{sep}")?;
        let render_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for i in 0..ncol {
                write!(f, "| {:width$} ", cells[i], width = widths[i])?;
            }
            writeln!(f, "|")
        };
        render_row(f, &self.headers)?;
        writeln!(f, "{sep}")?;
        for r in &self.rows {
            render_row(f, r)?;
        }
        writeln!(f, "{sep}")
    }
}

/// Formats a float with `prec` decimals.
pub fn fmt_f(x: f64, prec: usize) -> String {
    format!("{x:.prec$}")
}

/// Formats a ratio as a percentage.
pub fn fmt_pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = Table::new("title", ["a", "bench"]);
        t.row(["1", "x"]);
        t.row(["22", "yy"]);
        let s = t.to_string();
        assert!(s.contains("# title"));
        assert!(s.lines().count() >= 6);
        // All data lines have equal width.
        let widths: std::collections::HashSet<usize> = s.lines().skip(1).map(str::len).collect();
        assert_eq!(widths.len(), 1, "all lines aligned: {s}");
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new("t", ["a,b"]);
        t.row(["1,2"]);
        let csv = t.to_csv();
        assert_eq!(csv, "a;b\n1;2\n");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new("t", ["a", "b"]);
        t.row(["only one"]);
    }

    #[test]
    fn float_helpers() {
        assert_eq!(fmt_f(1.23456, 2), "1.23");
        assert_eq!(fmt_pct(0.4219), "42.2%");
    }
}
