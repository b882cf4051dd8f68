//! Output helpers: aligned console tables and CSV files.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

/// Set when any CSV emission fails, so `main` can exit non-zero after
/// printing every figure instead of silently losing files.
static CSV_FAILED: AtomicBool = AtomicBool::new(false);

/// Writes `table` as `dir/name.csv`, reporting the outcome. A failed
/// write (read-only `--out`, full disk) is printed to stderr and
/// remembered — it must fail the run, not vanish into a discarded
/// `Result`.
pub fn emit_csv(table: &Table, dir: &Path, name: &str) {
    match table.write_csv(dir, name) {
        Ok(path) => eprintln!("  wrote {}", path.display()),
        Err(e) => {
            eprintln!("error: writing {}/{name}.csv failed: {e}", dir.display());
            CSV_FAILED.store(true, Ordering::Relaxed);
        }
    }
}

/// Whether any [`emit_csv`] call failed so far.
pub fn csv_errors() -> bool {
    CSV_FAILED.load(Ordering::Relaxed)
}

/// Formats an optional probability as a percentage cell.
pub fn pct(p: Option<f64>) -> String {
    match p {
        Some(v) => format!("{:6.2}%", v * 100.0),
        None => "     --".to_string(),
    }
}

/// A console table with aligned columns.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (padded or truncated to the header width).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let mut cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        cells.resize(self.header.len(), String::new());
        self.rows.push(cells);
    }

    /// Renders the table to stdout.
    pub fn print(&self) {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let cols: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            println!("  {}", cols.join("  "));
        };
        line(&self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        println!("  {}", "-".repeat(total));
        for row in &self.rows {
            line(row);
        }
    }

    /// Writes the table as CSV into `dir/name.csv`.
    fn write_csv(&self, dir: &Path, name: &str) -> std::io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.csv"));
        let mut f = fs::File::create(&path)?;
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.trim().to_string()
            }
        };
        writeln!(
            f,
            "{}",
            self.header
                .iter()
                .map(|s| esc(s))
                .collect::<Vec<_>>()
                .join(",")
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "{}",
                row.iter().map(|s| esc(s)).collect::<Vec<_>>().join(",")
            )?;
        }
        Ok(path)
    }
}

/// Prints a figure banner.
pub fn banner(title: &str) {
    println!();
    println!("== {title} ==");
}
