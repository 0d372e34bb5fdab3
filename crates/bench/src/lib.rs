#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Shared harness utilities for the experiment binaries that regenerate the
//! paper's figures and tables.
//!
//! Each binary prints (a) a CSV block that can be plotted externally,
//! (b) an ASCII rendering so the figure's *shape* is visible directly in
//! the terminal, and (c) a machine-readable `BENCH_<tag>.json` record
//! file (see [`report`]). Reduction methods are selected by registry name
//! (`pmor::reducer_by_name`) from the command line. See `DESIGN.md` for
//! the experiment index.

pub mod harness;
pub mod report;
pub mod suite;
pub mod toml;

pub use harness::{methods_from_args, reduce_all, ReducedMethod};
pub use report::{validate_bench_json, write_bench_json, write_bench_json_in, BenchRecord};
pub use suite::{BenchSuite, SuiteEntry, SuiteEntryKind};

use std::time::Instant;

/// Times a closure, returning its result and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Prints a CSV block: a header row then one row per x-value with one
/// column per series.
///
/// # Panics
///
/// Panics if a series length differs from `x.len()`.
pub fn print_csv(x_label: &str, x: &[f64], series: &[(&str, Vec<f64>)]) {
    print!("{}", format_csv(x_label, x, series));
}

/// [`print_csv`] into a string — for callers that buffer per-job output
/// (the CLI's concurrent analyses) before printing it in order.
///
/// # Panics
///
/// Panics if a series length differs from `x.len()`.
pub fn format_csv(x_label: &str, x: &[f64], series: &[(&str, Vec<f64>)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str(x_label);
    for (name, _) in series {
        let _ = write!(out, ",{name}");
    }
    out.push('\n');
    for (i, xv) in x.iter().enumerate() {
        let _ = write!(out, "{xv:.6e}");
        for (_, ys) in series {
            assert_eq!(ys.len(), x.len(), "series length mismatch");
            let _ = write!(out, ",{:.6e}", ys[i]);
        }
        out.push('\n');
    }
    out
}

/// Renders multiple series as an ASCII line chart (one glyph per series),
/// y linear, x by sample index (callers supply log-spaced x for log plots).
pub fn ascii_chart(title: &str, series: &[(&str, Vec<f64>)], height: usize, width: usize) {
    println!("--- {title} ---");
    let glyphs = ['*', 'o', '+', 'x', '#', '@'];
    let mut ymin = f64::INFINITY;
    let mut ymax = f64::NEG_INFINITY;
    for (_, ys) in series {
        for &y in ys {
            if y.is_finite() {
                ymin = ymin.min(y);
                ymax = ymax.max(y);
            }
        }
    }
    if !ymin.is_finite() || ymax <= ymin {
        ymax = ymin + 1.0;
    }
    let npts = series.first().map_or(0, |(_, ys)| ys.len());
    if npts == 0 {
        println!("(no data)");
        return;
    }
    let mut canvas = vec![vec![' '; width]; height];
    for (si, (_, ys)) in series.iter().enumerate() {
        let glyph = glyphs[si % glyphs.len()];
        for (i, &y) in ys.iter().enumerate() {
            if !y.is_finite() {
                continue;
            }
            let col = i * (width - 1) / npts.max(2).saturating_sub(1).max(1);
            let frac = (y - ymin) / (ymax - ymin);
            let row = height - 1 - ((frac * (height - 1) as f64).round() as usize).min(height - 1);
            if col < width {
                canvas[row][col] = glyph;
            }
        }
    }
    println!("y: {ymin:.3e} .. {ymax:.3e}");
    for row in canvas {
        let line: String = row.into_iter().collect();
        println!("|{line}|");
    }
    for (si, (name, _)) in series.iter().enumerate() {
        println!("  {} = {name}", glyphs[si % glyphs.len()]);
    }
}

/// Renders a 2-D grid (e.g. pole error vs two parameters) as ASCII rows.
pub fn print_grid(title: &str, row_label: &str, rows: &[f64], cols: &[f64], grid: &[Vec<f64>]) {
    print!("{}", format_grid(title, row_label, rows, cols, grid));
}

/// [`print_grid`] into a string (see [`format_csv`] for why).
pub fn format_grid(
    title: &str,
    row_label: &str,
    rows: &[f64],
    cols: &[f64],
    grid: &[Vec<f64>],
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "--- {title} ---");
    let _ = write!(out, "{row_label:>10}");
    for c in cols {
        let _ = write!(out, " {c:>9.2}");
    }
    out.push('\n');
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(out, "{r:>10.2}");
        for v in &grid[i] {
            let _ = write!(out, " {v:>9.4}");
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmor_variation::sweep::{linspace, logspace};

    #[test]
    fn timed_returns_value() {
        let (v, dt) = timed(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(dt >= 0.0);
    }

    // The figure binaries' frequency and parameter grids come from
    // pmor_variation::sweep.
    #[test]
    fn logspace_endpoints_and_monotone() {
        let f = logspace(1e7, 1e10, 31);
        assert_eq!(f.len(), 31);
        assert!((f[0] - 1e7).abs() < 1.0);
        assert!((f[30] - 1e10).abs() < 1e4);
        for w in f.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn linspace_midpoint_for_single() {
        assert_eq!(linspace(0.0, 2.0, 1), vec![1.0]);
        assert_eq!(linspace(0.0, 1.0, 3), vec![0.0, 0.5, 1.0]);
    }
}
