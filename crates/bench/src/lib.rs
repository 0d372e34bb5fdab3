#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! The benchmark-suite schema and the BENCH record format behind `pmor
//! run` and `pmor bench`.
//!
//! [`suite`] parses the declarative TOML suites (with the workspace's
//! [`toml`] reader), [`report`] writes and validates `BENCH_<tag>.json`
//! records, and the helpers below time a step ([`timed`]) and format the
//! CSV blocks and 2-D grids scenario runs print. The crate also hosts the
//! workspace-level tests (among them `tests/paper_claims.rs`, the
//! paper's figure and table claims as checked contracts) and examples.

pub mod report;
pub mod suite;
pub mod toml;

pub use report::{validate_bench_json, write_bench_json_in, BenchRecord};

use std::time::Instant;

/// Times a closure, returning its result and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// A CSV block: a header row then one row per x-value with one column
/// per series. Returned as a string for callers that buffer per-job
/// output (the CLI's concurrent analyses) before printing it in order.
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

/// A 2-D grid (e.g. pole error vs two parameters) as ASCII rows, as a
/// string (see [`format_csv`] for why).
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

    #[test]
    fn timed_returns_value() {
        let (v, dt) = timed(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(dt >= 0.0);
    }

    // The paper-claim tests build their parameter grids with
    // pmor_variation::sweep::linspace.
    #[test]
    fn linspace_midpoint_for_single() {
        use pmor_variation::sweep::linspace;
        assert_eq!(linspace(0.0, 2.0, 1), vec![1.0]);
        assert_eq!(linspace(0.0, 1.0, 3), vec![0.0, 0.5, 1.0]);
    }
}
