//! Deterministic parameter-grid sweeps.
//!
//! The right-hand plots of the paper's Figs 5–6 show "the error in the most
//! dominant pole as a function of M5 and M6 metal line widths (within -30%
//! to 30% of their nominal values)" — a 2-D grid sweep with the remaining
//! parameters pinned.
//!
//! # Example
//!
//! ```
//! use pmor_variation::sweep::{linspace, Sweep2d};
//!
//! // M5 × M6 over ±30%, 3 points per axis, M7 pinned at nominal.
//! let sweep = Sweep2d {
//!     param_a: 0,
//!     param_b: 1,
//!     values_a: linspace(-0.3, 0.3, 3),
//!     values_b: linspace(-0.3, 0.3, 3),
//!     base: vec![0.0; 3],
//! };
//! let points = sweep.points();
//! assert_eq!(points.len(), 9);
//! assert!(points.iter().all(|(_, _, p)| p[2] == 0.0));
//! ```
//!
//! The registry's `corner_sweep` analysis evaluates such a grid against
//! the full model.

/// Logarithmically spaced values over `[lo, hi]`, inclusive (`lo > 0`).
///
/// # Panics
///
/// Panics unless `0 < lo < hi`.
pub fn logspace(lo: f64, hi: f64, count: usize) -> Vec<f64> {
    assert!(lo > 0.0 && hi > lo, "logspace: bad range");
    if count == 0 {
        return Vec::new();
    }
    if count == 1 {
        return vec![lo];
    }
    let (l0, l1) = (lo.log10(), hi.log10());
    (0..count)
        .map(|i| 10f64.powf(l0 + (l1 - l0) * i as f64 / (count - 1) as f64))
        .collect()
}

/// Evenly spaced values over `[lo, hi]`, inclusive.
pub fn linspace(lo: f64, hi: f64, count: usize) -> Vec<f64> {
    if count == 0 {
        return Vec::new();
    }
    if count == 1 {
        return vec![0.5 * (lo + hi)];
    }
    (0..count)
        .map(|i| lo + (hi - lo) * i as f64 / (count - 1) as f64)
        .collect()
}

/// A 2-D sweep over two selected parameters with the rest held at `base`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep2d {
    /// Index of the first swept parameter (rows of the result).
    pub param_a: usize,
    /// Index of the second swept parameter (columns of the result).
    pub param_b: usize,
    /// Values taken by parameter `a`.
    pub values_a: Vec<f64>,
    /// Values taken by parameter `b`.
    pub values_b: Vec<f64>,
    /// Baseline values for all parameters (swept entries are overwritten).
    pub base: Vec<f64>,
}

impl Sweep2d {
    /// All grid points in row-major order with their `(ia, ib)` indices.
    pub fn points(&self) -> Vec<(usize, usize, Vec<f64>)> {
        let mut out = Vec::with_capacity(self.values_a.len() * self.values_b.len());
        for (ia, &va) in self.values_a.iter().enumerate() {
            for (ib, &vb) in self.values_b.iter().enumerate() {
                let mut p = self.base.clone();
                p[self.param_a] = va;
                p[self.param_b] = vb;
                out.push((ia, ib, p));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{Analysis, CornerSweepAnalysis, ErrorMetric};
    use pmor::eval::FullModel;
    use pmor::EvalEngine;
    use pmor_circuits::generators::{clock_tree, ClockTreeConfig};

    #[test]
    fn linspace_endpoints() {
        let v = linspace(-0.3, 0.3, 5);
        assert_eq!(v.len(), 5);
        assert!((v[0] + 0.3).abs() < 1e-15);
        assert!((v[4] - 0.3).abs() < 1e-15);
        assert!(v[2].abs() < 1e-15);
        assert_eq!(linspace(0.0, 1.0, 1), vec![0.5]);
        assert!(linspace(0.0, 1.0, 0).is_empty());
    }

    #[test]
    fn logspace_endpoints_and_monotone() {
        let f = logspace(1e7, 1e10, 31);
        assert_eq!(f.len(), 31);
        assert!((f[0] - 1e7).abs() < 1.0 && (f[30] - 1e10).abs() < 1e4);
        assert!(f.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn points_cover_grid_and_pin_base() {
        let sweep = Sweep2d {
            param_a: 0,
            param_b: 2,
            values_a: vec![-0.1, 0.1],
            values_b: vec![0.0, 0.2],
            base: vec![9.0, 7.0, 9.0],
        };
        let pts = sweep.points();
        assert_eq!(pts.len(), 4);
        for (_, _, p) in &pts {
            assert_eq!(p[1], 7.0); // untouched parameter keeps base value
        }
        assert!(pts.iter().any(|(_, _, p)| p[0] == -0.1 && p[2] == 0.2));
    }

    #[test]
    fn pole_error_grid_small_for_lowrank_rom() {
        let sys = clock_tree(&ClockTreeConfig {
            num_nodes: 30,
            ..Default::default()
        })
        .assemble();
        let rom = pmor::reducer_by_name("lowrank", &sys)
            .unwrap()
            .reduce_once(&sys)
            .unwrap();
        // The paper's ±30 % M5 × M6 sweep.
        let sweep = CornerSweepAnalysis {
            param_a: 0,
            param_b: 1,
            lo: -0.3,
            hi: 0.3,
            points_per_axis: 3,
            metric: ErrorMetric::Poles { num_poles: 1 },
        };
        let report = sweep
            .run(&EvalEngine::default(), Some(&FullModel::new(&sys)), &rom)
            .unwrap();
        let grid = &report.grid.as_ref().unwrap().values;
        assert_eq!(grid.len(), 3);
        for row in grid {
            assert_eq!(row.len(), 3);
            for &err in row {
                assert!(err < 1.0, "dominant pole error {err}% too large");
            }
        }
    }
}
