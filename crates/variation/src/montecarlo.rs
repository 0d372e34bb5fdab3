//! Monte-Carlo sampling of process-variation parameters.
//!
//! The paper's §5.3 protocol draws parameter instances from per-parameter
//! distributions and compares full and reduced models at each of them.
//! [`MonteCarlo`] owns the drawing half: a seeded, deterministic list of
//! sample points. The comparison half is the registry's `montecarlo`,
//! `yield` and `transient` analyses ([`crate::analysis`]), which evaluate
//! those points on a batched `EvalEngine` and stitch results back in
//! sample order, so any thread count gives the identical report.
//!
//! # Example
//!
//! ```
//! use pmor_variation::MonteCarlo;
//!
//! // The paper's ±30% (3σ) metal-width protocol over 3 parameters.
//! let mc = MonteCarlo::paper_protocol(3, 5);
//! let points = mc.sample_points();
//! assert_eq!(points.len(), 5);
//! assert!(points.iter().flatten().all(|x| x.abs() <= 0.3));
//! assert_eq!(points, mc.sample_points()); // deterministic in the seed
//! ```

use crate::dist::ParameterDistribution;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Monte-Carlo configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarlo {
    /// One distribution per variational parameter.
    pub distributions: Vec<ParameterDistribution>,
    /// Number of sampled circuit instances.
    pub instances: usize,
    /// RNG seed.
    pub seed: u64,
}

impl MonteCarlo {
    /// The paper's metal-width protocol over `np` parameters: ±30 % at 3σ.
    pub fn paper_protocol(np: usize, instances: usize) -> Self {
        MonteCarlo {
            distributions: vec![ParameterDistribution::paper_metal_width(); np],
            instances,
            seed: 0x3C0,
        }
    }

    /// Draws the deterministic sample-point list.
    pub fn sample_points(&self) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..self.instances)
            .map(|_| {
                self.distributions
                    .iter()
                    .map(|d| d.sample(&mut rng))
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{Analysis, AnalysisReport, ErrorMetric, MonteCarloAnalysis};
    use pmor::eval::FullModel;
    use pmor::lowrank::{LowRankOptions, LowRankPmor};
    use pmor::{EvalEngine, ParametricRom, Reducer};
    use pmor_circuits::generators::{clock_tree, ClockTreeConfig};
    use pmor_circuits::ParametricSystem;

    fn tree(n: usize) -> ParametricSystem {
        clock_tree(&ClockTreeConfig {
            num_nodes: n,
            ..Default::default()
        })
        .assemble()
    }

    /// Runs the registry's Monte-Carlo analysis on the paper protocol's
    /// sample points (±30 % at 3σ, seed 0x3C0).
    fn paper_mc(
        sys: &ParametricSystem,
        rom: &ParametricRom,
        instances: usize,
        metric: ErrorMetric,
        threads: usize,
    ) -> AnalysisReport {
        let analysis = MonteCarloAnalysis {
            instances,
            sigma: 0.1,
            seed: 0x3C0,
            metric,
        };
        analysis
            .run(&EvalEngine::new(threads), Some(&FullModel::new(sys)), rom)
            .unwrap()
    }

    #[test]
    fn sample_points_deterministic_and_bounded() {
        let mc = MonteCarlo::paper_protocol(3, 50);
        let a = mc.sample_points();
        let b = mc.sample_points();
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        for p in &a {
            assert_eq!(p.len(), 3);
            assert!(p.iter().all(|x| x.abs() <= 0.3));
        }
    }

    #[test]
    fn lowrank_rom_pole_errors_are_small() {
        let sys = tree(40);
        let rom = LowRankPmor::new(LowRankOptions {
            s_order: 8,
            param_order: 3,
            rank: 2,
            ..Default::default()
        })
        .reduce_once(&sys)
        .unwrap();
        let report = paper_mc(&sys, &rom, 10, ErrorMetric::Poles { num_poles: 5 }, 2);
        assert_eq!(report.metric_value("instances"), Some(10.0));
        // The paper reports sub-percent dominant-pole errors.
        let max = report.metric_value("max_pole_err_percent").unwrap();
        assert!(max < 1.0, "max pole error {max}%");
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let sys = tree(30);
        let rom = LowRankPmor::with_defaults().reduce_once(&sys).unwrap();
        let poles = ErrorMetric::Poles { num_poles: 3 };
        let serial = paper_mc(&sys, &rom, 9, poles.clone(), 1);
        // More workers than instances is fine too.
        for threads in [4, 64] {
            let parallel = paper_mc(&sys, &rom, 9, poles.clone(), threads);
            for (name, value) in &serial.metrics {
                if name == "threads" || name == "analysis_seconds" {
                    continue;
                }
                assert_eq!(
                    value.to_bits(),
                    parallel.metric_value(name).unwrap().to_bits(),
                    "{name} differs at {threads} threads"
                );
            }
            assert_eq!(serial.csv, parallel.csv);
        }
    }

    #[test]
    fn report_histogram_covers_all_errors() {
        let sys = tree(30);
        let rom = LowRankPmor::with_defaults().reduce_once(&sys).unwrap();
        let report = paper_mc(&sys, &rom, 8, ErrorMetric::Poles { num_poles: 3 }, 2);
        let csv = report.csv.as_ref().unwrap();
        assert_eq!(csv.x.len(), crate::analysis::POLE_HISTOGRAM_BINS);
        let total: f64 = csv.series[1].1.iter().sum();
        assert_eq!(total, (8 * 3) as f64);
    }

    #[test]
    fn transfer_errors_bounded() {
        let sys = tree(30);
        let rom = LowRankPmor::with_defaults().reduce_once(&sys).unwrap();
        let metric = ErrorMetric::Transfer {
            freqs_hz: vec![1e7, 1e8, 1e9],
        };
        let report = paper_mc(&sys, &rom, 5, metric, 2);
        let worst = report.metric_value("worst_rel_transfer_err").unwrap();
        assert!(worst < 0.01, "worst relative transfer error {worst}");
    }
}
