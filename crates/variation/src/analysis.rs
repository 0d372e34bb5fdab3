//! First-class analyses: the [`Analysis`] trait, the [`AnalysisKind`]
//! registry, and the five built-in analyses — symmetric to the reduction
//! side's `Reducer`/`ReducerKind` design.
//!
//! Every analysis is written once against a reduced [`TransferModel`],
//! an optional full-order reference, and one [`EvalEngine`], so parallel,
//! workspace-reusing, deterministic evaluation comes for free and front
//! ends (`pmor run` on a scenario, `pmor eval`/`pmor mc` on a persisted
//! ROM, library users) dispatch by registry name instead of matching over
//! kinds. `yield` never reads the full model, and `frequency_sweep`
//! compares against it exactly when one is given. The other three
//! compare the two models and refuse to run without the reference:
//!
//! | name | analysis | full model | reports |
//! |---|---|---|---|
//! | `frequency_sweep` | [`FrequencySweepAnalysis`] | optional | `H(f)`, + error vs full when given |
//! | `montecarlo` | [`MonteCarloAnalysis`] | required | pole/transfer error distribution |
//! | `corner_sweep` | [`CornerSweepAnalysis`] | required | 2-D error grid over two parameters |
//! | `yield` | [`YieldAnalysis`] | unused | `\|λ₁\|` distribution and spec yield at ROM cost |
//! | `transient` | [`TransientAnalysis`] | required | 50 % delay / overshoot error distribution |
//!
//! Each [`AnalysisReport`] is stamped with provenance — model kinds and
//! dimensions, evaluation point count, worker count, wall time — so any
//! number a `BENCH_*.json` record carries can be audited.
//!
//! # Example
//!
//! ```
//! use pmor::eval::FullModel;
//! use pmor::{EvalEngine, Reducer};
//! use pmor_circuits::generators::{clock_tree, ClockTreeConfig};
//! use pmor_variation::analysis::{AnalysisConfig, AnalysisKind};
//!
//! # fn main() -> Result<(), pmor::PmorError> {
//! let sys = clock_tree(&ClockTreeConfig { num_nodes: 30, ..Default::default() }).assemble();
//! let rom = pmor::reducer_by_name("lowrank", &sys).unwrap().reduce_once(&sys)?;
//! let analysis = AnalysisKind::MonteCarlo.build(&AnalysisConfig {
//!     instances: Some(5),
//!     ..Default::default()
//! })?;
//! let report = analysis.run(&EvalEngine::serial(), Some(&FullModel::new(&sys)), &rom)?;
//! assert_eq!(report.analysis, "montecarlo");
//! assert!(report.metric_value("max_pole_err_percent").unwrap() < 1.0);
//! # Ok(())
//! # }
//! ```

use crate::dist::ParameterDistribution;
use crate::montecarlo::MonteCarlo;
use crate::stats::{histogram, Summary};
use crate::sweep::{linspace, Sweep2d};
use pmor::eval::pole_errors;
use pmor::transient::{IntegrationMethod, Stimulus, TransientOptions};
use pmor::{EvalEngine, EvalPoint, EvalWorkspace, PmorError, Result, TransferModel};
use pmor_num::Complex64;
use std::time::Instant; // pmor-lint: allow(det-wallclock) reason="wall-clock here is measurement output (elapsed/speedup report metadata), never an input to numerics"

/// What an analysis compares between the two models at each point.
#[derive(Debug, Clone, PartialEq)]
pub enum ErrorMetric {
    /// Relative errors of the most dominant poles (dense full-model
    /// eigensolves — affordable for the paper's net sizes).
    Poles {
        /// Number of dominant poles tracked.
        num_poles: usize,
    },
    /// Worst relative transfer-function error over a frequency list
    /// (sparse full-model solves — scales to larger nets, and the only
    /// robust choice for RLC pencils).
    Transfer {
        /// Frequencies evaluated, Hz.
        freqs_hz: Vec<f64>,
    },
}

/// A CSV-shaped result block: one x column plus named series.
#[derive(Debug, Clone, PartialEq)]
pub struct CsvBlock {
    /// Label of the x column.
    pub x_label: String,
    /// The x values.
    pub x: Vec<f64>,
    /// Named y series, each as long as `x`.
    pub series: Vec<(String, Vec<f64>)>,
}

/// A 2-D grid result block (corner sweeps).
#[derive(Debug, Clone, PartialEq)]
pub struct GridBlock {
    /// What the grid values are.
    pub title: String,
    /// Row coordinate values.
    pub row_values: Vec<f64>,
    /// Column coordinate values.
    pub col_values: Vec<f64>,
    /// `values[row][col]`.
    pub values: Vec<Vec<f64>>,
}

/// What one [`Analysis::run`] produced: named scalar metrics (the
/// `BENCH_*.json` payload), human-readable summary lines, optional
/// CSV/grid blocks, and the provenance stamp auditing every number.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisReport {
    /// Registry name of the analysis that produced this.
    pub analysis: String,
    /// Named scalar metrics, in emission order.
    pub metrics: Vec<(String, f64)>,
    /// Human-readable summary lines (no leading `#`; front ends add
    /// their own comment markers and method labels).
    pub lines: Vec<String>,
    /// Optional CSV block (frequency sweeps).
    pub csv: Option<CsvBlock>,
    /// Optional grid block (corner sweeps).
    pub grid: Option<GridBlock>,
    /// One-line provenance: model kinds/dims, point count, workers,
    /// wall time.
    pub provenance: String,
}

impl AnalysisReport {
    fn new(analysis: &str) -> Self {
        AnalysisReport {
            analysis: analysis.to_string(),
            metrics: Vec::new(),
            lines: Vec::new(),
            csv: None,
            grid: None,
            provenance: String::new(),
        }
    }

    /// Adds one named metric (builder-style).
    #[must_use]
    pub fn metric(mut self, name: impl Into<String>, value: f64) -> Self {
        self.metrics.push((name.into(), value));
        self
    }

    /// Looks up a metric by name.
    pub fn metric_value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Stamps the provenance line and the audit metrics (`eval_points`,
    /// `threads`, `analysis_seconds`, `full_dim`, `rom_dim`) every
    /// emitted record carries. `full_dim` is the order the ROM was
    /// reduced from, so a run without the full model reports it too.
    /// `points` counts transfer/pole evaluations; `mapped_items` is the
    /// number of work items the engine actually chunked (instances, grid
    /// corners, sweep points), which is what bounds the effective worker
    /// count.
    fn stamp(
        mut self,
        engine: &EvalEngine,
        full: Option<&dyn TransferModel>,
        rom: &dyn TransferModel,
        points: usize,
        mapped_items: usize,
        seconds: f64,
    ) -> Self {
        let workers = engine.worker_count(mapped_items);
        let reference = full.map_or_else(String::new, |f| format!("{}({}) vs ", f.kind(), f.dim()));
        self.provenance = format!(
            "{reference}{}({}): {points} evaluation points on {workers} thread{} in {seconds:.3}s",
            rom.kind(),
            rom.dim(),
            if workers == 1 { "" } else { "s" },
        );
        self.metrics.push(("eval_points".into(), points as f64));
        self.metrics.push(("threads".into(), workers as f64));
        self.metrics.push(("analysis_seconds".into(), seconds));
        self.metrics
            .push(("full_dim".into(), rom.full_dim() as f64));
        self.metrics.push(("rom_dim".into(), rom.dim() as f64));
        self
    }
}

/// A variation analysis of a reduced model, optionally against the full
/// reference, through the [`TransferModel`] trait on a shared engine.
///
/// An analysis is plain configuration data, so one built analysis can be
/// shared by concurrent runs (`Send + Sync`).
pub trait Analysis: Send + Sync {
    /// The registry name of this analysis (see [`AnalysisKind`]).
    fn name(&self) -> &'static str;

    /// Runs the analysis on `rom`, and on `full` where the analysis
    /// compares the two, evaluating through `engine`. The parameter count
    /// is the ROM's.
    ///
    /// # Errors
    ///
    /// Fails when the configuration is invalid for the models (parameter
    /// counts, indices), when an analysis that compares the models gets
    /// no full model, or when an evaluation point is singular.
    fn run(
        &self,
        engine: &EvalEngine,
        full: Option<&dyn TransferModel>,
        rom: &dyn TransferModel,
    ) -> Result<AnalysisReport>;
}

fn invalid(msg: impl Into<String>) -> PmorError {
    PmorError::Invalid(msg.into())
}

/// The full model an analysis that compares the two models needs, or
/// the typed refusal naming that analysis.
fn require_full<'a>(
    full: Option<&'a dyn TransferModel>,
    analysis: &str,
) -> Result<&'a dyn TransferModel> {
    full.ok_or_else(|| {
        invalid(format!(
            "the {analysis} analysis compares against the full model, and none was given"
        ))
    })
}

/// The default values [`AnalysisKind::build`] uses for unset
/// [`AnalysisConfig`] fields — named constants so partial configs fall
/// back to exactly the registry's values.
pub mod analysis_defaults {
    /// Sweep start frequency, Hz.
    pub const F_MIN_HZ: f64 = 1e7;
    /// Sweep end frequency, Hz.
    pub const F_MAX_HZ: f64 = 1e10;
    /// Log-spaced sweep points.
    pub const SWEEP_POINTS: usize = 31;
    /// Monte-Carlo instances.
    pub const MC_INSTANCES: usize = 100;
    /// Yield instances.
    pub const YIELD_INSTANCES: usize = 200;
    /// Per-parameter sigma of the ±3σ-truncated normal.
    pub const SIGMA: f64 = 0.1;
    /// RNG seed.
    pub const SEED: u64 = 0x3C0;
    /// Dominant poles tracked by the Monte-Carlo poles metric.
    pub const MC_NUM_POLES: usize = 3;
    /// Transfer-metric frequency list, Hz.
    pub const TRANSFER_FREQS_HZ: [f64; 3] = [1e8, 1e9, 5e9];
    /// Corner-sweep range lower bound.
    pub const CORNER_LO: f64 = -0.3;
    /// Corner-sweep range upper bound.
    pub const CORNER_HI: f64 = 0.3;
    /// Corner-sweep grid points per axis.
    pub const CORNER_POINTS_PER_AXIS: usize = 5;
    /// Relative yield threshold when no absolute one is given.
    pub const YIELD_MARGIN: f64 = 0.9;
    /// Transient Monte-Carlo instances.
    pub const TRANSIENT_INSTANCES: usize = 50;
    /// Uniform transient time steps.
    pub const TRANSIENT_STEPS: usize = 400;
    /// Auto time window: `t_stop = TRANSIENT_TAU_FACTOR / |λ₁|` of the
    /// reduced model's nominal dominant pole when `t_stop` is unset.
    pub const TRANSIENT_TAU_FACTOR: f64 = 8.0;
}

/// Optional knobs for [`AnalysisKind::build`] — the union of every
/// analysis's configuration, all optional; unset fields fall back to
/// [`analysis_defaults`]. Each knob only affects the analyses that read
/// it (mirroring [`pmor::ReducerTuning`] on the reduction side).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AnalysisConfig {
    /// Sampled instances (montecarlo, yield).
    pub instances: Option<usize>,
    /// Per-parameter sigma of the ±3σ-truncated normal (montecarlo,
    /// yield).
    pub sigma: Option<f64>,
    /// RNG seed (montecarlo, yield).
    pub seed: Option<u64>,
    /// Worker threads, `0` = available parallelism (consumed by front
    /// ends to build the [`EvalEngine`]; not read by the analyses).
    pub threads: Option<usize>,
    /// Comparison metric (montecarlo, corner_sweep).
    pub metric: Option<ErrorMetric>,
    /// Sweep start, Hz (frequency_sweep).
    pub f_min_hz: Option<f64>,
    /// Sweep end, Hz (frequency_sweep).
    pub f_max_hz: Option<f64>,
    /// Log-spaced sweep points (frequency_sweep).
    pub points: Option<usize>,
    /// Parameter point evaluated (frequency_sweep; defaults to zeros).
    pub parameters: Option<Vec<f64>>,
    /// First swept parameter index (corner_sweep).
    pub param_a: Option<usize>,
    /// Second swept parameter index (corner_sweep).
    pub param_b: Option<usize>,
    /// Sweep range lower bound (corner_sweep).
    pub lo: Option<f64>,
    /// Sweep range upper bound (corner_sweep).
    pub hi: Option<f64>,
    /// Grid points per axis (corner_sweep).
    pub points_per_axis: Option<usize>,
    /// Absolute pass threshold, rad/s (yield).
    pub min_pole_rad_s: Option<f64>,
    /// Relative threshold when `min_pole_rad_s` is unset (yield).
    pub margin: Option<f64>,
    /// Simulation end time, s; unset = auto from the reduced model's
    /// nominal dominant pole (transient).
    pub t_stop: Option<f64>,
    /// Uniform time steps (transient).
    pub steps: Option<usize>,
    /// Input ramp rise time, s; 0 or unset = ideal step (transient).
    pub rise: Option<f64>,
    /// Integration scheme (transient).
    pub integrator: Option<IntegrationMethod>,
}

/// The registry of analyses, selectable by name — symmetric to
/// [`pmor::ReducerKind`] on the reduction side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnalysisKind {
    /// `H(f)` sweep, vs the full model when one is given
    /// (`"frequency_sweep"`).
    FrequencySweep,
    /// Pole/transfer error distribution over sampled instances
    /// (`"montecarlo"`).
    MonteCarlo,
    /// 2-D error grid over two parameters (`"corner_sweep"`).
    CornerSweep,
    /// Pass/fail spec yield at reduced-model cost (`"yield"`).
    Yield,
    /// Time-domain 50 % delay / overshoot error distribution over
    /// sampled instances (`"transient"`).
    Transient,
}

impl AnalysisKind {
    /// Every registered analysis, in presentation order.
    pub const ALL: [AnalysisKind; 5] = [
        AnalysisKind::FrequencySweep,
        AnalysisKind::MonteCarlo,
        AnalysisKind::CornerSweep,
        AnalysisKind::Yield,
        AnalysisKind::Transient,
    ];

    /// The registry name.
    pub fn name(self) -> &'static str {
        match self {
            AnalysisKind::FrequencySweep => "frequency_sweep",
            AnalysisKind::MonteCarlo => "montecarlo",
            AnalysisKind::CornerSweep => "corner_sweep",
            AnalysisKind::Yield => "yield",
            AnalysisKind::Transient => "transient",
        }
    }

    /// One-line description for help/`list` output.
    pub fn describe(self) -> &'static str {
        match self {
            AnalysisKind::FrequencySweep => "H(f) sweep, vs the full model when one is given",
            AnalysisKind::MonteCarlo => "pole/transfer error distribution vs the full model",
            AnalysisKind::CornerSweep => "2-D error grid over two parameters",
            AnalysisKind::Yield => "|λ₁| distribution and spec yield at reduced-model cost",
            AnalysisKind::Transient => "time-domain 50% delay/overshoot errors vs the full model",
        }
    }

    /// Looks an analysis up by its registry name (case-insensitive).
    pub fn from_name(name: &str) -> Option<AnalysisKind> {
        AnalysisKind::ALL
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(name))
    }

    /// Builds the analysis; unset config fields fall back to
    /// [`analysis_defaults`]. This is the single construction site for
    /// registry analyses.
    ///
    /// # Errors
    ///
    /// Fails on invalid knob values (non-positive sigma, inverted
    /// ranges, zero counts, …).
    pub fn build(self, cfg: &AnalysisConfig) -> Result<Box<dyn Analysis>> {
        use analysis_defaults as d;
        let sigma = cfg.sigma.unwrap_or(d::SIGMA);
        if !(sigma > 0.0 && sigma.is_finite()) {
            return Err(invalid(format!("sigma must be positive, got {sigma}")));
        }
        let seed = cfg.seed.unwrap_or(d::SEED);
        let instances = |default: usize| match cfg.instances.unwrap_or(default) {
            0 => Err(invalid("instances must be at least 1")),
            n => Ok(n),
        };
        if let Some(ErrorMetric::Poles { num_poles: 0 }) = &cfg.metric {
            return Err(invalid("num_poles must be at least 1"));
        }
        let metric = |default_poles: usize| match &cfg.metric {
            None => ErrorMetric::Poles {
                num_poles: default_poles,
            },
            Some(m) => m.clone(),
        };
        match self {
            AnalysisKind::FrequencySweep => {
                let f_min_hz = cfg.f_min_hz.unwrap_or(d::F_MIN_HZ);
                let f_max_hz = cfg.f_max_hz.unwrap_or(d::F_MAX_HZ);
                if !(f_min_hz > 0.0 && f_max_hz > f_min_hz) {
                    return Err(invalid("need 0 < f_min_hz < f_max_hz"));
                }
                let points = cfg.points.unwrap_or(d::SWEEP_POINTS);
                if points < 2 {
                    return Err(invalid("points must be at least 2"));
                }
                Ok(Box::new(FrequencySweepAnalysis {
                    f_min_hz,
                    f_max_hz,
                    points,
                    parameters: cfg.parameters.clone(),
                }))
            }
            AnalysisKind::MonteCarlo => Ok(Box::new(MonteCarloAnalysis {
                instances: instances(d::MC_INSTANCES)?,
                sigma,
                seed,
                metric: metric(d::MC_NUM_POLES),
            })),
            AnalysisKind::CornerSweep => {
                let lo = cfg.lo.unwrap_or(d::CORNER_LO);
                let hi = cfg.hi.unwrap_or(d::CORNER_HI);
                if hi <= lo {
                    return Err(invalid("need lo < hi"));
                }
                let points_per_axis = cfg.points_per_axis.unwrap_or(d::CORNER_POINTS_PER_AXIS);
                if points_per_axis < 2 {
                    return Err(invalid("points_per_axis must be at least 2"));
                }
                Ok(Box::new(CornerSweepAnalysis {
                    param_a: cfg.param_a.unwrap_or(0),
                    param_b: cfg.param_b.unwrap_or(1),
                    lo,
                    hi,
                    points_per_axis,
                    metric: metric(1),
                }))
            }
            AnalysisKind::Yield => {
                if let Some(v) = cfg.min_pole_rad_s {
                    if !(v > 0.0 && v.is_finite()) {
                        return Err(invalid(format!("min_pole_rad_s must be positive, got {v}")));
                    }
                }
                let margin = cfg.margin.unwrap_or(d::YIELD_MARGIN);
                if !(margin > 0.0 && margin.is_finite()) {
                    return Err(invalid(format!("margin must be positive, got {margin}")));
                }
                Ok(Box::new(YieldAnalysis {
                    instances: instances(d::YIELD_INSTANCES)?,
                    sigma,
                    seed,
                    min_pole_rad_s: cfg.min_pole_rad_s,
                    margin,
                }))
            }
            AnalysisKind::Transient => {
                if let Some(t) = cfg.t_stop {
                    if !(t > 0.0 && t.is_finite()) {
                        return Err(invalid(format!("t_stop must be positive, got {t}")));
                    }
                }
                let steps = cfg.steps.unwrap_or(d::TRANSIENT_STEPS);
                if steps < 2 {
                    return Err(invalid("steps must be at least 2"));
                }
                let rise = cfg.rise.unwrap_or(0.0);
                if !(rise >= 0.0 && rise.is_finite()) {
                    return Err(invalid(format!("rise must be non-negative, got {rise}")));
                }
                Ok(Box::new(TransientAnalysis {
                    instances: instances(d::TRANSIENT_INSTANCES)?,
                    sigma,
                    seed,
                    t_stop: cfg.t_stop,
                    steps,
                    rise,
                    method: cfg.integrator.unwrap_or(IntegrationMethod::Trapezoidal),
                }))
            }
        }
    }
}

/// The Monte-Carlo sampler the analyses share: the paper's ±3σ-truncated
/// normal per parameter, deterministic in the seed.
fn sampler(np: usize, instances: usize, sigma: f64, seed: u64) -> MonteCarlo {
    MonteCarlo {
        distributions: vec![ParameterDistribution::Normal3Sigma { sigma }; np],
        instances,
        seed,
    }
}

/// Relative errors, in percent, of the `num_poles` most dominant
/// full-model poles at `p` against the reduced model's poles.
fn pole_errors_percent(
    full: &dyn TransferModel,
    rom: &dyn TransferModel,
    p: &[f64],
    num_poles: usize,
) -> Result<Vec<f64>> {
    let reference = full.dominant_poles(p, num_poles)?;
    // Deeper candidate list than the reference so near-degenerate
    // reference poles both find a partner.
    let candidate = rom.dominant_poles(p, 2 * num_poles + 4)?;
    Ok(pole_errors(&reference, &candidate)
        .into_iter()
        .map(|e| 100.0 * e)
        .collect())
}

/// Worst relative transfer-function error at `p` over `freqs_hz`:
/// `max_f |H_full − H_rom| / |H_full|`.
fn worst_transfer_error(
    full: &dyn TransferModel,
    rom: &dyn TransferModel,
    p: &[f64],
    freqs_hz: &[f64],
    ws: &mut EvalWorkspace,
) -> Result<f64> {
    let mut worst = 0.0f64;
    for &f in freqs_hz {
        let s = Complex64::jw(2.0 * std::f64::consts::PI * f);
        let hf = full.transfer_with(p, s, ws)?;
        let hr = rom.transfer_with(p, s, ws)?;
        let denom = hf.max_abs().max(1e-300);
        // max |H_full − H_rom| computed in place: a function taking the
        // workspace is held to the lint's no-allocation kernel rule.
        let mut gap = 0.0f64;
        for (&a, &b) in hf.as_slice().iter().zip(hr.as_slice()) {
            gap = gap.max((a - b).abs());
        }
        worst = worst.max(gap / denom);
    }
    Ok(worst)
}

// --- frequency_sweep -------------------------------------------------------

/// `H11(f)` over a log-spaced band at one parameter point. Against a
/// full model it reports both magnitudes and the ROM's error (the shape
/// of the paper's Figs 3–4); on the ROM alone, its real part, imaginary
/// part and magnitude.
#[derive(Debug, Clone, PartialEq)]
pub struct FrequencySweepAnalysis {
    /// Sweep start, Hz.
    pub f_min_hz: f64,
    /// Sweep end, Hz.
    pub f_max_hz: f64,
    /// Number of log-spaced points.
    pub points: usize,
    /// Parameter point evaluated (`None` = all zeros).
    pub parameters: Option<Vec<f64>>,
}

impl Analysis for FrequencySweepAnalysis {
    fn name(&self) -> &'static str {
        AnalysisKind::FrequencySweep.name()
    }

    fn run(
        &self,
        engine: &EvalEngine,
        full: Option<&dyn TransferModel>,
        rom: &dyn TransferModel,
    ) -> Result<AnalysisReport> {
        // pmor-lint: allow(det-wallclock) reason="wall-clock here is measurement output (elapsed/speedup report metadata), never an input to numerics"
        let start = Instant::now();
        let np = rom.num_params();
        let p = match &self.parameters {
            Some(p) if p.len() == np => p.clone(),
            Some(p) => {
                return Err(invalid(format!(
                    "parameters has {} entries, the system has {np} parameters",
                    p.len()
                )))
            }
            None => vec![0.0; np],
        };
        let freqs = crate::sweep::logspace(self.f_min_hz, self.f_max_hz, self.points);
        let pts = EvalPoint::sweep(&p, &freqs);
        let h11 = |model: &dyn TransferModel| -> Result<Vec<Complex64>> {
            Ok(engine
                .transfer_batch(model, &pts)?
                .iter()
                .map(|h| h[(0, 0)])
                .collect())
        };
        let rom_h = h11(rom)?;
        let rom_mag: Vec<f64> = rom_h.iter().map(|h| h.abs()).collect();
        let mut report = AnalysisReport::new(self.name());
        let mut eval_points = pts.len();
        let series = if let Some(full) = full {
            // pmor-lint: allow(det-wallclock) reason="wall-clock here is measurement output (elapsed/speedup report metadata), never an input to numerics"
            let full_start = Instant::now();
            let full_mag: Vec<f64> = h11(full)?.iter().map(|h| h.abs()).collect();
            let full_secs = full_start.elapsed().as_secs_f64();
            eval_points += pts.len();
            let worst_rel = full_mag
                .iter()
                .zip(&rom_mag)
                .map(|(f, r)| (f - r).abs() / f.abs().max(1e-300))
                .fold(0.0, f64::max);
            // The figures are read on a normalized amplitude axis, so also
            // report the worst gap relative to the band's peak — pointwise
            // relative error is inflated in deep |H| notches.
            let band_max = full_mag.iter().copied().fold(1e-300, f64::max);
            let worst_gap = full_mag
                .iter()
                .zip(&rom_mag)
                .map(|(f, r)| (f - r).abs() / band_max)
                .fold(0.0, f64::max);
            report.lines.push(format!(
                "vs full — max relative |H| error {worst_rel:.3e}, max plot-axis gap {worst_gap:.3e}"
            ));
            report = report
                .metric("max_rel_err", worst_rel)
                .metric("max_plot_gap", worst_gap)
                .metric("full_eval_seconds", full_secs);
            vec![("full".to_string(), full_mag), ("rom".to_string(), rom_mag)]
        } else {
            vec![
                ("re_h11".to_string(), rom_h.iter().map(|h| h.re).collect()),
                ("im_h11".to_string(), rom_h.iter().map(|h| h.im).collect()),
                ("abs_h11".to_string(), rom_mag),
            ]
        };
        report.csv = Some(CsvBlock {
            x_label: "freq_hz".to_string(),
            x: freqs,
            series,
        });
        let secs = start.elapsed().as_secs_f64();
        Ok(report.stamp(engine, full, rom, eval_points, pts.len(), secs))
    }
}

// --- montecarlo ------------------------------------------------------------

/// Bins of the pooled pole-error histogram the `poles` metric reports.
pub(crate) const POLE_HISTOGRAM_BINS: usize = 12;

/// The paper's §5.3 protocol as a registered analysis: draw parameter
/// instances, evaluate full and reduced models at each, and report the
/// error distribution under the configured [`ErrorMetric`].
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarloAnalysis {
    /// Number of sampled instances.
    pub instances: usize,
    /// Per-parameter sigma of the ±3σ-truncated normal.
    pub sigma: f64,
    /// RNG seed.
    pub seed: u64,
    /// What to compare between the models.
    pub metric: ErrorMetric,
}

impl Analysis for MonteCarloAnalysis {
    fn name(&self) -> &'static str {
        AnalysisKind::MonteCarlo.name()
    }

    fn run(
        &self,
        engine: &EvalEngine,
        full: Option<&dyn TransferModel>,
        rom: &dyn TransferModel,
    ) -> Result<AnalysisReport> {
        // pmor-lint: allow(det-wallclock) reason="wall-clock here is measurement output (elapsed/speedup report metadata), never an input to numerics"
        let start = Instant::now();
        let reference = require_full(full, self.name())?;
        let points =
            sampler(rom.num_params(), self.instances, self.sigma, self.seed).sample_points();
        let mut report =
            AnalysisReport::new(self.name()).metric("instances", self.instances as f64);
        let eval_points;
        match &self.metric {
            ErrorMetric::Poles { num_poles } => {
                let n = *num_poles;
                let per_instance: Vec<Vec<f64>> =
                    engine.map(&points, |p, _ws| pole_errors_percent(reference, rom, p, n))?;
                eval_points = 2 * points.len();
                let pooled: Vec<f64> = per_instance.into_iter().flatten().collect();
                let s = Summary::of(&pooled);
                report.lines.push(format!(
                    "{} instances × {n} poles — max {:.4}% mean {:.4}% median {:.4}%",
                    self.instances, s.max, s.mean, s.median
                ));
                report = report
                    .metric("max_pole_err_percent", s.max)
                    .metric("mean_pole_err_percent", s.mean)
                    .metric("median_pole_err_percent", s.median);
                // The pooled error distribution: the left-hand plots of
                // the paper's Figs 5–6.
                let bins = histogram(&pooled, POLE_HISTOGRAM_BINS);
                report.csv = Some(CsvBlock {
                    x_label: "bin_lo_pct".to_string(),
                    x: bins.iter().map(|b| b.lo).collect(),
                    series: vec![
                        (
                            "bin_hi_pct".to_string(),
                            bins.iter().map(|b| b.hi).collect(),
                        ),
                        (
                            "count".to_string(),
                            bins.iter().map(|b| b.count as f64).collect(),
                        ),
                    ],
                });
            }
            ErrorMetric::Transfer { freqs_hz } => {
                let errs: Vec<f64> = engine.map(&points, |p, ws| {
                    worst_transfer_error(reference, rom, p, freqs_hz, ws)
                })?;
                eval_points = 2 * points.len() * freqs_hz.len();
                let worst = errs.iter().copied().fold(0.0, f64::max);
                let mean = errs.iter().sum::<f64>() / errs.len().max(1) as f64;
                report.lines.push(format!(
                    "{} instances × {} freqs — worst rel |H| err {worst:.3e}, mean {mean:.3e}",
                    self.instances,
                    freqs_hz.len()
                ));
                report = report
                    .metric("worst_rel_transfer_err", worst)
                    .metric("mean_rel_transfer_err", mean);
            }
        }
        let secs = start.elapsed().as_secs_f64();
        Ok(report.stamp(engine, full, rom, eval_points, points.len(), secs))
    }
}

// --- corner_sweep ----------------------------------------------------------

/// Deterministic 2-D grid sweep of reduced-model error over two selected
/// parameters (the right-hand plots of the paper's Figs 5–6).
#[derive(Debug, Clone, PartialEq)]
pub struct CornerSweepAnalysis {
    /// First swept parameter index (grid rows).
    pub param_a: usize,
    /// Second swept parameter index (grid columns).
    pub param_b: usize,
    /// Sweep range lower bound.
    pub lo: f64,
    /// Sweep range upper bound.
    pub hi: f64,
    /// Grid points per axis.
    pub points_per_axis: usize,
    /// What to compare at each corner.
    pub metric: ErrorMetric,
}

impl Analysis for CornerSweepAnalysis {
    fn name(&self) -> &'static str {
        AnalysisKind::CornerSweep.name()
    }

    fn run(
        &self,
        engine: &EvalEngine,
        full: Option<&dyn TransferModel>,
        rom: &dyn TransferModel,
    ) -> Result<AnalysisReport> {
        // pmor-lint: allow(det-wallclock) reason="wall-clock here is measurement output (elapsed/speedup report metadata), never an input to numerics"
        let start = Instant::now();
        let reference = require_full(full, self.name())?;
        let np = rom.num_params();
        if self.param_a >= np || self.param_b >= np || self.param_a == self.param_b {
            return Err(invalid(format!(
                "corner sweep needs two distinct parameter indices < {np}, got {} and {}",
                self.param_a, self.param_b
            )));
        }
        let values = linspace(self.lo, self.hi, self.points_per_axis);
        let sweep = Sweep2d {
            param_a: self.param_a,
            param_b: self.param_b,
            values_a: values.clone(),
            values_b: values.clone(),
            base: vec![0.0; np],
        };
        let grid_points = sweep.points();
        let (label, unit, errs, eval_points): (&str, &str, Vec<f64>, usize) = match &self.metric {
            ErrorMetric::Poles { .. } => {
                let errs = engine.map(&grid_points, |(_, _, p), _ws| {
                    pole_errors_percent(reference, rom, p, 1)?
                        .first()
                        .copied()
                        .ok_or_else(|| invalid(format!("full model has no finite poles at {p:?}")))
                })?;
                (
                    "dominant-pole error %",
                    "pole_err_percent",
                    errs,
                    2 * grid_points.len(),
                )
            }
            ErrorMetric::Transfer { freqs_hz } => {
                let errs = engine.map(&grid_points, |(_, _, p), ws| {
                    worst_transfer_error(reference, rom, p, freqs_hz, ws)
                })?;
                (
                    "worst relative |H| error",
                    "rel_transfer_err",
                    errs,
                    2 * grid_points.len() * freqs_hz.len(),
                )
            }
        };
        let mut grid = vec![vec![0.0; values.len()]; values.len()];
        for ((ia, ib, _), err) in grid_points.iter().zip(&errs) {
            grid[*ia][*ib] = *err;
        }
        let worst = errs.iter().copied().fold(0.0, f64::max);
        let mean = errs.iter().sum::<f64>() / errs.len().max(1) as f64;
        let mut report = AnalysisReport::new(self.name())
            .metric("grid_points", errs.len() as f64)
            .metric(format!("worst_{unit}"), worst)
            .metric(format!("mean_{unit}"), mean);
        report
            .lines
            .push(format!("worst corner {label} {worst:.4e}, mean {mean:.4e}"));
        report.grid = Some(GridBlock {
            title: format!(
                "{label}, p{} (rows) × p{} (cols)",
                self.param_a, self.param_b
            ),
            row_values: values.clone(),
            col_values: values,
            values: grid,
        });
        let secs = start.elapsed().as_secs_f64();
        Ok(report.stamp(engine, full, rom, eval_points, grid_points.len(), secs))
    }
}

// --- yield -----------------------------------------------------------------

/// Monte-Carlo parametric yield at reduced-model cost: the distribution
/// of the dominant pole magnitude `|λ₁|` over sampled instances, and the
/// fraction of them whose `|λ₁|` stays above a bandwidth floor (absolute,
/// or relative to the reduced model's nominal bandwidth). It never reads
/// the full model.
#[derive(Debug, Clone, PartialEq)]
pub struct YieldAnalysis {
    /// Number of sampled instances.
    pub instances: usize,
    /// Per-parameter sigma of the ±3σ-truncated normal.
    pub sigma: f64,
    /// RNG seed.
    pub seed: u64,
    /// Absolute pass threshold, rad/s. `None` = `margin` × nominal.
    pub min_pole_rad_s: Option<f64>,
    /// Relative threshold used when `min_pole_rad_s` is absent.
    pub margin: f64,
}

impl Analysis for YieldAnalysis {
    fn name(&self) -> &'static str {
        AnalysisKind::Yield.name()
    }

    fn run(
        &self,
        engine: &EvalEngine,
        full: Option<&dyn TransferModel>,
        rom: &dyn TransferModel,
    ) -> Result<AnalysisReport> {
        // pmor-lint: allow(det-wallclock) reason="wall-clock here is measurement output (elapsed/speedup report metadata), never an input to numerics"
        let start = Instant::now();
        let np = rom.num_params();
        let threshold = match self.min_pole_rad_s {
            Some(v) => v,
            None => {
                // Spec relative to this model's nominal bandwidth: pass
                // while the dominant pole stays within `margin` of nominal.
                let nominal = rom.dominant_poles(&vec![0.0; np], 1)?;
                let Some(first) = nominal.first() else {
                    return Err(invalid(
                        "model has no finite poles to build a yield spec from",
                    ));
                };
                self.margin * first.abs()
            }
        };
        let points = sampler(np, self.instances, self.sigma, self.seed).sample_points();
        let pole_mags: Vec<f64> = engine.map(&points, |p, _ws| {
            let poles = rom.dominant_poles(p, 1)?;
            poles
                .first()
                .map(|z| z.abs())
                .ok_or_else(|| invalid(format!("no finite poles at p = {p:?}")))
        })?;
        let n = pole_mags.len();
        let pass = pole_mags.iter().filter(|&&m| m >= threshold).count();
        let y = pass as f64 / n.max(1) as f64;
        let std_error = (y * (1.0 - y) / n.max(1) as f64).sqrt();
        let s = Summary::of(&pole_mags);
        let mut report = AnalysisReport::new(self.name())
            .metric("instances", n as f64)
            .metric("yield_fraction", y)
            .metric("yield_std_error", std_error)
            .metric("threshold_rad_s", threshold)
            .metric("pole_mag_min_rad_s", s.min)
            .metric("pole_mag_median_rad_s", s.median)
            .metric("pole_mag_mean_rad_s", s.mean)
            .metric("pole_mag_max_rad_s", s.max)
            .metric("pole_mag_std_rad_s", s.std);
        report.lines.push(format!(
            "dominant pole magnitude |λ₁| (rad/s): min {:.6e}  median {:.6e}  mean {:.6e}  \
             max {:.6e}  std {:.3e}",
            s.min, s.median, s.mean, s.max, s.std
        ));
        report.lines.push(format!(
            "yield {:.1}% ± {:.1}% over {n} instances (|λ₁| ≥ {threshold:.3e} rad/s)",
            100.0 * y,
            100.0 * std_error
        ));
        let secs = start.elapsed().as_secs_f64();
        Ok(report.stamp(engine, full, rom, n, n, secs))
    }
}

// --- transient -------------------------------------------------------------

/// Monte-Carlo comparison of the metrics designers actually sign off on:
/// at every sampled process instance, both models are driven with the
/// same unit step (or ramp) through the θ-method transient engine, and
/// the reduced model's 50 %-swing delay and overshoot are scored against
/// the full model's. This is the paper's "one ROM serves *all* downstream
/// analyses" claim taken to the time domain.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientAnalysis {
    /// Number of sampled instances.
    pub instances: usize,
    /// Per-parameter sigma of the ±3σ-truncated normal.
    pub sigma: f64,
    /// RNG seed.
    pub seed: u64,
    /// Simulation end time, s. `None` = auto:
    /// [`analysis_defaults::TRANSIENT_TAU_FACTOR`] over the reduced
    /// model's nominal dominant-pole magnitude.
    pub t_stop: Option<f64>,
    /// Uniform time steps.
    pub steps: usize,
    /// Input ramp rise time, s; 0 = ideal step.
    pub rise: f64,
    /// Integration scheme.
    pub method: IntegrationMethod,
}

impl Analysis for TransientAnalysis {
    fn name(&self) -> &'static str {
        AnalysisKind::Transient.name()
    }

    fn run(
        &self,
        engine: &EvalEngine,
        full: Option<&dyn TransferModel>,
        rom: &dyn TransferModel,
    ) -> Result<AnalysisReport> {
        // pmor-lint: allow(det-wallclock) reason="wall-clock here is measurement output (elapsed/speedup report metadata), never an input to numerics"
        let start = Instant::now();
        let reference = require_full(full, self.name())?;
        let np = rom.num_params();
        if rom.num_inputs() == 0 || rom.num_outputs() == 0 {
            return Err(invalid(
                "transient analysis needs at least one input and one output port",
            ));
        }
        let t_stop = match self.t_stop {
            Some(t) => t,
            None => {
                // Size the window from the reduced model's nominal
                // dominant pole: |λ₁| is the slowest rate, so
                // TAU_FACTOR/|λ₁| covers the settling transient.
                let nominal = rom.dominant_poles(&vec![0.0; np], 1)?;
                let Some(first) = nominal.first() else {
                    return Err(invalid(
                        "model has no finite poles to size the transient window from",
                    ));
                };
                let t = analysis_defaults::TRANSIENT_TAU_FACTOR / first.abs();
                if !(t > 0.0 && t.is_finite()) {
                    return Err(invalid(format!(
                        "cannot auto-size the transient window from dominant pole {first} \
                         (got t_stop = {t}); set t_stop explicitly"
                    )));
                }
                t
            }
        };
        let opts = TransientOptions {
            t_stop,
            dt: t_stop / self.steps as f64,
            method: self.method,
        };
        let stimulus = if self.rise > 0.0 {
            Stimulus::Ramp {
                t0: 0.0,
                rise: self.rise,
                amplitude: 1.0,
            }
        } else {
            Stimulus::Step {
                t0: 0.0,
                amplitude: 1.0,
            }
        };
        let stimuli = vec![stimulus; rom.num_inputs()];
        let points = sampler(np, self.instances, self.sigma, self.seed).sample_points();
        // Per instance: (full delay, rom delay, full overshoot, rom
        // overshoot) of output 0, both models simulated on the same grid.
        let per_instance: Vec<[f64; 4]> = engine.map(&points, |p, ws| {
            let yf = reference.transient(p, &stimuli, &opts, ws)?;
            let yr = rom.transient(p, &stimuli, &opts, ws)?;
            let df = yf.delay_50(0).ok_or_else(|| {
                invalid(format!(
                    "full-model waveform never reaches its 50% level at p = {p:?} \
                     (raise t_stop or steps)"
                ))
            })?;
            let dr = yr.delay_50(0).ok_or_else(|| {
                invalid(format!(
                    "reduced-model waveform never reaches its 50% level at p = {p:?} \
                     (raise t_stop or steps)"
                ))
            })?;
            Ok([df, dr, yf.overshoot(0), yr.overshoot(0)])
        })?;
        let delay_errs: Vec<f64> = per_instance
            .iter()
            .map(|[df, dr, _, _]| 100.0 * (df - dr).abs() / df.abs().max(1e-300))
            .collect();
        let over_errs: Vec<f64> = per_instance
            .iter()
            .map(|[_, _, of, or]| (of - or).abs())
            .collect();
        let d = Summary::of(&delay_errs);
        let worst_over = over_errs.iter().copied().fold(0.0, f64::max);
        let mean_full_delay =
            per_instance.iter().map(|e| e[0]).sum::<f64>() / per_instance.len().max(1) as f64;
        let mut report = AnalysisReport::new(self.name())
            .metric("instances", self.instances as f64)
            .metric("steps", self.steps as f64)
            .metric("t_stop_s", t_stop)
            .metric("max_delay_err_percent", d.max)
            .metric("mean_delay_err_percent", d.mean)
            .metric("max_overshoot_err", worst_over)
            .metric("mean_full_delay_s", mean_full_delay);
        report.lines.push(format!(
            "{} instances × {} steps to {t_stop:.3e}s — 50% delay err max {:.4}% mean {:.4}%, \
             overshoot gap max {worst_over:.3e} (mean full delay {mean_full_delay:.3e}s)",
            self.instances, self.steps, d.max, d.mean
        ));
        report.csv = Some(CsvBlock {
            x_label: "instance".to_string(),
            x: (0..per_instance.len()).map(|i| i as f64).collect(),
            series: vec![
                (
                    "full_delay_s".to_string(),
                    per_instance.iter().map(|e| e[0]).collect(),
                ),
                (
                    "rom_delay_s".to_string(),
                    per_instance.iter().map(|e| e[1]).collect(),
                ),
            ],
        });
        let secs = start.elapsed().as_secs_f64();
        Ok(report.stamp(engine, full, rom, 2 * points.len(), points.len(), secs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmor::eval::FullModel;
    use pmor_circuits::generators::{clock_tree, ClockTreeConfig};
    use pmor_circuits::ParametricSystem;

    fn tree(n: usize) -> ParametricSystem {
        clock_tree(&ClockTreeConfig {
            num_nodes: n,
            ..Default::default()
        })
        .assemble()
    }

    fn rom_for(sys: &ParametricSystem) -> pmor::ParametricRom {
        pmor::reducer_by_name("lowrank", sys)
            .unwrap()
            .reduce_once(sys)
            .unwrap()
    }

    #[test]
    fn registry_round_trips_names_and_builds() {
        for kind in AnalysisKind::ALL {
            assert_eq!(AnalysisKind::from_name(kind.name()), Some(kind));
            assert_eq!(
                AnalysisKind::from_name(&kind.name().to_uppercase()),
                Some(kind)
            );
            let analysis = kind.build(&AnalysisConfig::default()).unwrap();
            assert_eq!(analysis.name(), kind.name());
            assert!(!kind.describe().is_empty());
        }
        assert_eq!(AnalysisKind::from_name("no-such-analysis"), None);
    }

    #[test]
    fn build_rejects_bad_knobs() {
        use AnalysisKind as K;
        // One bad knob per case. A zero count is refused, not clamped to
        // the smallest one that runs.
        let cases: [(K, fn(&mut AnalysisConfig), &str); 11] = [
            (K::FrequencySweep, |c| c.sigma = Some(-0.1), "sigma"),
            (
                K::FrequencySweep,
                |c| (c.f_min_hz, c.f_max_hz) = (Some(1e10), Some(1e7)),
                "f_min_hz",
            ),
            (K::FrequencySweep, |c| c.points = Some(1), "points"),
            (
                K::Yield,
                |c| c.min_pole_rad_s = Some(-1.0),
                "min_pole_rad_s",
            ),
            (
                K::CornerSweep,
                |c| (c.lo, c.hi) = (Some(0.3), Some(-0.3)),
                "lo < hi",
            ),
            (
                K::CornerSweep,
                |c| c.points_per_axis = Some(1),
                "points_per_axis",
            ),
            (
                K::CornerSweep,
                |c| c.points_per_axis = Some(0),
                "points_per_axis",
            ),
            (K::MonteCarlo, |c| c.instances = Some(0), "instances"),
            (K::Yield, |c| c.instances = Some(0), "instances"),
            (K::Transient, |c| c.instances = Some(0), "instances"),
            (
                K::MonteCarlo,
                |c| c.metric = Some(ErrorMetric::Poles { num_poles: 0 }),
                "num_poles",
            ),
        ];
        for (kind, set, needle) in cases {
            let mut cfg = AnalysisConfig::default();
            set(&mut cfg);
            let err = kind.build(&cfg).err().unwrap();
            assert!(err.to_string().contains(needle), "{}: {err}", kind.name());
        }
    }

    #[test]
    fn transient_build_rejects_bad_knobs() {
        let cases: [(fn(&mut AnalysisConfig), &str); 3] = [
            (|c| c.t_stop = Some(-1e-9), "t_stop"),
            (|c| c.steps = Some(1), "steps"),
            (|c| c.rise = Some(-1e-12), "rise"),
        ];
        for (set, needle) in cases {
            let mut cfg = AnalysisConfig::default();
            set(&mut cfg);
            let err = AnalysisKind::Transient.build(&cfg).err().unwrap();
            assert!(err.to_string().contains(needle), "{needle}: {err}");
        }
    }

    #[test]
    fn every_analysis_runs_and_stamps_provenance() {
        // ... with and without the full model where it may be absent, and
        // bit for bit the same report on 1, 2 and 4 engine threads.
        let sys = tree(30);
        let full = FullModel::new(&sys);
        let rom = rom_for(&sys);
        let small = AnalysisConfig {
            instances: Some(4),
            points: Some(4),
            points_per_axis: Some(2),
            steps: Some(100),
            metric: Some(ErrorMetric::Transfer {
                freqs_hz: vec![1e8, 1e9],
            }),
            ..Default::default()
        };
        // Every metric but the wall clock and the worker count.
        let bits = |r: &AnalysisReport| -> Vec<(String, u64)> {
            r.metrics
                .iter()
                .filter(|(n, _)| !n.ends_with("_seconds") && n != "threads")
                .map(|(n, v)| (n.clone(), v.to_bits()))
                .collect()
        };
        for kind in AnalysisKind::ALL {
            let analysis = kind.build(&small).unwrap();
            let name = kind.name();
            // Yield never reads the full model and the sweep compares only
            // when given one; the other three refuse to run without it.
            let rom_only = matches!(kind, AnalysisKind::Yield | AnalysisKind::FrequencySweep);
            for reference in [None, Some(&full as &dyn TransferModel)] {
                if reference.is_none() && !rom_only {
                    let err = analysis.run(&EvalEngine::serial(), None, &rom).unwrap_err();
                    assert!(
                        matches!(&err, PmorError::Invalid(m) if m.contains(name) && m.contains("full model")),
                        "{name}: {err:?}"
                    );
                    continue;
                }
                let runs: Vec<AnalysisReport> = [1, 2, 4]
                    .into_iter()
                    .map(|t| analysis.run(&EvalEngine::new(t), reference, &rom).unwrap())
                    .collect();
                let r = &runs[0];
                assert_eq!(r.analysis, name);
                let p = &r.provenance;
                assert_eq!(p.contains("full("), reference.is_some(), "{name}: {p}");
                assert!(p.contains("rom("), "{name}: {p}");
                for want in ["eval_points", "threads", "analysis_seconds", "rom_dim"] {
                    assert!(r.metric_value(want).is_some(), "{name} missing {want}");
                }
                // Read off the ROM, with or without the full model.
                assert_eq!(r.metric_value("full_dim"), Some(sys.dim() as f64));
                assert!(!r.lines.is_empty() || r.csv.is_some());
                for run in &runs[1..] {
                    assert_eq!(bits(run), bits(r), "{name}");
                    assert_eq!(
                        (&run.lines, &run.csv, &run.grid),
                        (&r.lines, &r.csv, &r.grid),
                        "{name}"
                    );
                }
            }
        }
    }

    #[test]
    fn montecarlo_results_identical_across_thread_counts() {
        let sys = tree(30);
        let full = FullModel::new(&sys);
        let rom = rom_for(&sys);
        let analysis = MonteCarloAnalysis {
            instances: 6,
            sigma: 0.1,
            seed: 0x3C0,
            metric: ErrorMetric::Transfer {
                freqs_hz: vec![1e8, 1e9],
            },
        };
        let run = |t| {
            analysis
                .run(&EvalEngine::new(t), Some(&full), &rom)
                .unwrap()
        };
        let (serial, parallel) = (run(1), run(4));
        for name in ["worst_rel_transfer_err", "mean_rel_transfer_err"] {
            let bits = |r: &AnalysisReport| r.metric_value(name).unwrap().to_bits();
            assert_eq!(bits(&serial), bits(&parallel), "{name}");
        }
    }

    #[test]
    fn a_rom_only_sweep_reports_h11() {
        let rom = rom_for(&tree(30));
        let p = [0.1, -0.2, 0.05];
        let sweep = FrequencySweepAnalysis {
            f_min_hz: 1e7,
            f_max_hz: 1e10,
            points: 3,
            parameters: Some(p.to_vec()),
        };
        let report = sweep.run(&EvalEngine::new(2), None, &rom).unwrap();
        assert_eq!(report.metric_value("max_rel_err"), None);
        let csv = report.csv.unwrap();
        let labels: Vec<&str> = csv.series.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, ["re_h11", "im_h11", "abs_h11"]);
        for (i, &f) in csv.x.iter().enumerate() {
            let s = Complex64::jw(2.0 * std::f64::consts::PI * f);
            let h11 = rom.transfer(&p, s).unwrap()[(0, 0)];
            let row: Vec<u64> = csv.series.iter().map(|(_, v)| v[i].to_bits()).collect();
            assert_eq!(row, [h11.re, h11.im, h11.abs()].map(f64::to_bits));
        }
    }

    #[test]
    fn frequency_sweep_validates_parameter_count() {
        let sys = tree(20);
        let full = FullModel::new(&sys);
        let rom = rom_for(&sys);
        let analysis = FrequencySweepAnalysis {
            f_min_hz: 1e7,
            f_max_hz: 1e9,
            points: 3,
            parameters: Some(vec![0.1]),
        };
        for full in [None, Some(&full as &dyn TransferModel)] {
            let err = analysis.run(&EvalEngine::serial(), full, &rom).unwrap_err();
            assert!(err.to_string().contains("parameters"), "{err}");
        }
    }

    #[test]
    fn corner_sweep_validates_indices_and_fills_grid() {
        let sys = tree(20);
        let full = FullModel::new(&sys);
        let rom = rom_for(&sys);
        let bad = CornerSweepAnalysis {
            param_a: 0,
            param_b: 9,
            lo: -0.2,
            hi: 0.2,
            points_per_axis: 2,
            metric: ErrorMetric::Poles { num_poles: 1 },
        };
        let err = bad
            .run(&EvalEngine::serial(), Some(&full), &rom)
            .unwrap_err();
        assert!(err.to_string().contains("parameter indices"), "{err}");

        let good = CornerSweepAnalysis { param_b: 1, ..bad };
        let report = good.run(&EvalEngine::new(3), Some(&full), &rom).unwrap();
        assert_eq!(report.metric_value("grid_points"), Some(4.0));
        let grid = report.grid.as_ref().unwrap();
        assert_eq!(grid.values.len(), 2);
        assert!(grid.values.iter().flatten().all(|&e| e < 1.0));
    }

    #[test]
    fn transient_analysis_reports_small_errors_and_delays() {
        let sys = tree(30);
        let full = FullModel::new(&sys);
        let rom = rom_for(&sys);
        let analysis = TransientAnalysis {
            instances: 3,
            sigma: 0.1,
            seed: 0x3C0,
            t_stop: None,
            steps: 150,
            rise: 0.0,
            method: IntegrationMethod::Trapezoidal,
        };
        let report = analysis
            .run(&EvalEngine::new(2), Some(&full), &rom)
            .unwrap();
        // A lowrank ROM reproduces the clock tree's delay to well under a
        // percent, and the auto window is positive and finite.
        assert!(report.metric_value("max_delay_err_percent").unwrap() < 1.0);
        assert!(report.metric_value("t_stop_s").unwrap() > 0.0);
        assert!(report.metric_value("mean_full_delay_s").unwrap() > 0.0);
        assert!(report.metric_value("max_overshoot_err").unwrap() < 0.05);
        // Per-instance delays ride along as a CSV block.
        let csv = report.csv.as_ref().unwrap();
        assert_eq!(csv.x.len(), 3);
        assert_eq!(csv.series.len(), 2);
    }

    #[test]
    fn yield_margin_spec_passes_loose_threshold() {
        let rom = rom_for(&tree(30));
        let analysis = YieldAnalysis {
            instances: 20,
            sigma: 0.1,
            seed: 0x3C0,
            min_pole_rad_s: None,
            margin: 0.5,
        };
        let report = analysis.run(&EvalEngine::new(2), None, &rom).unwrap();
        assert!(report.metric_value("yield_fraction").unwrap() > 0.9);
        assert!(report.metric_value("threshold_rad_s").unwrap() > 0.0);
    }

    /// Yield of the lowrank ROM of `tree(40)` under an absolute floor
    /// (`Some`) or a floor at `margin` × nominal (`None`).
    fn tree40_yield(instances: usize, min_pole_rad_s: Option<f64>, margin: f64) -> AnalysisReport {
        let sys = tree(40);
        let analysis = YieldAnalysis {
            instances,
            sigma: 0.1,
            seed: 0x3C0,
            min_pole_rad_s,
            margin,
        };
        analysis
            .run(&EvalEngine::new(2), None, &rom_for(&sys))
            .unwrap()
    }

    #[test]
    fn yield_trivially_loose_floor_is_one() {
        let report = tree40_yield(30, Some(1.0), 0.9);
        assert_eq!(report.metric_value("yield_fraction"), Some(1.0));
        assert_eq!(report.metric_value("instances"), Some(30.0));
        assert_eq!(report.metric_value("yield_std_error"), Some(0.0));
    }

    #[test]
    fn yield_impossible_floor_is_zero() {
        let report = tree40_yield(30, Some(1e30), 0.9);
        assert_eq!(report.metric_value("yield_fraction"), Some(0.0));
    }

    #[test]
    fn yield_floor_at_nominal_is_strictly_between() {
        // A floor at the nominal dominant-pole magnitude: roughly half the
        // instances should pass.
        let report = tree40_yield(120, None, 1.0);
        let y = report.metric_value("yield_fraction").unwrap();
        assert!(y > 0.15 && y < 0.85, "yield {y} not marginal");
        assert!(report.metric_value("yield_std_error").unwrap() > 0.0);
        // The |λ₁| distribution the floor cuts through.
        let mag = |stat: &str| {
            report
                .metric_value(&format!("pole_mag_{stat}_rad_s"))
                .unwrap()
        };
        let floor = report.metric_value("threshold_rad_s").unwrap();
        assert!(mag("min") < floor && floor < mag("max"), "floor {floor}");
        assert!(mag("min") <= mag("median") && mag("median") <= mag("max"));
        assert!(mag("std") > 0.0);
    }
}
