//! Error-controlled adaptive reduction.
//!
//! Every other method in the registry takes its expansion points and ROM
//! order as *inputs*; this module turns them into *outputs*. A
//! residual-based a-posteriori [`ErrorEstimator`] measures, for a
//! candidate reduced model, the relative residual
//! `‖(G(p) + sC(p)) x̂ − b‖ / ‖b‖` of the lifted reduced solution at
//! probe `(p, s)` points — a quantity that needs **no** sparse
//! factorization at all (one small dense reduced solve plus sparse
//! matrix–vector products), so probing is nearly free next to the
//! reduction itself. A greedy [`AdaptiveDriver`] then starts from the
//! nominal expansion point, repeatedly places the next expansion point
//! where the estimated error peaks, grows the shared Krylov basis
//! through the context's cached factorizations
//! ([`ReductionContext::prefactor_g_at`]), and stops as soon as the
//! user's tolerance is met or a budget (`max_order`, `max_points`) is
//! exhausted.
//!
//! Determinism: the probe grid is a fixed function of the parameter
//! count, every argmax tie breaks toward the lower probe index, and all
//! factorizations route through [`ReductionContext::prefactor_g_at`]
//! (bitwise identical across thread counts), so adaptive runs are
//! bitwise reproducible at any `threads` setting.

use crate::engine::EvalWorkspace;
use crate::prima::krylov_blocks;
use crate::reduce::{registry_defaults as rd, Reducer, ReducerTuning, ReductionContext};
use crate::rom::ParametricRom;
use crate::{PmorError, Result};
use pmor_circuits::ParametricSystem;
use pmor_num::orth::OrthoBasis;
use pmor_num::{Complex64, Matrix};

/// Residual-based a-posteriori error estimator for a reduced model.
///
/// For a candidate ROM reduced with the basis `V` and reduced solution
/// `x_r = (G̃ + sC̃)⁻¹ B̃`, the lifted solution `x̂ = V x_r` leaves the
/// full-system residual `r = b − (G(p) + sC(p)) x̂`. Two views of `r`
/// are combined (the estimate is their maximum, per input column):
///
/// * the relative residual `‖r_j‖₂ / ‖b_j‖₂` — the classic measure, but
///   blind to how the output map weights the solution error;
/// * an output-corrected estimate `‖Lᵀ G₀⁻¹ r_j‖₂ / ‖Lᵀ x̂_j‖₂`, which
///   pushes the residual through the *cached nominal* factors as a
///   stand-in for `A(p, s)⁻¹` — this catches voltage-transfer workloads
///   whose small output gain amplifies relative output error far above
///   the relative residual.
///
/// Probing pays **zero** sparse factorizations: construction draws the
/// nominal `G₀` factors from the shared [`ReductionContext`] cache (the
/// driver's seed point — one factorization total between them), and each
/// probe is a dense reduced solve, sparse matrix–vector products, and
/// triangular solves on those cached factors.
#[derive(Debug)]
pub struct ErrorEstimator<'a> {
    sys: &'a ParametricSystem,
    /// `B` converted to complex once per estimator.
    b: Matrix<Complex64>,
    /// `L` converted to complex once per estimator.
    l: Matrix<Complex64>,
    /// Cached nominal real factors backing the output correction.
    g0: std::sync::Arc<pmor_sparse::SparseLu<f64>>,
}

impl<'a> ErrorEstimator<'a> {
    /// Wraps a full system for residual probing, drawing (or seeding)
    /// the nominal `G₀` factors from the shared context cache.
    ///
    /// # Errors
    ///
    /// Fails when the nominal `G₀` is singular.
    pub fn new(sys: &'a ParametricSystem, ctx: &mut ReductionContext) -> Result<Self> {
        Ok(ErrorEstimator {
            sys,
            b: sys.b.to_complex(),
            l: sys.l.to_complex(),
            g0: ctx.factor_g0(sys)?,
        })
    }

    /// Worst combined error estimate (see the type docs) over input
    /// columns at one probe `(p, s)`, for `rom` reduced with the basis `v`
    /// (`n × q`; the model itself does not keep it).
    ///
    /// # Errors
    ///
    /// Fails when the *reduced* pencil `G̃(p) + sC̃(p)` is singular.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not `sys.dim() × rom.size()`.
    pub fn relative_residual(
        &self,
        rom: &ParametricRom,
        v: &Matrix<f64>,
        p: &[f64],
        s: Complex64,
    ) -> Result<f64> {
        assert_eq!(
            (v.nrows(), v.ncols()),
            (self.sys.dim(), rom.size()),
            "relative_residual: basis shape"
        );
        let mut ws = EvalWorkspace::new();
        rom.assemble(p, &mut ws)?;
        // Small dense reduced solve, on the kernel `ParametricRom::transfer`
        // dispatches to.
        let x_red = rom.solve_pencil(s, &mut ws)?.solution();
        // Lift back to the full space: x̂ = V x_red.
        let x_hat = v.to_complex().mul_mat(&x_red);
        // Sparse residual — assembly and mat-vecs only, no factorization.
        let a_full = self
            .sys
            .g_at(p)
            .to_complex()
            .add_scaled(s, &self.sys.c_at(p).to_complex());
        let mut worst = 0.0f64;
        for j in 0..x_hat.ncols() {
            let xj = x_hat.col(j);
            let ax = a_full.mul_vec(&xj);
            let bj = self.b.col(j);
            let r: Vec<Complex64> = (0..ax.len()).map(|i| bj[i] - ax[i]).collect();
            let res_rel = norm2(&r) / norm2(&bj).max(1e-300);
            // Output correction: ê = G₀⁻¹ r (real factors, re/im parts),
            // δy = Lᵀ ê against the ROM's own output y = Lᵀ x̂.
            let e_re = self.g0.solve(&r.iter().map(|z| z.re).collect::<Vec<_>>())?;
            let e_im = self.g0.solve(&r.iter().map(|z| z.im).collect::<Vec<_>>())?;
            let e_hat: Vec<Complex64> = e_re
                .iter()
                .zip(&e_im)
                .map(|(&re, &im)| Complex64::new(re, im))
                .collect();
            let dy = self.l.tr_mul_vec(&e_hat);
            let y = self.l.tr_mul_vec(&xj);
            let out_rel = norm2(&dy) / norm2(&y).max(1e-300);
            worst = worst.max(res_rel.max(out_rel));
        }
        Ok(worst)
    }

    /// Per-probe-point estimate: for each parameter point, the maximum
    /// [`ErrorEstimator::relative_residual`] over the probe frequencies.
    ///
    /// # Errors
    ///
    /// Propagates [`ErrorEstimator::relative_residual`] errors.
    pub fn probe_errors(
        &self,
        rom: &ParametricRom,
        v: &Matrix<f64>,
        probes: &[Vec<f64>],
        freqs_hz: &[f64],
    ) -> Result<Vec<f64>> {
        probes
            .iter()
            .map(|p| {
                let mut worst = 0.0f64;
                for &f in freqs_hz {
                    let s = Complex64::jw(2.0 * std::f64::consts::PI * f);
                    worst = worst.max(self.relative_residual(rom, v, p, s)?);
                }
                Ok(worst)
            })
            .collect()
    }

    /// Maximum [`ErrorEstimator::relative_residual`] over a probe grid
    /// (every parameter point × every frequency), together with the
    /// index of the worst parameter point. Ties break toward the lower
    /// probe index, keeping the greedy point placement deterministic.
    ///
    /// # Errors
    ///
    /// Propagates [`ErrorEstimator::relative_residual`] errors.
    pub fn worst_over(
        &self,
        rom: &ParametricRom,
        v: &Matrix<f64>,
        probes: &[Vec<f64>],
        freqs_hz: &[f64],
    ) -> Result<(f64, usize)> {
        let errs = self.probe_errors(rom, v, probes, freqs_hz)?;
        Ok(argmax(&errs, |_| true).map_or((0.0, 0), |i| (errs[i], i)))
    }
}

/// Knobs for [`AdaptiveDriver`]. `Default` mirrors
/// [`registry_defaults`](crate::reduce::registry_defaults), so an
/// untuned driver is reproducible across releases only when those
/// constants are unchanged (external caches fold them into their keys).
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveOptions {
    /// Stop once the worst estimated relative residual falls to here.
    pub tolerance: f64,
    /// Hard cap on the reduced order (basis columns).
    pub max_order: usize,
    /// Hard cap on expansion points (sparse factorizations).
    pub max_points: usize,
    /// Number of parameter probe points in the estimation grid.
    pub probe_points: usize,
    /// Krylov `s`-moment blocks added per expansion point.
    pub block_moments: usize,
    /// Half-width of the parameter probe box.
    pub range: f64,
    /// Probe frequencies, Hz (each probed at `s = j·2πf`).
    pub probe_freqs_hz: Vec<f64>,
}

impl Default for AdaptiveOptions {
    fn default() -> Self {
        AdaptiveOptions {
            tolerance: rd::ADAPTIVE_TOLERANCE,
            max_order: rd::ADAPTIVE_MAX_ORDER,
            max_points: rd::ADAPTIVE_MAX_POINTS,
            probe_points: rd::ADAPTIVE_PROBE_POINTS,
            block_moments: rd::SAMPLE_BLOCK_MOMENTS,
            range: rd::SAMPLE_RANGE,
            probe_freqs_hz: rd::ADAPTIVE_PROBE_FREQS_HZ.to_vec(),
        }
    }
}

/// What an adaptive run actually did — stamped into `BENCH_*.json`
/// records by the CLI so every adaptive ROM carries its error evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveReport {
    /// Final worst estimated relative residual over the probe grid.
    pub estimated_error: f64,
    /// Reduced order the driver settled on.
    pub final_order: usize,
    /// Expansion points the driver placed (= sparse factorizations paid).
    pub expansion_points_used: usize,
    /// The expansion points themselves, in placement order.
    pub expansion_points: Vec<Vec<f64>>,
    /// Whether the run stopped because the tolerance was met (`true`) or
    /// because a budget ran out (`false`).
    pub converged: bool,
}

/// Greedy error-controlled reduction driver.
///
/// Starting from the nominal expansion point, each iteration grows the
/// shared orthonormal basis with a Krylov block at the current point,
/// re-projects, estimates the worst relative residual over the probe
/// grid, and — if still above tolerance and under budget — expands next
/// at the probe point where the estimate peaks (each probe point is
/// used at most once). All sparse factorizations go through
/// [`ReductionContext::prefactor_g_at`], so the driver shares the
/// context's factor cache with every other method and is bitwise
/// deterministic across thread counts.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveDriver {
    /// Driver knobs (public so callers can inspect a configured driver).
    pub options: AdaptiveOptions,
}

impl AdaptiveDriver {
    /// Creates a driver with explicit options.
    pub fn new(options: AdaptiveOptions) -> Self {
        AdaptiveDriver { options }
    }

    /// Builds a driver from CLI-style tuning: unset fields fall back to
    /// the same [`registry_defaults`](crate::reduce::registry_defaults)
    /// every other construction path uses.
    pub fn from_tuning(t: &ReducerTuning) -> Self {
        AdaptiveDriver::new(AdaptiveOptions {
            tolerance: t.tolerance.unwrap_or(rd::ADAPTIVE_TOLERANCE),
            max_order: t.max_order.unwrap_or(rd::ADAPTIVE_MAX_ORDER),
            max_points: t.max_points.unwrap_or(rd::ADAPTIVE_MAX_POINTS),
            probe_points: t.probe_points.unwrap_or(rd::ADAPTIVE_PROBE_POINTS),
            block_moments: t.block_moments.unwrap_or(rd::SAMPLE_BLOCK_MOMENTS),
            range: t.range.unwrap_or(rd::SAMPLE_RANGE),
            probe_freqs_hz: rd::ADAPTIVE_PROBE_FREQS_HZ.to_vec(),
        })
    }

    fn validate(&self, sys: &ParametricSystem) -> Result<()> {
        let o = &self.options;
        if !(o.tolerance.is_finite() && o.tolerance > 0.0) {
            return Err(PmorError::Invalid(format!(
                "adaptive: tolerance must be positive and finite, got {}",
                o.tolerance
            )));
        }
        if o.max_order == 0 || o.max_points == 0 || o.probe_points == 0 || o.block_moments == 0 {
            return Err(PmorError::Invalid(
                "adaptive: max_order, max_points, probe_points and block_moments must be ≥ 1"
                    .into(),
            ));
        }
        if o.probe_freqs_hz.is_empty() {
            return Err(PmorError::Invalid(
                "adaptive: at least one probe frequency is required".into(),
            ));
        }
        if !(o.range.is_finite() && o.range > 0.0) {
            return Err(PmorError::Invalid(format!(
                "adaptive: probe range must be positive and finite, got {}",
                o.range
            )));
        }
        if sys.dim() == 0 {
            return Err(PmorError::Invalid("adaptive: empty system".into()));
        }
        Ok(())
    }

    /// Runs the greedy loop and returns both the reduced model and the
    /// [`AdaptiveReport`] describing how it was obtained.
    ///
    /// # Errors
    ///
    /// Fails on invalid options, on a singular `G(p)` at an expansion
    /// point, or on a singular *reduced* probe pencil.
    pub fn reduce_with_report(
        &self,
        sys: &ParametricSystem,
        ctx: &mut ReductionContext,
    ) -> Result<(ParametricRom, AdaptiveReport)> {
        self.reduce_with_basis(sys, ctx)
            .map(|(rom, _, report)| (rom, report))
    }

    /// [`AdaptiveDriver::reduce_with_report`] that also returns the final
    /// `n × q` basis the model was reduced with — what
    /// [`ErrorEstimator`] needs to re-probe the model.
    ///
    /// # Errors
    ///
    /// See [`AdaptiveDriver::reduce_with_report`].
    pub fn reduce_with_basis(
        &self,
        sys: &ParametricSystem,
        ctx: &mut ReductionContext,
    ) -> Result<(ParametricRom, Matrix<f64>, AdaptiveReport)> {
        self.validate(sys)?;
        let o = &self.options;
        let probes = probe_grid(sys.num_params(), o.probe_points, o.range);
        // The estimator seeds (or reuses) the cached nominal factors —
        // the same entry the seed expansion point below draws on, so the
        // pair costs exactly one real factorization.
        let estimator = ErrorEstimator::new(sys, ctx)?;
        let mut basis = OrthoBasis::new(sys.dim());
        // Krylov depth (moment blocks) built so far at each probe point:
        // 0 = never expanded. Revisiting a point deepens its expansion —
        // its `G(p)` factors come back as cache hits, so the number of
        // real factorizations stays exactly the number of *distinct*
        // expansion points.
        let mut depth = vec![0usize; probes.len()];
        let mut expansion_points: Vec<Vec<f64>> = Vec::new();
        // Seed: the nominal point (probe index 0 by construction).
        let mut next = 0usize;
        loop {
            if depth[next] == 0 {
                expansion_points.push(probes[next].clone());
            }
            depth[next] += o.block_moments;
            let point = probes[next].clone();
            let lus = ctx.prefactor_g_at(sys, std::slice::from_ref(&point))?;
            let before = basis.len();
            krylov_blocks(&lus[0], &sys.c_at(&point), &sys.b, depth[next], &mut basis)?;
            let grew = basis.len() > before;

            let v = basis.to_matrix();
            let rom = ParametricRom::by_congruence(sys, &v);
            let errs = estimator.probe_errors(&rom, &v, &probes, &o.probe_freqs_hz)?;
            let worst_idx = argmax(&errs, |_| true).unwrap_or(0);
            let est = errs[worst_idx];
            let converged = est <= o.tolerance;
            // Greedy placement: expand where the estimate peaks. A fresh
            // point spends one unit of the `max_points` budget; once that
            // budget (or the probe list) is exhausted, deepen the worst
            // already-expanded point instead.
            let candidate = if depth[worst_idx] > 0 || expansion_points.len() < o.max_points {
                Some(worst_idx)
            } else {
                argmax(&errs, |i| depth[i] > 0)
            };
            // `!grew` means the whole depth at `next` deflated away — the
            // basis (and therefore the estimate) can no longer change, so
            // continuing would loop forever at the same error.
            if converged || basis.len() >= o.max_order || !grew || candidate.is_none() {
                let report = AdaptiveReport {
                    estimated_error: est,
                    final_order: rom.size(),
                    expansion_points_used: expansion_points.len(),
                    expansion_points,
                    converged,
                };
                return Ok((rom, v, report));
            }
            // pmor-lint: allow(panic-in-lib) reason="`candidate` was checked `is_some` by the loop guard right above"
            next = candidate.expect("checked above");
        }
    }
}

/// Euclidean norm of a complex vector.
fn norm2(v: &[Complex64]) -> f64 {
    v.iter().map(|z| z.abs().powi(2)).sum::<f64>().sqrt()
}

/// Index of the strictly largest kept entry (ties break toward the
/// lower index, keeping greedy selection deterministic).
fn argmax(errs: &[f64], keep: impl Fn(usize) -> bool) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (i, &e) in errs.iter().enumerate() {
        if keep(i) && best.is_none_or(|b| e > errs[b]) {
            best = Some(i);
        }
    }
    best
}

/// Deterministic parameter probe grid: the nominal point first, then
/// rings of box **corners** (mask order) followed by **axis points**
/// (`±scale·eⱼ` — edge midpoints, which corner diagonals miss), with the
/// ring scale shrinking `range, range/2, range/3, …` as rings are
/// exhausted. A pure function of `(np, count, range)` — no randomness —
/// so adaptive runs are reproducible by construction.
pub fn probe_grid(np: usize, count: usize, range: f64) -> Vec<Vec<f64>> {
    if np == 0 {
        return vec![vec![]; count];
    }
    // Cap the corner cycle so the shift arithmetic stays in-range for
    // large parameter counts (beyond 16 axes the leading axes dominate).
    let corners = 1usize << np.min(16);
    let axes = 2 * np;
    let ring_len = corners + axes;
    let mut pts = Vec::with_capacity(count);
    for i in 0..count {
        if i == 0 {
            pts.push(vec![0.0; np]);
            continue;
        }
        let idx = i - 1;
        let ring = idx / ring_len;
        let pos = idx % ring_len;
        let scale = range / (ring + 1) as f64;
        if pos < corners {
            pts.push(
                (0..np)
                    .map(|j| {
                        if j < 16 && (pos >> j) & 1 == 1 {
                            -scale
                        } else {
                            scale
                        }
                    })
                    .collect(),
            );
        } else {
            let a = pos - corners;
            let mut p = vec![0.0; np];
            p[a / 2] = if a.is_multiple_of(2) { scale } else { -scale };
            pts.push(p);
        }
    }
    pts
}

/// [`Reducer`] adapter so `adaptive = true` plugs into the registry's
/// construction path: the wrapped [`AdaptiveDriver`] does the work while
/// the reported name stays the inner multi-shift method's registry name
/// (records and caches remain per-method).
#[derive(Debug, Clone)]
pub struct AdaptiveReducer {
    name: &'static str,
    driver: AdaptiveDriver,
}

impl AdaptiveReducer {
    /// Wraps `driver` under a registry method name (`"multipoint"` or
    /// `"fit"` — the multi-shift-capable kinds).
    pub fn new(name: &'static str, driver: AdaptiveDriver) -> Self {
        AdaptiveReducer { name, driver }
    }

    /// The wrapped driver.
    pub fn driver(&self) -> &AdaptiveDriver {
        &self.driver
    }
}

impl Reducer for AdaptiveReducer {
    fn name(&self) -> &'static str {
        self.name
    }

    fn reduce(&self, sys: &ParametricSystem, ctx: &mut ReductionContext) -> Result<ParametricRom> {
        self.driver.reduce_with_report(sys, ctx).map(|(rom, _)| rom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::FullModel;
    use pmor_circuits::generators::{clock_tree, ClockTreeConfig};

    fn tree(n: usize) -> ParametricSystem {
        clock_tree(&ClockTreeConfig {
            num_nodes: n,
            ..Default::default()
        })
        .assemble()
    }

    #[test]
    fn probe_grid_is_deterministic_and_nominal_first() {
        let a = probe_grid(3, 6, 0.3);
        let b = probe_grid(3, 6, 0.3);
        assert_eq!(a, b);
        assert_eq!(a[0], vec![0.0; 3]);
        assert_eq!(a.len(), 6);
        // Corners come at full half-width with distinct sign patterns.
        assert_eq!(a[1], vec![0.3, 0.3, 0.3]);
        assert_eq!(a[2], vec![-0.3, 0.3, 0.3]);
        for p in &a[1..] {
            assert!(p.iter().all(|v| v.abs() > 0.0));
        }
        // Axis (edge-midpoint) points follow the corner ring, then the
        // whole ring repeats pulled inward.
        let g = probe_grid(2, 14, 0.4);
        assert_eq!(g[5], vec![0.4, 0.0]);
        assert_eq!(g[6], vec![-0.4, 0.0]);
        assert_eq!(g[7], vec![0.0, 0.4]);
        assert_eq!(g[8], vec![0.0, -0.4]);
        assert_eq!(g[9], vec![0.2, 0.2]);
    }

    #[test]
    fn estimator_is_zero_for_an_exact_rom() {
        let sys = tree(12);
        // Identity projection: the "ROM" is the full model, residual ~ 0.
        let v = Matrix::<f64>::identity(sys.dim());
        let rom = ParametricRom::by_congruence(&sys, &v);
        let mut ctx = ReductionContext::new();
        let est = ErrorEstimator::new(&sys, &mut ctx).unwrap();
        let r = est
            .relative_residual(&rom, &v, &[0.1, 0.0, -0.1], Complex64::jw(1e9))
            .unwrap();
        assert!(r < 1e-10, "exact ROM residual {r}");
    }

    #[test]
    fn estimator_flags_a_bad_rom() {
        let sys = tree(30);
        // One-column basis: badly under-resolved.
        let mut v = Matrix::<f64>::zeros(sys.dim(), 1);
        v.as_mut_slice()[0] = 1.0;
        let rom = ParametricRom::by_congruence(&sys, &v);
        let mut ctx = ReductionContext::new();
        let est = ErrorEstimator::new(&sys, &mut ctx).unwrap();
        let r = est
            .relative_residual(
                &rom,
                &v,
                &[0.0; 3],
                Complex64::jw(2.0 * std::f64::consts::PI * 1e9),
            )
            .unwrap();
        assert!(r > 1e-3, "under-resolved ROM residual only {r}");
    }

    #[test]
    fn driver_converges_and_reports_honestly() {
        let sys = tree(40);
        let mut ctx = ReductionContext::new();
        let driver = AdaptiveDriver::new(AdaptiveOptions {
            tolerance: 1e-7,
            ..Default::default()
        });
        let (rom, report) = driver.reduce_with_report(&sys, &mut ctx).unwrap();
        assert!(report.converged, "report: {report:?}");
        assert!(report.estimated_error <= 1e-7);
        assert_eq!(report.final_order, rom.size());
        assert_eq!(report.expansion_points_used, report.expansion_points.len());
        assert_eq!(ctx.real_factorizations(), report.expansion_points_used);
        // The report's estimate is a genuine bound proxy: true transfer
        // error at the nominal point is of the same order or better.
        let full = FullModel::new(&sys);
        let s = Complex64::jw(2.0 * std::f64::consts::PI * 1e9);
        let h_ref = full.transfer(&[0.0; 3], s).unwrap();
        let h = rom.transfer(&[0.0; 3], s).unwrap();
        let err = h_ref.sub_mat(&h).max_abs() / h_ref.max_abs();
        assert!(err <= 1e-6, "true error {err} after converged adaptive run");
    }

    #[test]
    fn driver_respects_budgets() {
        let sys = tree(40);
        let mut ctx = ReductionContext::new();
        let driver = AdaptiveDriver::new(AdaptiveOptions {
            tolerance: 1e-300, // unreachable
            max_points: 2,
            ..Default::default()
        });
        let (_, report) = driver.reduce_with_report(&sys, &mut ctx).unwrap();
        assert!(!report.converged);
        assert_eq!(report.expansion_points_used, 2);

        let mut ctx2 = ReductionContext::new();
        let driver = AdaptiveDriver::new(AdaptiveOptions {
            tolerance: 1e-300,
            max_order: 4,
            ..Default::default()
        });
        let (rom, report) = driver.reduce_with_report(&sys, &mut ctx2).unwrap();
        assert!(!report.converged);
        assert!(
            rom.size() >= 4,
            "order budget must stop growth, not skip it"
        );
    }

    #[test]
    fn driver_rejects_invalid_options() {
        let sys = tree(12);
        let mut ctx = ReductionContext::new();
        for bad in [
            AdaptiveOptions {
                tolerance: 0.0,
                ..Default::default()
            },
            AdaptiveOptions {
                tolerance: f64::NAN,
                ..Default::default()
            },
            AdaptiveOptions {
                max_order: 0,
                ..Default::default()
            },
            AdaptiveOptions {
                probe_freqs_hz: vec![],
                ..Default::default()
            },
        ] {
            assert!(
                AdaptiveDriver::new(bad.clone())
                    .reduce_with_report(&sys, &mut ctx)
                    .is_err(),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn from_tuning_falls_back_to_registry_defaults() {
        let d = AdaptiveDriver::from_tuning(&ReducerTuning::default());
        assert_eq!(d.options, AdaptiveOptions::default());
        let t = ReducerTuning {
            tolerance: Some(1e-4),
            max_order: Some(10),
            ..Default::default()
        };
        let d = AdaptiveDriver::from_tuning(&t);
        assert_eq!(d.options.tolerance, 1e-4);
        assert_eq!(d.options.max_order, 10);
        assert_eq!(d.options.max_points, rd::ADAPTIVE_MAX_POINTS);
    }

    #[test]
    fn adaptive_reducer_matches_driver() {
        let sys = tree(25);
        let driver = AdaptiveDriver::new(AdaptiveOptions::default());
        let (rom_direct, _) = driver
            .reduce_with_report(&sys, &mut ReductionContext::new())
            .unwrap();
        let reducer = AdaptiveReducer::new("multipoint", driver);
        assert_eq!(reducer.name(), "multipoint");
        let rom = reducer.reduce_once(&sys).unwrap();
        assert_eq!(
            crate::rom::to_bytes(&rom),
            crate::rom::to_bytes(&rom_direct)
        );
    }
}
