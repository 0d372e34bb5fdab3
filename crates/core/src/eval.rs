//! Full-model reference evaluation.
//!
//! The experiments compare reduced models against the *full* parametric
//! system: frequency responses via sparse complex LU solves of
//! `(G(p) + sC(p)) x = B`, and exact dominant poles via the dense pencil
//! eigensolver (affordable for the paper's pole-accuracy nets, 78 and 333
//! nodes).

use crate::engine::{EvalWorkspace, TransferModel};
use crate::reduce::{system_fingerprint, union_pattern};
use crate::rom::pencil_poles;
use crate::Result;
use pmor_circuits::ParametricSystem;
use pmor_num::{Complex64, Matrix};
use pmor_sparse::{OrderingChoice, SparseLu};

/// Reference evaluator wrapping a full parametric system.
///
/// Construction precomputes (once per model) the fill-reducing ordering
/// (RCM unless [`FullModel::with_ordering`] picks another policy) of the
/// **union** sparsity pattern of every system matrix —
/// valid at any `(p, s)` since an ordering only affects fill-in, never
/// values — so repeated [`FullModel::transfer`] calls stop paying a
/// per-call ordering pass.
#[derive(Debug, Clone)]
pub struct FullModel<'a> {
    sys: &'a ParametricSystem,
    /// Fill-reducing ordering of the union pattern, shared by every
    /// evaluation.
    perm: Vec<usize>,
    /// Content fingerprint keying per-model caches in [`EvalWorkspace`].
    fingerprint: u64,
}

impl<'a> FullModel<'a> {
    /// Wraps a system for evaluation (computes the shared fill-reducing
    /// ordering once).
    pub fn new(sys: &'a ParametricSystem) -> Self {
        FullModel::with_ordering(sys, OrderingChoice::Rcm)
    }

    /// Like [`FullModel::new`] but with an explicit ordering policy —
    /// large meshes evaluate noticeably faster under
    /// [`OrderingChoice::Amd`]. [`OrderingChoice::Rcm`] reproduces
    /// [`FullModel::new`] exactly; orderings only affect fill-in, never
    /// transfer values (though floating-point summation order — and so
    /// the low-order bits — can differ between policies).
    pub fn with_ordering(sys: &'a ParametricSystem, choice: OrderingChoice) -> Self {
        FullModel {
            sys,
            perm: choice.resolve(&union_pattern(sys)),
            fingerprint: system_fingerprint(sys),
        }
    }

    /// Evaluates `H(s, p) = Lᵀ (G(p) + s C(p))⁻¹ B` with one sparse complex
    /// factorization (reusing the model's precomputed ordering).
    ///
    /// # Errors
    ///
    /// Fails when `G(p) + sC(p)` is singular.
    pub fn transfer(&self, p: &[f64], s: Complex64) -> Result<Matrix<Complex64>> {
        let g = self.sys.g_at(p).to_complex();
        let c = self.sys.c_at(p).to_complex();
        let a = g.add_scaled(s, &c);
        let lu = SparseLu::factor(&a, Some(&self.perm))?;
        let bc = self.sys.b.to_complex();
        let x = lu.solve_dense(&bc)?;
        Ok(self.sys.l.to_complex().tr_mul_mat(&x))
    }

    /// [`FullModel::transfer`] drawing scratch from a reusable
    /// [`EvalWorkspace`]: the complex `G(p)`/`C(p)` assemblies are
    /// memoized per parameter point (so a frequency sweep at one `p`
    /// assembles once) and the complex port maps are converted once per
    /// model. Values are bitwise identical to [`FullModel::transfer`].
    ///
    /// # Errors
    ///
    /// Fails when `G(p) + sC(p)` is singular.
    pub fn transfer_with(
        &self,
        p: &[f64],
        s: Complex64,
        ws: &mut EvalWorkspace,
    ) -> Result<Matrix<Complex64>> {
        // pmor-lint: allow(alloc-in-kernel) reason="full-model reference path: each call factors a fresh sparse LU anyway; the allocation-free contract targets the *_into ROM kernels"
        let pbits: Vec<u64> = p.iter().map(|v| v.to_bits()).collect();
        let wanted = (self.fingerprint, pbits);
        if ws.full_key.as_ref() != Some(&wanted) {
            ws.full_g = Some(self.sys.g_at(p).to_complex());
            ws.full_c = Some(self.sys.c_at(p).to_complex());
            ws.full_key = Some(wanted);
        }
        if ws.full_io_key != Some(self.fingerprint) {
            ws.full_b = Some(self.sys.b.to_complex());
            ws.full_l = Some(self.sys.l.to_complex());
            ws.full_io_key = Some(self.fingerprint);
        }
        let (g, c) = (
            // pmor-lint: allow(panic-in-lib) reason="the workspace caches are populated by the key checks immediately above"
            ws.full_g.as_ref().expect("assembled above"),
            // pmor-lint: allow(panic-in-lib) reason="the workspace caches are populated by the key checks immediately above"
            ws.full_c.as_ref().expect("assembled above"),
        );
        let a = g.add_scaled(s, c);
        let lu = SparseLu::factor(&a, Some(&self.perm))?;
        // pmor-lint: allow(panic-in-lib) reason="the workspace caches are populated by the key checks immediately above"
        let x = lu.solve_dense(ws.full_b.as_ref().expect("converted above"))?;
        // pmor-lint: allow(panic-in-lib) reason="the workspace caches are populated by the key checks immediately above"
        Ok(ws.full_l.as_ref().expect("converted above").tr_mul_mat(&x))
    }

    /// All finite poles of the full pencil `(G(p), C(p))` by dense
    /// eigendecomposition — exact but `O(n³)`; intended for the paper's
    /// pole-accuracy experiments (n ≤ a few hundred).
    ///
    /// # Errors
    ///
    /// Fails when `G(p)` is singular or the eigensolver stalls.
    pub fn poles(&self, p: &[f64]) -> Result<Vec<Complex64>> {
        let g = self.sys.g_at(p).to_dense();
        let c = self.sys.c_at(p).to_dense();
        pencil_poles(&g, &c)
    }

    /// The `count` most dominant (smallest-magnitude) finite poles.
    ///
    /// # Errors
    ///
    /// Propagates [`FullModel::poles`] errors.
    pub fn dominant_poles(&self, p: &[f64], count: usize) -> Result<Vec<Complex64>> {
        let mut poles = self.poles(p)?;
        poles.truncate(count);
        Ok(poles)
    }
}

impl TransferModel for FullModel<'_> {
    fn kind(&self) -> &'static str {
        "full"
    }

    fn dim(&self) -> usize {
        self.sys.dim()
    }

    fn num_params(&self) -> usize {
        self.sys.num_params()
    }

    fn num_inputs(&self) -> usize {
        self.sys.num_inputs()
    }

    fn num_outputs(&self) -> usize {
        self.sys.num_outputs()
    }

    fn transient(
        &self,
        p: &[f64],
        stimuli: &[crate::transient::Stimulus],
        opts: &crate::transient::TransientOptions,
        _ws: &mut EvalWorkspace,
    ) -> Result<crate::transient::TransientResult> {
        // Sparse path: nothing dense to reuse from the workspace, but the
        // model's precomputed union-pattern ordering replaces the
        // per-call RCM pass.
        crate::transient::simulate_full_ordered(self.sys, p, stimuli, opts, Some(&self.perm))
    }

    fn transfer(&self, p: &[f64], s: Complex64) -> Result<Matrix<Complex64>> {
        FullModel::transfer(self, p, s)
    }

    fn dominant_poles(&self, p: &[f64], count: usize) -> Result<Vec<Complex64>> {
        FullModel::dominant_poles(self, p, count)
    }

    fn transfer_with(
        &self,
        p: &[f64],
        s: Complex64,
        ws: &mut EvalWorkspace,
    ) -> Result<Matrix<Complex64>> {
        FullModel::transfer_with(self, p, s, ws)
    }
}

/// Relative error between matched dominant pole lists, pairing each
/// reference pole with the closest candidate: `|λ_ref - λ| / |λ_ref|`.
/// Returns one error per reference pole.
pub fn pole_errors(reference: &[Complex64], candidate: &[Complex64]) -> Vec<f64> {
    reference
        .iter()
        .map(|&r| {
            candidate
                .iter()
                .map(|&c| (r - c).abs() / r.abs().max(1e-300))
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmor_circuits::generators::{clock_tree, ClockTreeConfig};

    fn tree(n: usize) -> ParametricSystem {
        clock_tree(&ClockTreeConfig {
            num_nodes: n,
            ..Default::default()
        })
        .assemble()
    }

    #[test]
    fn dc_transfer_is_driving_point_resistance() {
        let sys = tree(25);
        let full = FullModel::new(&sys);
        let h = full.transfer(&[0.0, 0.0, 0.0], Complex64::ZERO).unwrap();
        // Driving-point resistance at the root = driver 40 Ω to ground (all
        // other paths end in capacitors).
        assert!((h[(0, 0)].re - 40.0).abs() < 1e-6, "{:?}", h[(0, 0)]);
    }

    #[test]
    fn poles_are_stable_and_real_for_rc_tree() {
        let sys = tree(25);
        let full = FullModel::new(&sys);
        let poles = full.poles(&[0.0, 0.0, 0.0]).unwrap();
        assert!(!poles.is_empty());
        for z in &poles {
            assert!(z.re < 0.0, "unstable pole {z}");
            assert!(z.im.abs() < 1e-3 * z.re.abs(), "complex pole in RC net {z}");
        }
        // Sorted by dominance.
        for w in poles.windows(2) {
            assert!(w[0].abs() <= w[1].abs() + 1e-6);
        }
    }

    #[test]
    fn perturbation_moves_poles() {
        let sys = tree(25);
        let full = FullModel::new(&sys);
        let p0 = full.dominant_poles(&[0.0; 3], 3).unwrap();
        let p1 = full.dominant_poles(&[0.3, 0.3, 0.3], 3).unwrap();
        let errs = pole_errors(&p0, &p1);
        assert!(
            errs.iter().any(|&e| e > 1e-3),
            "poles insensitive: {errs:?}"
        );
    }

    #[test]
    fn pole_errors_zero_for_identical_lists() {
        let poles = vec![Complex64::new(-1.0, 2.0), Complex64::new(-3.0, 0.0)];
        let errs = pole_errors(&poles, &poles);
        assert!(errs.iter().all(|&e| e < 1e-15));
    }

    #[test]
    fn with_ordering_rcm_is_new_and_other_policies_agree() {
        let sys = tree(25);
        let p = [0.1, 0.0, -0.1];
        let s = Complex64::jw(2.0 * std::f64::consts::PI * 1e9);
        let reference = FullModel::new(&sys);
        let href = reference.transfer(&p, s).unwrap();
        for choice in [OrderingChoice::Rcm, OrderingChoice::Amd] {
            let full = FullModel::with_ordering(&sys, choice);
            let h = full.transfer(&p, s).unwrap();
            let err = (h[(0, 0)] - href[(0, 0)]).abs() / href[(0, 0)].abs();
            assert!(err < 1e-9, "{choice:?}: {err:e}");
            if choice == OrderingChoice::Rcm {
                assert_eq!(full.perm, reference.perm, "Rcm must reproduce new()");
            }
        }
    }

    #[test]
    fn frequency_response_is_the_pointwise_transfer_bitwise() {
        use crate::lowrank::LowRankPmor;
        use crate::reduce::Reducer;
        let sys = tree(25);
        let full = FullModel::new(&sys);
        let rom = LowRankPmor::with_defaults().reduce_once(&sys).unwrap();
        let (p, freqs) = ([0.2, -0.1, 0.3], [1e6, 3e8, 1e10]);
        for model in [&full as &dyn TransferModel, &rom] {
            let sweep = model.frequency_response(&p, &freqs).unwrap();
            for (h, &f) in sweep.iter().zip(&freqs) {
                let s = Complex64::jw(2.0 * std::f64::consts::PI * f);
                let want = model.transfer(&p, s).unwrap();
                for (a, b) in h.as_slice().iter().zip(want.as_slice()) {
                    assert_eq!(a.re.to_bits(), b.re.to_bits(), "{} at {f}", model.kind());
                    assert_eq!(a.im.to_bits(), b.im.to_bits(), "{} at {f}", model.kind());
                }
            }
        }
    }

    #[test]
    fn frequency_response_is_lowpass() {
        let sys = tree(25);
        let full = FullModel::new(&sys);
        let resp = full.frequency_response(&[0.0; 3], &[1e6, 1e11]).unwrap();
        // Driving-point impedance magnitude falls as caps short out.
        assert!(resp[0][(0, 0)].abs() > resp[1][(0, 0)].abs());
    }
}
