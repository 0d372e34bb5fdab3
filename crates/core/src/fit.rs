//! Projection-fitting baseline (Liu, Pileggi, Strojwas — ref \[6\] of the
//! paper).
//!
//! The earliest variational moment-matching approach: sample the parameter
//! space, run PRIMA at each sample, and **fit the projection matrix
//! entries** with a low-order polynomial in the parameters (paper Eq. (4)):
//!
//! ```text
//! V(p) ≈ V0 + Σᵢ pᵢ·Vᵢ
//! ```
//!
//! In \[6\] the reduced matrices `V(p)ᵀ·M(p)·V(p)` become polynomials in
//! `p`; the reducer here instead orthonormalizes the span of the fitted
//! coefficients `[V0, …, Vnp]` and projects by congruence, so its ROM is
//! affine in `p` like every other method's. As the paper notes at the end of §3.3, the projection matrix can be *sensitive*
//! to the parameters (Krylov bases rotate arbitrarily between samples),
//! which makes direct fitting less robust than implicit interpolation via a
//! combined projection.

use crate::prima::krylov_blocks;
use crate::reduce::{Reducer, ReductionContext};
use crate::rom::ParametricRom;
use crate::{PmorError, Result};
use pmor_circuits::ParametricSystem;
use pmor_num::lu::LuFactors;
use pmor_num::orth::OrthoBasis;
use pmor_num::Matrix;

/// Options for the projection-fitting reducer.
#[derive(Debug, Clone, PartialEq)]
pub struct FitOptions {
    /// Sample points (each of length `num_params`); must number at least
    /// `num_params + 1` for the linear fit to be determined.
    pub samples: Vec<Vec<f64>>,
    /// Number of `s`-moment blocks per sample.
    pub num_block_moments: usize,
}

/// The projection-fitting reducer.
#[derive(Debug, Clone)]
pub struct FittedProjectionPmor {
    options: FitOptions,
}

impl FittedProjectionPmor {
    /// Creates a reducer with the given options.
    pub fn new(options: FitOptions) -> Self {
        FittedProjectionPmor { options }
    }

    /// Fits the linear projection model `V(p) = V0 + Σ pᵢVᵢ` over the
    /// samples, returning the `np + 1` coefficient matrices
    /// `[V0, V1, …, Vnp]` (all of the common per-sample basis width).
    ///
    /// # Errors
    ///
    /// Fails when there are fewer than `num_params + 1` samples, when a
    /// sampled `G(Pⱼ)` is singular, or when deflation makes the per-sample
    /// bases incompatible in size (the fitting approach breaks down — the
    /// non-robustness the paper describes).
    pub fn fitted_basis(
        &self,
        sys: &ParametricSystem,
        ctx: &mut ReductionContext,
    ) -> Result<Vec<Matrix<f64>>> {
        let np = sys.num_params();
        let ns = self.options.samples.len();
        if ns < np + 1 {
            return Err(PmorError::Invalid(format!(
                "projection fitting needs at least {} samples, got {ns}",
                np + 1
            )));
        }
        for sample in &self.options.samples {
            if sample.len() != np {
                return Err(PmorError::Invalid(
                    "projection fitting: sample parameter count mismatch".into(),
                ));
            }
        }
        // Factor all sample points up front (parallel when the context
        // has worker threads; bitwise-identical factors either way) and
        // consume the returned factors directly.
        let factors = ctx.prefactor_g_at(sys, &self.options.samples)?;
        // Per-sample PRIMA bases (factors shared through the context).
        let mut bases: Vec<Matrix<f64>> = Vec::with_capacity(ns);
        for (sample, lu) in self.options.samples.iter().zip(&factors) {
            let c = sys.c_at(sample);
            let mut basis = OrthoBasis::new(sys.dim());
            krylov_blocks(lu, &c, &sys.b, self.options.num_block_moments, &mut basis)?;
            bases.push(basis.to_matrix());
        }
        let q = bases[0].ncols();
        if bases.iter().any(|b| b.ncols() != q) {
            return Err(PmorError::Invalid(
                "projection fitting: sample bases have inconsistent sizes (deflation)".into(),
            ));
        }

        // Least-squares fit per entry: minimize Σⱼ ‖V0 + Σᵢ pᵢⱼVᵢ − Vⱼ‖².
        // Design matrix X (ns × (np+1)), normal equations (tiny).
        let x = Matrix::from_fn(ns, np + 1, |r, c| {
            if c == 0 {
                1.0
            } else {
                self.options.samples[r][c - 1]
            }
        });
        let xtx = x.tr_mul_mat(&x);
        let xtx_lu = LuFactors::factor(&xtx).map_err(|_| {
            PmorError::Invalid("projection fitting: degenerate sample placement".into())
        })?;
        // Solve for each basis entry: coefficients for all entries at once
        // via (XᵀX)⁻¹ Xᵀ [vec of sampled values].
        let n = sys.dim();
        let mut coeff: Vec<Matrix<f64>> = (0..=np).map(|_| Matrix::zeros(n, q)).collect();
        let mut rhs = vec![0.0; ns];
        for r in 0..n {
            for c in 0..q {
                for (j, basis) in bases.iter().enumerate() {
                    rhs[j] = basis[(r, c)];
                }
                let xtr = x.tr_mul_vec(&rhs);
                let sol = xtx_lu.solve(&xtr)?;
                for (k, &v) in sol.iter().enumerate() {
                    coeff[k][(r, c)] = v;
                }
            }
        }
        Ok(coeff)
    }
}

impl Reducer for FittedProjectionPmor {
    fn name(&self) -> &'static str {
        "fit"
    }

    /// Unified-interface reduction: the span of the fitted coefficient
    /// matrices `[V0, V1, …, Vnp]` is orthonormalized into one projection
    /// and applied by **congruence**: this yields an affine
    /// [`ParametricRom`] that is exact at the fit
    /// center and passivity-preserving, making the method comparable to
    /// the other registered reducers on equal terms.
    fn reduce(&self, sys: &ParametricSystem, ctx: &mut ReductionContext) -> Result<ParametricRom> {
        let coeff = self.fitted_basis(sys, ctx)?;
        let mut basis = OrthoBasis::new(sys.dim());
        for v in &coeff {
            basis.insert_block(v);
        }
        Ok(ParametricRom::by_congruence(sys, &basis.to_matrix()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::FullModel;
    use pmor_circuits::generators::{clock_tree, ClockTreeConfig};
    use pmor_num::Complex64;

    fn tree(n: usize) -> ParametricSystem {
        clock_tree(&ClockTreeConfig {
            num_nodes: n,
            ..Default::default()
        })
        .assemble()
    }

    fn star_samples(np: usize, delta: f64) -> Vec<Vec<f64>> {
        let mut s = vec![vec![0.0; np]];
        for i in 0..np {
            let mut plus = vec![0.0; np];
            plus[i] = delta;
            s.push(plus);
            let mut minus = vec![0.0; np];
            minus[i] = -delta;
            s.push(minus);
        }
        s
    }

    #[test]
    fn needs_enough_samples() {
        let sys = tree(20);
        let opts = FitOptions {
            samples: vec![vec![0.0; 3]],
            num_block_moments: 2,
        };
        assert!(FittedProjectionPmor::new(opts).reduce_once(&sys).is_err());
    }

    #[test]
    fn exact_at_nominal_center() {
        let sys = tree(25);
        let rom = FittedProjectionPmor::new(FitOptions {
            samples: star_samples(3, 0.2),
            num_block_moments: 4,
        })
        .reduce_once(&sys)
        .unwrap();
        let full = FullModel::new(&sys);
        let p = [0.0; 3];
        let s = Complex64::jw(2.0 * std::f64::consts::PI * 1e8);
        let hf = full.transfer(&p, s).unwrap()[(0, 0)];
        let hr = rom.transfer(&p, s).unwrap()[(0, 0)];
        let err = (hf - hr).abs() / hf.abs();
        // The projection spans V0, the fitted center ≈ the nominal PRIMA
        // basis.
        assert!(err < 1e-4, "err = {err}");
    }

    #[test]
    fn tracks_small_perturbations() {
        let sys = tree(25);
        let rom = FittedProjectionPmor::new(FitOptions {
            samples: star_samples(3, 0.3),
            num_block_moments: 4,
        })
        .reduce_once(&sys)
        .unwrap();
        let full = FullModel::new(&sys);
        let p = [0.15, -0.1, 0.2];
        let s = Complex64::jw(2.0 * std::f64::consts::PI * 1e8);
        let hf = full.transfer(&p, s).unwrap()[(0, 0)];
        let hr = rom.transfer(&p, s).unwrap()[(0, 0)];
        let err = (hf - hr).abs() / hf.abs();
        assert!(err < 0.05, "err = {err}");
    }

    #[test]
    fn poles_stay_in_left_half_plane_near_center() {
        let sys = tree(25);
        let rom = FittedProjectionPmor::new(FitOptions {
            samples: star_samples(3, 0.2),
            num_block_moments: 3,
        })
        .reduce_once(&sys)
        .unwrap();
        let poles = rom.dominant_poles(&[0.05, 0.0, -0.05], 3).unwrap();
        for z in poles {
            assert!(z.re < 0.0, "unstable fitted pole {z}");
        }
    }
}
