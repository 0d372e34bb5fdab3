//! Algorithm 1: low-rank approximation based single-point multi-parameter
//! moment matching (paper §4 — the headline contribution).
//!
//! The key idea: take optimal rank-`k_svd` SVD approximations of the
//! *generalized sensitivity matrices*
//!
//! ```text
//! G0⁻¹Gᵢ ≈ Û_Gi·V̂_Giᵀ,      G0⁻¹Cᵢ ≈ Û_Ci·V̂_Ciᵀ
//! ```
//!
//! Substituted into the moment expansion (paper Eq. (12)–(13)), every
//! parameter-bearing moment term factors through the low-rank vectors, which
//! **decouples** the Krylov subspace construction of each parameter from the
//! frequency variable: the cross-term blow-up of the single-point method
//! (§3.2) disappears, and the subspaces can be computed independently with
//! nothing but the one-time factorization of `G0`:
//!
//! * `V0`        = `Kr(A0, R0, k)` — the plain PRIMA space (step 2.1),
//! * `V_{Gi,1}`  = `Kr(A0, Û_Gi, k)` and `V_{Ci,1} = Kr(A0, Û_Ci, k)`,
//! * `V_{Gi,2}`  = `Kr(Ã0ᵀ, Ṽ_Gi, k)` with `Ṽ_Gi = -G0⁻ᵀ·V̂_Gi` and
//!   `Ã0ᵀ = -G0⁻ᵀC0ᵀ` (step 2.2), computed by **transpose solves** on the
//!   same factors (§4.2),
//!
//! all orthonormalized together (step 3) and applied by congruence to the
//! *original* (not low-rank) sensitivity matrices (step 4), which also
//! preserves passivity (§4.1).
//!
//! The simplified variant noted in §4.1 — drop the `Ã0ᵀ` subspaces and add
//! `V̂_Gi/V̂_Ci` directly — halves the model size at some accuracy cost; it is
//! selected by [`LowRankOptions::include_transpose_subspaces`].

use crate::opsvd::{operator_svd, GeneralizedSensitivity, OperatorSvdOptions};
use crate::prima::{krylov_blocks, krylov_from};
use crate::reduce::{Reducer, ReductionContext};
use crate::rom::ParametricRom;
use crate::Result;
use pmor_circuits::ParametricSystem;
use pmor_num::orth::OrthoBasis;
use pmor_num::Matrix;
use pmor_sparse::{CsrMatrix, SparseLu};

/// Options for [`LowRankPmor`].
#[derive(Debug, Clone, PartialEq)]
pub struct LowRankOptions {
    /// Number of `s`-moment blocks in `V0` (the paper's `k` for the
    /// frequency variable).
    pub s_order: usize,
    /// Number of Krylov blocks per parameter subspace (the matching order of
    /// parameter-bearing moments).
    pub param_order: usize,
    /// SVD rank `k_svd` per generalized sensitivity ("rank-one is usually
    /// sufficient" — paper §4.2).
    pub rank: usize,
    /// Keep the `Ã0ᵀ` subspaces of step 2.2 (`true` = full Algorithm 1;
    /// `false` = the §4.1 simplified variant of roughly half the size).
    pub include_transpose_subspaces: bool,
    /// Apply low-rank approximation to the **raw** sensitivities `Gᵢ/Cᵢ`
    /// instead of the generalized ones — the strictly worse alternative the
    /// paper calls out in §4; exposed for the ablation benchmark.
    pub approximate_raw_sensitivities: bool,
    /// Randomized-SVD sketch options.
    pub svd: OperatorSvdOptions,
}

impl Default for LowRankOptions {
    fn default() -> Self {
        LowRankOptions {
            s_order: 5,
            param_order: 2,
            rank: 1,
            include_transpose_subspaces: true,
            approximate_raw_sensitivities: false,
            svd: OperatorSvdOptions::default(),
        }
    }
}

/// Size/cost diagnostics of a low-rank reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LowRankStats {
    /// Sparse factorizations performed: 1 from a cold context (the
    /// paper's headline), 0 when the shared context already held the `G0`
    /// factors.
    pub factorizations: usize,
    /// Directions contributed by the frequency subspace `V0`.
    pub v0_size: usize,
    /// Directions contributed by all parameter subspaces.
    pub param_size: usize,
    /// Final reduced model size.
    pub size: usize,
}

/// The low-rank parametric reducer (Algorithm 1).
///
/// # Example
///
/// ```
/// use pmor_circuits::generators::{clock_tree, ClockTreeConfig};
/// use pmor::lowrank::{LowRankPmor, LowRankOptions};
///
/// # fn main() -> Result<(), pmor::PmorError> {
/// let sys = clock_tree(&ClockTreeConfig { num_nodes: 40, ..Default::default() }).assemble();
/// use pmor::{Reducer, ReductionContext};
/// let rom = LowRankPmor::new(LowRankOptions::default())
///     .reduce(&sys, &mut ReductionContext::new())?;
/// assert!(rom.size() < sys.dim());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LowRankPmor {
    options: LowRankOptions,
}

impl LowRankPmor {
    /// Creates a reducer with the given options.
    pub fn new(options: LowRankOptions) -> Self {
        LowRankPmor { options }
    }

    /// Creates a reducer with default options.
    pub fn with_defaults() -> Self {
        LowRankPmor::new(LowRankOptions::default())
    }

    /// Computes the Algorithm-1 projection basis.
    ///
    /// # Errors
    ///
    /// Fails when `G0` is singular.
    pub fn projection(
        &self,
        sys: &ParametricSystem,
        ctx: &mut ReductionContext,
    ) -> Result<Matrix<f64>> {
        let (v, _stats) = self.projection_with_stats(sys, ctx)?;
        Ok(v)
    }

    /// Computes the projection and the size diagnostics, drawing the
    /// one-time `G0` factorization from the shared context (every solve
    /// of Algorithm 1 — Krylov recurrences, randomized SVD sketches and
    /// the transpose subspaces of step 2.2 — reuses those factors).
    ///
    /// # Errors
    ///
    /// Fails when `G0` is singular.
    pub fn projection_with_stats(
        &self,
        sys: &ParametricSystem,
        ctx: &mut ReductionContext,
    ) -> Result<(Matrix<f64>, LowRankStats)> {
        let o = &self.options;
        let before = ctx.real_factorizations();
        let lu = ctx.factor_g0(sys)?;
        let factorizations = ctx.real_factorizations() - before;
        let mut basis = OrthoBasis::new(sys.dim());

        // Step 2.1: the frequency subspace V0.
        let v0_size = krylov_blocks(&lu, &sys.c0, &sys.b, o.s_order, &mut basis)?;

        // Steps 1 + 2.2 for every sensitivity matrix.
        let mut param_size = 0;
        let mut svd_seed = o.svd.seed;
        for i in 0..sys.num_params() {
            for mat in [&sys.gi[i], &sys.ci[i]] {
                if mat.nnz() == 0 {
                    continue;
                }
                svd_seed = svd_seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
                param_size += self.add_parameter_subspaces(&lu, sys, mat, svd_seed, &mut basis)?;
            }
        }

        let v = basis.to_matrix();
        let stats = LowRankStats {
            factorizations,
            v0_size,
            param_size,
            size: v.ncols(),
        };
        Ok((v, stats))
    }

    /// Step 1 (low-rank SVD) and step 2.2 (Krylov subspaces) for one
    /// sensitivity matrix; returns the number of directions added.
    fn add_parameter_subspaces(
        &self,
        lu: &SparseLu<f64>,
        sys: &ParametricSystem,
        mat: &CsrMatrix<f64>,
        seed: u64,
        basis: &mut OrthoBasis<f64>,
    ) -> Result<usize> {
        let o = &self.options;
        let svd_opts = OperatorSvdOptions {
            seed,
            rank: o.rank,
            ..o.svd.clone()
        };
        let svd = if o.approximate_raw_sensitivities {
            // Ablation: approximate the raw sensitivity matrix. The left
            // vectors must still be mapped into moment space through G0⁻¹
            // to seed the A0-Krylov recurrence.
            let raw = operator_svd(mat, &svd_opts)?;
            pmor_num::svd::Svd {
                u: lu.solve_block(&raw.u)?,
                sigma: raw.sigma,
                v: raw.v,
            }
        } else {
            let op = GeneralizedSensitivity::new(lu, mat);
            operator_svd(&op, &svd_opts)?
        };

        let mut added = 0;
        // Forward subspace: Kr(A0, Û, k).
        added += krylov_from(
            |v| {
                let cv = sys.c0.mul_vec(v);
                let mut w = lu.solve(&cv)?;
                for x in w.iter_mut() {
                    *x = -*x;
                }
                Ok(w)
            },
            &svd.u,
            o.param_order,
            basis,
        )?;

        if o.include_transpose_subspaces {
            // Ṽ = -G0⁻ᵀ·V̂, then Kr(Ã0ᵀ, Ṽ, k) with Ã0ᵀ = -G0⁻ᵀC0ᵀ; both use
            // transpose solves on the same factors.
            let mut vt = lu.solve_transpose_block(&svd.v)?;
            for x in vt.as_mut_slice() {
                *x = -*x;
            }
            added += krylov_from(
                |v| {
                    let ctv = sys.c0.tr_mul_vec(v);
                    let mut w = lu.solve_transpose(&ctv)?;
                    for x in w.iter_mut() {
                        *x = -*x;
                    }
                    Ok(w)
                },
                &vt,
                o.param_order,
                basis,
            )?;
        } else {
            // Simplified §4.1 variant: add the right singular vectors
            // directly.
            let mut block = Matrix::zeros(sys.dim(), svd.v.ncols());
            for j in 0..svd.v.ncols() {
                block.set_col(j, &svd.v.col(j));
            }
            let mut b = 0;
            for j in 0..block.ncols() {
                if basis.insert(&block.col(j)) {
                    b += 1;
                }
            }
            added += b;
        }
        Ok(added)
    }

    /// Reduces and returns size diagnostics.
    ///
    /// # Errors
    ///
    /// Fails when `G0` is singular.
    pub fn reduce_with_stats(
        &self,
        sys: &ParametricSystem,
        ctx: &mut ReductionContext,
    ) -> Result<(ParametricRom, LowRankStats)> {
        let (v, stats) = self.projection_with_stats(sys, ctx)?;
        Ok((ParametricRom::by_congruence(sys, &v), stats))
    }

    /// Builds the *nearby* low-rank-approximated system of Theorem 1: the
    /// parametric system whose sensitivities are replaced by their low-rank
    /// reconstructions `G̃ᵢ = G0·(ÛV̂ᵀ)`. The reduced model provably matches
    /// this system's moments to the configured order; used by the
    /// moment-matching verification tests.
    ///
    /// # Errors
    ///
    /// Fails when `G0` is singular.
    pub fn nearby_system(&self, sys: &ParametricSystem) -> Result<ParametricSystem> {
        let o = &self.options;
        let lu = ReductionContext::new().factor_g0(sys)?;
        let mut svd_seed = o.svd.seed;
        let mut approximate = |mat: &CsrMatrix<f64>| -> Result<CsrMatrix<f64>> {
            if mat.nnz() == 0 {
                return Ok(mat.clone());
            }
            svd_seed = svd_seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let op = GeneralizedSensitivity::new(&lu, mat);
            let svd = operator_svd(
                &op,
                &OperatorSvdOptions {
                    seed: svd_seed,
                    rank: o.rank,
                    ..o.svd.clone()
                },
            )?;
            // M̂ = G0 · (Û Σ V̂ᵀ): dense product re-sparsified.
            let usv = svd.reconstruct();
            let g0_usv = sys.g0.mul_dense(&usv);
            Ok(CsrMatrix::from_dense(&g0_usv, 0.0))
        };
        let mut gi = Vec::with_capacity(sys.num_params());
        let mut ci = Vec::with_capacity(sys.num_params());
        for i in 0..sys.num_params() {
            gi.push(approximate(&sys.gi[i])?);
            ci.push(approximate(&sys.ci[i])?);
        }
        Ok(ParametricSystem {
            g0: sys.g0.clone(),
            c0: sys.c0.clone(),
            gi,
            ci,
            b: sys.b.clone(),
            l: sys.l.clone(),
        })
    }
}

impl Reducer for LowRankPmor {
    fn name(&self) -> &'static str {
        "lowrank"
    }

    fn reduce(&self, sys: &ParametricSystem, ctx: &mut ReductionContext) -> Result<ParametricRom> {
        let v = self.projection(sys, ctx)?;
        Ok(ParametricRom::by_congruence(sys, &v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::FullModel;
    use pmor_circuits::generators::{clock_tree, rc_random, ClockTreeConfig, RcRandomConfig};
    use pmor_num::Complex64;

    fn tree(n: usize) -> ParametricSystem {
        clock_tree(&ClockTreeConfig {
            num_nodes: n,
            ..Default::default()
        })
        .assemble()
    }

    #[test]
    fn single_factorization_and_size_accounting() {
        let sys = tree(40);
        let (rom, stats) = LowRankPmor::with_defaults()
            .reduce_with_stats(&sys, &mut ReductionContext::new())
            .unwrap();
        assert_eq!(stats.factorizations, 1);
        assert_eq!(stats.size, rom.size());
        assert_eq!(stats.size, stats.v0_size + stats.param_size);
        assert!(rom.size() < sys.dim());
    }

    #[test]
    fn captures_parametric_response() {
        let sys = tree(50);
        let rom = LowRankPmor::new(LowRankOptions {
            s_order: 6,
            param_order: 3,
            rank: 2,
            ..Default::default()
        })
        .reduce_once(&sys)
        .unwrap();
        let full = FullModel::new(&sys);
        for p in [[0.3, 0.3, 0.3], [-0.3, 0.2, -0.1], [0.0, -0.3, 0.3]] {
            for f_hz in [1e7, 1e9, 5e9] {
                let s = Complex64::jw(2.0 * std::f64::consts::PI * f_hz);
                let hf = full.transfer(&p, s).unwrap()[(0, 0)];
                let hr = rom.transfer(&p, s).unwrap()[(0, 0)];
                let err = (hf - hr).abs() / hf.abs();
                assert!(err < 5e-3, "p={p:?} f={f_hz}: err={err}");
            }
        }
    }

    #[test]
    fn beats_nominal_projection_under_perturbation() {
        // The point of the paper's figures: the nominal PRIMA projection
        // fails to track parameter variation, the low-rank model does not.
        let sys = rc_random(&RcRandomConfig {
            num_nodes: 120,
            ..Default::default()
        })
        .assemble();
        let full = FullModel::new(&sys);
        let lowrank = LowRankPmor::new(LowRankOptions {
            s_order: 6,
            param_order: 3,
            rank: 2,
            ..Default::default()
        })
        .reduce_once(&sys)
        .unwrap();
        let nominal = crate::prima::Prima::new(crate::prima::PrimaOptions {
            num_block_moments: 8,
        })
        .reduce_once(&sys)
        .unwrap();
        let p = [0.6, 0.6];
        let mut err_low: f64 = 0.0;
        let mut err_nom: f64 = 0.0;
        for f_hz in [1e8, 1e9, 3e9] {
            let s = Complex64::jw(2.0 * std::f64::consts::PI * f_hz);
            let hf = full.transfer(&p, s).unwrap()[(0, 0)];
            let hl = lowrank.transfer(&p, s).unwrap()[(0, 0)];
            let hn = nominal.transfer(&p, s).unwrap()[(0, 0)];
            err_low = err_low.max((hf - hl).abs() / hf.abs());
            err_nom = err_nom.max((hf - hn).abs() / hf.abs());
        }
        assert!(
            err_low < err_nom,
            "low-rank {err_low} should beat nominal {err_nom}"
        );
        assert!(err_low < 0.05, "low-rank error too large: {err_low}");
    }

    #[test]
    fn matches_moments_of_nearby_system() {
        // Theorem 1: the ROM matches the multi-parameter moments of the
        // low-rank-approximated nearby system up to the configured order.
        let sys = tree(16);
        let reducer = LowRankPmor::new(LowRankOptions {
            s_order: 3,
            param_order: 2,
            rank: 1,
            ..Default::default()
        });
        let nearby = reducer.nearby_system(&sys).unwrap();
        let rom_of_nearby = {
            // Reduce the nearby system with the same projection.
            let v = reducer
                .projection(&sys, &mut ReductionContext::new())
                .unwrap();
            ParametricRom::by_congruence(&nearby, &v)
        };
        let k = 1; // verify the order-1 cross moments exactly
        let w0 = crate::moments::frequency_scale(&nearby);
        let full_m = crate::moments::multi_parameter_transfer_moments(&nearby, k).unwrap();
        let rom_m =
            crate::moments::rom_multi_parameter_transfer_moments(&rom_of_nearby, k, w0).unwrap();
        let global = full_m.values().map(Matrix::max_abs).fold(0.0, f64::max);
        for (idx, mf) in &full_m {
            let mr = &rom_m[idx];
            let scale = mf.max_abs().max(1e-6 * global);
            let diff = mf.sub_mat(mr).max_abs() / scale;
            assert!(diff < 1e-5, "moment {idx:?}: {diff}");
        }
    }

    #[test]
    fn full_rank_approximation_matches_original_moments() {
        // With k_svd = n the low-rank approximation is exact, so the ROM
        // matches the ORIGINAL system's moments.
        let sys = tree(12);
        let reducer = LowRankPmor::new(LowRankOptions {
            s_order: 2,
            param_order: 2,
            rank: 12,
            svd: OperatorSvdOptions {
                rank: 12,
                oversample: 4,
                power_iterations: 4,
                seed: 7,
            },
            ..Default::default()
        });
        let rom = reducer.reduce_once(&sys).unwrap();
        let k = 1;
        let w0 = crate::moments::frequency_scale(&sys);
        let full_m = crate::moments::multi_parameter_transfer_moments(&sys, k).unwrap();
        let rom_m = crate::moments::rom_multi_parameter_transfer_moments(&rom, k, w0).unwrap();
        let global = full_m.values().map(Matrix::max_abs).fold(0.0, f64::max);
        for (idx, mf) in &full_m {
            let mr = &rom_m[idx];
            let scale = mf.max_abs().max(1e-6 * global);
            let diff = mf.sub_mat(mr).max_abs() / scale;
            assert!(diff < 1e-5, "moment {idx:?}: {diff}");
        }
    }

    #[test]
    fn simplified_variant_is_smaller() {
        let sys = tree(60);
        let full = LowRankPmor::new(LowRankOptions {
            include_transpose_subspaces: true,
            ..Default::default()
        })
        .reduce_once(&sys)
        .unwrap();
        let simplified = LowRankPmor::new(LowRankOptions {
            include_transpose_subspaces: false,
            ..Default::default()
        })
        .reduce_once(&sys)
        .unwrap();
        assert!(
            simplified.size() < full.size(),
            "simplified {} !< full {}",
            simplified.size(),
            full.size()
        );
    }

    #[test]
    fn preserves_passivity_stamp() {
        let sys = tree(40);
        assert!(sys.has_symmetric_ports());
        let rom = LowRankPmor::with_defaults().reduce_once(&sys).unwrap();
        for p in [[0.0; 3], [0.3, -0.3, 0.3]] {
            assert!(rom.is_passive_stamp(&p).unwrap(), "not passive at {p:?}");
        }
    }

    #[test]
    fn deterministic() {
        let sys = tree(30);
        let r1 = LowRankPmor::with_defaults().reduce_once(&sys).unwrap();
        let r2 = LowRankPmor::with_defaults().reduce_once(&sys).unwrap();
        assert!(r1.g0.approx_eq(&r2.g0, 1e-300));
        assert_eq!(r1.size(), r2.size());
    }
}
