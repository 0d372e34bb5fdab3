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

use crate::opsvd::{
    lockstep_svd, scatter_rows, solve_each, solve_transpose_each, GeneralizedSensitivities,
    OperatorFamily, OperatorSvdOptions, Panel,
};
use crate::prima::{krylov_blocks, krylov_lockstep, Action};
use crate::reduce::{Reducer, ReductionContext};
use crate::rom::ParametricRom;
use crate::Result;
use pmor_circuits::ParametricSystem;
use pmor_num::orth::OrthoBasis;
use pmor_num::svd::Svd;
use pmor_num::Matrix;
use pmor_sparse::{CsrMatrix, LinearOperator, RealFactor};

/// Sensitivities whose randomized SVDs, Krylov starts and Krylov steps
/// share each solve pass. Two keep the default rank-2 sketch blocks at
/// 12 columns; all eight of a four-parameter mesh in one 48-column block
/// raised peak memory by a quarter and ran no faster.
const LOCKSTEP_SENSITIVITIES: usize = 2;

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
    /// Solve passes on the `G0` factors: each column solve and each block
    /// solve streams the factors once. Deterministic for a given system
    /// and options.
    pub solve_passes: usize,
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
    /// The sensitivities are taken two at a time. Within such a group
    /// every stage is one solve pass for both: each sketch, power
    /// iteration and `Bᵀ` stage of the randomized SVDs, the Krylov
    /// starts, and each Krylov step. The group's subspaces then merge
    /// into the basis in Algorithm 1's order, so the projection is bit
    /// for bit the one-sensitivity-at-a-time result.
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
        let (v0_size, mut solve_passes) =
            krylov_blocks(&lu, &sys.c0, &sys.b, o.s_order, &mut basis)?;

        // Steps 1 + 2.2 for every sensitivity matrix.
        let mut param_size = 0;
        for group in self.sensitivities(sys).chunks(LOCKSTEP_SENSITIVITIES) {
            param_size +=
                self.add_parameter_subspaces(&lu, sys, group, &mut basis, &mut solve_passes)?;
        }

        let v = basis.to_matrix();
        let stats = LowRankStats {
            factorizations,
            v0_size,
            param_size,
            size: v.ncols(),
            solve_passes,
        };
        Ok((v, stats))
    }

    /// The nonzero sensitivity matrices in Algorithm 1's order (`G₁, C₁,
    /// G₂, …`), each with its position in that order (`2i` for `Gᵢ`,
    /// `2i + 1` for `Cᵢ`) and its own sketch seed.
    fn sensitivities<'s>(&self, sys: &'s ParametricSystem) -> Vec<Sensitivity<'s>> {
        let mut seed = self.options.svd.seed;
        (0..sys.num_params())
            .flat_map(|i| [&sys.gi[i], &sys.ci[i]])
            .enumerate()
            .filter(|(_, mat)| mat.nnz() > 0)
            .map(|(at, mat)| {
                seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
                Sensitivity { at, mat, seed }
            })
            .collect()
    }

    /// Step 1 for a group of sensitivities: the rank-`k_svd` randomized
    /// SVDs of `G0⁻¹M` (or of the raw `M` in the ablation), in lockstep.
    /// Every consumer of `V̂` takes `n`-vectors, so each `V̂`, computed on
    /// its sensitivity's support, is scattered to `n` rows here. Adds the
    /// solve passes made on `lu` to `passes`.
    fn group_svds(
        &self,
        lu: &RealFactor,
        group: &[Sensitivity<'_>],
        raw: bool,
        passes: &mut usize,
    ) -> Result<Vec<Svd>> {
        let opts = OperatorSvdOptions {
            rank: self.options.rank,
            ..self.options.svd.clone()
        };
        let seeds: Vec<u64> = group.iter().map(|s| s.seed).collect();
        if raw {
            let ops: Vec<&dyn LinearOperator> =
                group.iter().map(|s| s.mat as &dyn LinearOperator).collect();
            lockstep_svd(&ops[..], &opts, &seeds)
        } else {
            let family = GeneralizedSensitivities::new(lu, group.iter().map(|s| s.mat).collect());
            let svds = lockstep_svd(&family, &opts, &seeds)?;
            *passes += family.passes();
            Ok(svds
                .into_iter()
                .enumerate()
                .map(|(i, svd)| Svd {
                    v: scatter_rows(&svd.v, &family.support(i), lu.dim()),
                    ..svd
                })
                .collect())
        }
    }

    /// Step 1 (low-rank SVD) and step 2.2 (Krylov subspaces) for a group
    /// of sensitivity matrices; returns the number of directions added
    /// and adds the solve passes made on `lu` to `passes`.
    fn add_parameter_subspaces(
        &self,
        lu: &RealFactor,
        sys: &ParametricSystem,
        group: &[Sensitivity<'_>],
        basis: &mut OrthoBasis<f64>,
        passes: &mut usize,
    ) -> Result<usize> {
        let o = &self.options;
        let raw = o.approximate_raw_sensitivities;
        let (mut us, vs): (Vec<Matrix<f64>>, Vec<Matrix<f64>>) = self
            .group_svds(lu, group, raw, passes)?
            .into_iter()
            .map(|svd| (svd.u, svd.v))
            .unzip();
        if raw {
            // Ablation: the left vectors of the raw sensitivities must
            // still be mapped into moment space through G0⁻¹ to seed the
            // A0-Krylov recurrence.
            let mut panel = Panel::from_blocks(sys.dim(), &us);
            solve_each(lu, &mut panel, passes)?;
            us = (0..panel.blocks()).map(|j| panel.block(j)).collect();
        }

        // Forward subspaces Kr(A0, Û, k), and with the transpose
        // subspaces Kr(Ã0ᵀ, Ṽ, k), Ṽ = -G0⁻ᵀ·V̂, Ã0ᵀ = -G0⁻ᵀC0ᵀ, by
        // transpose solves on the same factors.
        let mut starts: Vec<(Action, Matrix<f64>)> = Vec::with_capacity(2 * group.len());
        let vts = if o.include_transpose_subspaces {
            let mut panel = Panel::from_blocks(sys.dim(), &vs);
            solve_transpose_each(lu, &mut panel, passes)?;
            Some(panel)
        } else {
            None
        };
        for (j, u) in us.into_iter().enumerate() {
            starts.push((Action::Forward, u));
            if let Some(vts) = &vts {
                starts.push((Action::Transpose, vts.block(j).map(|x| -x)));
            }
        }
        let spaces = krylov_lockstep(lu, &sys.c0, &starts, o.param_order, passes)?;

        // Merge in Algorithm 1's order: each sensitivity's forward space,
        // then its transpose space or (simplified §4.1 variant) its right
        // singular vectors directly.
        let blocks: Vec<Matrix<f64>> = if o.include_transpose_subspaces {
            spaces
        } else {
            spaces
                .into_iter()
                .zip(vs)
                .flat_map(|(space, v)| [space, v])
                .collect()
        };
        Ok(basis.insert_block(&Matrix::hcat(sys.dim(), &blocks)))
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
        let lu = ReductionContext::new().factor_g0(sys)?;
        let (mut gi, mut ci) = (sys.gi.clone(), sys.ci.clone());
        for group in self.sensitivities(sys).chunks(LOCKSTEP_SENSITIVITIES) {
            let svds = self.group_svds(&lu, group, false, &mut 0)?;
            for (s, svd) in group.iter().zip(svds) {
                // M̂ = G0 · (Û Σ V̂ᵀ): dense product re-sparsified.
                let g0_usv = sys.g0.mul_dense(&svd.reconstruct());
                let slot = if s.at % 2 == 0 { &mut gi } else { &mut ci };
                slot[s.at / 2] = CsrMatrix::from_dense(&g0_usv, 0.0);
            }
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

/// One nonzero sensitivity matrix of Algorithm 1 (see
/// [`LowRankPmor::sensitivities`]).
struct Sensitivity<'s> {
    at: usize,
    mat: &'s CsrMatrix<f64>,
    seed: u64,
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
