//! Matrix-implicit low-rank SVD of linear operators.
//!
//! Algorithm 1 step 1 needs the dominant singular triplets of the
//! generalized sensitivity matrices `G0⁻¹Gᵢ` / `G0⁻¹Cᵢ`, which are dense and
//! never formed: only `x ↦ G0⁻¹(Gᵢx)` (one sparse mat-vec + one reuse of the
//! `G0` factors) and its transpose `x ↦ Gᵢᵀ(G0⁻ᵀx)` are available. The paper
//! (§4.2, refs \[14\]\[15\]) proposes iterative sparse SVD via subspace
//! iteration / Lanczos bidiagonalization; here we use the equivalent-cost
//! randomized subspace iteration: Gaussian sketch, a few power iterations,
//! then a small dense SVD. [`lockstep_svd`] runs it for several operators
//! at once, so the sensitivities of Algorithm 1 share each stage's pass
//! over the `G0` factors.

use crate::Result;
use pmor_num::orth::orthonormalize_columns;
use pmor_num::svd::{svd, Svd};
use pmor_num::Matrix;
use pmor_sparse::{CsrMatrix, LinearOperator, RealFactor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::Cell;

/// Options for [`operator_svd`].
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorSvdOptions {
    /// Target rank (`k_svd` in the paper; "a rank-one approximation is
    /// usually sufficient").
    pub rank: usize,
    /// Extra sketch columns beyond the target rank.
    pub oversample: usize,
    /// Power iterations sharpening the spectral decay.
    pub power_iterations: usize,
    /// RNG seed for the Gaussian sketch.
    pub seed: u64,
}

impl Default for OperatorSvdOptions {
    fn default() -> Self {
        OperatorSvdOptions {
            rank: 1,
            oversample: 4,
            power_iterations: 2,
            seed: 0x5EED,
        }
    }
}

/// Computes a rank-`opts.rank` approximate SVD of `op` by randomized
/// subspace iteration. Only `op.apply` / `op.apply_transpose` are used.
/// This is the one-operator case of [`lockstep_svd`].
///
/// # Errors
///
/// Propagates small dense SVD failures (practically unreachable).
pub fn operator_svd(op: &dyn LinearOperator, opts: &OperatorSvdOptions) -> Result<Svd> {
    let mut svds = lockstep_svd(&[op][..], opts, &[opts.seed])?;
    Ok(svds.swap_remove(0))
}

/// Operators of one shape whose actions are applied together: member `i`
/// acts on block `i`. [`lockstep_svd`] hands each stage's blocks to one
/// call, so members that share `G0` factors
/// ([`GeneralizedSensitivities`]) are served by one solve pass.
pub trait OperatorFamily {
    /// Number of members.
    fn members(&self) -> usize;

    /// Output dimension of every member.
    fn nrows(&self) -> usize;

    /// Input dimension of every member.
    fn ncols(&self) -> usize;

    /// `Aᵢ·Xᵢ` for every member `i`.
    ///
    /// # Errors
    ///
    /// Propagates a failed solve.
    fn apply_each(&self, xs: &[Matrix<f64>]) -> Result<Vec<Matrix<f64>>>;

    /// `Aᵢᵀ·Xᵢ` for every member `i`.
    ///
    /// # Errors
    ///
    /// Propagates a failed solve.
    fn apply_transpose_each(&self, xs: &[Matrix<f64>]) -> Result<Vec<Matrix<f64>>>;
}

/// Independent operators, each applied through its own block actions.
impl OperatorFamily for [&dyn LinearOperator] {
    fn members(&self) -> usize {
        self.len()
    }

    fn nrows(&self) -> usize {
        self.first().map_or(0, |op| op.nrows())
    }

    fn ncols(&self) -> usize {
        self.first().map_or(0, |op| op.ncols())
    }

    fn apply_each(&self, xs: &[Matrix<f64>]) -> Result<Vec<Matrix<f64>>> {
        Ok(self
            .iter()
            .zip(xs)
            .map(|(op, x)| op.apply_dense(x))
            .collect())
    }

    fn apply_transpose_each(&self, xs: &[Matrix<f64>]) -> Result<Vec<Matrix<f64>>> {
        Ok(self
            .iter()
            .zip(xs)
            .map(|(op, x)| op.apply_transpose_dense(x))
            .collect())
    }
}

/// Randomized SVDs of every member of `family`, run in lockstep. Member
/// `i` gets, bit for bit, the rank-`opts.rank` approximation that
/// randomized subspace iteration with seed `seeds[i]` computes for it
/// alone: a Gaussian sketch, `opts.power_iterations` power iterations,
/// then a small dense SVD of `Bᵀ = Aᵀ·Q`. Each of those stages hands
/// all members' blocks to one family call. The members' sketches may
/// deflate to different widths.
///
/// # Errors
///
/// Propagates a failed family action or small dense SVD (practically
/// unreachable).
///
/// # Panics
///
/// Panics unless there is one seed per member.
pub fn lockstep_svd<F: OperatorFamily + ?Sized>(
    family: &F,
    opts: &OperatorSvdOptions,
    seeds: &[u64],
) -> Result<Vec<Svd>> {
    assert_eq!(
        family.members(),
        seeds.len(),
        "lockstep_svd: one seed per member"
    );
    let m = family.nrows();
    let n = family.ncols();
    let l = (opts.rank + opts.oversample).min(m.min(n)).max(1);

    // Gaussian sketches (Box–Muller from the uniform generator).
    let omegas: Vec<Matrix<f64>> = seeds
        .iter()
        .map(|&seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            Matrix::from_fn(n, l, |_, _| gaussian(&mut rng))
        })
        .collect();
    let mut y = family.apply_each(&omegas)?;
    drop(omegas);
    for _ in 0..opts.power_iterations {
        let z = family.apply_transpose_each(&orthonormalize_each(&y))?;
        y = family.apply_each(&orthonormalize_each(&z))?;
    }
    let q = orthonormalize_each(&y); // m × l', range of each member

    // B = Qᵀ·A  (l' × n); factor its transpose (tall) with the dense SVD:
    // Bᵀ = W Σ Zᵀ  ⇒  A ≈ Q·B = (Q·Z) Σ Wᵀ.
    let bt = family.apply_transpose_each(&q)?; // n × l'
    q.iter()
        .zip(&bt)
        .map(|(q, bt)| {
            let s = svd(bt)?;
            Ok(Svd {
                u: q.mul_mat(&s.v),
                sigma: s.sigma,
                v: s.u,
            }
            .truncated(opts.rank))
        })
        .collect()
}

fn orthonormalize_each(blocks: &[Matrix<f64>]) -> Vec<Matrix<f64>> {
    blocks.iter().map(orthonormalize_columns).collect()
}

/// The generalized sensitivities `x ↦ G0⁻¹(Mᵢ·x)` of Algorithm 1 for
/// several matrices `Mᵢ` (some `Gᵢ` or `Cᵢ`), applied matrix-implicitly
/// through one shared `G0` factorization; the transpose actions
/// `x ↦ Mᵢᵀ(G0⁻ᵀx)` reuse the same factors (paper §4.2). Each action
/// forms every member's `Mᵢ·Xᵢ` (or takes every `Xᵢ`), solves them side
/// by side in one block solve and splits the result, so each member's
/// block is bit for bit the column solves of its own block.
pub struct GeneralizedSensitivities<'a> {
    g0_lu: &'a RealFactor,
    mats: Vec<&'a CsrMatrix<f64>>,
    passes: Cell<usize>,
}

impl<'a> GeneralizedSensitivities<'a> {
    /// Wraps the factored `G0` and the sensitivity matrices `Mᵢ`.
    ///
    /// # Panics
    ///
    /// Panics when dimensions disagree.
    pub fn new(g0_lu: &'a RealFactor, mats: Vec<&'a CsrMatrix<f64>>) -> Self {
        for m in &mats {
            assert_eq!(g0_lu.dim(), m.nrows(), "GeneralizedSensitivities: dim");
            assert_eq!(m.nrows(), m.ncols(), "GeneralizedSensitivities: square");
        }
        GeneralizedSensitivities {
            g0_lu,
            mats,
            passes: Cell::new(0),
        }
    }

    /// Solve passes made on the `G0` factors so far: one per action that
    /// solved any column.
    pub fn passes(&self) -> usize {
        self.passes.get()
    }
}

impl OperatorFamily for GeneralizedSensitivities<'_> {
    fn members(&self) -> usize {
        self.mats.len()
    }

    fn nrows(&self) -> usize {
        self.g0_lu.dim()
    }

    fn ncols(&self) -> usize {
        self.g0_lu.dim()
    }

    fn apply_each(&self, xs: &[Matrix<f64>]) -> Result<Vec<Matrix<f64>>> {
        let mx: Vec<Matrix<f64>> = self
            .mats
            .iter()
            .zip(xs)
            .map(|(m, x)| m.mul_dense(x))
            .collect();
        let mut passes = self.passes.get();
        let ys = solve_each(self.g0_lu, &mx, &mut passes)?;
        self.passes.set(passes);
        Ok(ys)
    }

    fn apply_transpose_each(&self, xs: &[Matrix<f64>]) -> Result<Vec<Matrix<f64>>> {
        let mut passes = self.passes.get();
        let ys = solve_transpose_each(self.g0_lu, xs, &mut passes)?;
        self.passes.set(passes);
        Ok(self
            .mats
            .iter()
            .zip(&ys)
            .map(|(m, y)| m.tr_mul_dense(y))
            .collect())
    }
}

/// Solves every block of `bs` at once: the blocks side by side through
/// one [`RealFactor::solve_block`], split back. Each result is bit for bit
/// its own block's solve. Adds the pass to `passes` unless every block
/// is empty.
///
/// # Panics
///
/// Panics unless every block has `lu.dim()` rows.
pub(crate) fn solve_each(
    lu: &RealFactor,
    bs: &[Matrix<f64>],
    passes: &mut usize,
) -> Result<Vec<Matrix<f64>>> {
    let joined = Matrix::hcat(lu.dim(), bs);
    *passes += usize::from(joined.ncols() > 0);
    Ok(split_like(&lu.solve_block(&joined)?, bs))
}

/// [`solve_each`] for `G0ᵀ`, through [`RealFactor::solve_transpose_block`].
///
/// # Panics
///
/// Panics unless every block has `lu.dim()` rows.
pub(crate) fn solve_transpose_each(
    lu: &RealFactor,
    bs: &[Matrix<f64>],
    passes: &mut usize,
) -> Result<Vec<Matrix<f64>>> {
    let joined = Matrix::hcat(lu.dim(), bs);
    *passes += usize::from(joined.ncols() > 0);
    Ok(split_like(&lu.solve_transpose_block(&joined)?, bs))
}

/// Splits `joined` into blocks as wide as those of `like`, in order.
fn split_like(joined: &Matrix<f64>, like: &[Matrix<f64>]) -> Vec<Matrix<f64>> {
    let mut at = 0;
    like.iter()
        .map(|b| {
            at += b.ncols();
            joined.columns(at - b.ncols()..at)
        })
        .collect()
}

fn gaussian(rng: &mut StdRng) -> f64 {
    // Box–Muller; avoids a dependency on rand_distr.
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmor_sparse::CooBuilder;

    fn dense_op(rows: usize, cols: usize, f: impl Fn(usize, usize) -> f64) -> Matrix<f64> {
        Matrix::from_fn(rows, cols, f)
    }

    #[test]
    fn recovers_exact_low_rank_matrix() {
        // A = u vᵀ + 0.5 w zᵀ: rank 2.
        let u = [1.0, 2.0, 3.0, 4.0, 5.0];
        let v = [1.0, -1.0, 0.5];
        let w = [0.0, 1.0, 0.0, -1.0, 0.0];
        let z = [1.0, 1.0, 1.0];
        let a = dense_op(5, 3, |r, c| u[r] * v[c] + 0.5 * w[r] * z[c]);
        let s = operator_svd(
            &a,
            &OperatorSvdOptions {
                rank: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(s.reconstruct().approx_eq(&a, 1e-8), "reconstruction failed");
    }

    #[test]
    fn singular_values_match_dense_svd() {
        let a = dense_op(8, 8, |r, c| 1.0 / (1.0 + (r + c) as f64));
        let dense = pmor_num::svd::svd(&a).unwrap();
        let approx = operator_svd(
            &a,
            &OperatorSvdOptions {
                rank: 3,
                power_iterations: 3,
                ..Default::default()
            },
        )
        .unwrap();
        for j in 0..3 {
            let rel = (approx.sigma[j] - dense.sigma[j]).abs() / dense.sigma[j];
            assert!(
                rel < 1e-6,
                "σ{j}: {} vs {}",
                approx.sigma[j],
                dense.sigma[j]
            );
        }
    }

    #[test]
    fn rank_one_error_bounded_by_sigma2() {
        let a = dense_op(10, 10, |r, c| {
            2.0 * ((r == c) as u8 as f64) + 0.1 * ((r * 3 + c) as f64).sin()
        });
        let dense = pmor_num::svd::svd(&a).unwrap();
        let approx = operator_svd(
            &a,
            &OperatorSvdOptions {
                rank: 1,
                power_iterations: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let err = a.sub_mat(&approx.reconstruct());
        // Error of best rank-1 is σ₂ (spectral) ≤ ‖err‖_F ≤ √n σ₂.
        let sigma2 = dense.sigma[1];
        assert!(
            err.norm_fro() <= 10.0 * sigma2,
            "{} vs σ₂={sigma2}",
            err.norm_fro()
        );
    }

    #[test]
    fn generalized_sensitivity_matches_explicit_product() {
        // G0 diagonal, M tridiagonal: G0⁻¹M explicit.
        let n = 12;
        let mut g = CooBuilder::new(n, n);
        for i in 0..n {
            g.add(i, i, (i + 1) as f64);
        }
        let g: CsrMatrix<f64> = g.build_csr();
        let mut m = CooBuilder::new(n, n);
        for i in 0..n {
            m.add(i, i, 1.0);
            if i + 1 < n {
                m.add(i, i + 1, 0.5);
                m.add(i + 1, i, -0.25);
            }
        }
        let m = m.build_csr();
        let lu = RealFactor::factor(&g, None).unwrap();
        let op = GeneralizedSensitivities::new(&lu, vec![&m]);

        let explicit = Matrix::from_fn(n, n, |r, c| m.get(r, c) / (r + 1) as f64);
        let x = Matrix::from_fn(n, 2, |i, j| ((i * 5 + j) as f64).sin());
        let got = op.apply_each(std::slice::from_ref(&x)).unwrap();
        let want = explicit.mul_mat(&x);
        assert!(got[0].approx_eq(&want, 1e-12 * want.max_abs()));

        let gt = op.apply_transpose_each(std::slice::from_ref(&x)).unwrap();
        let wt = explicit.tr_mul_mat(&x);
        assert!(gt[0].approx_eq(&wt, 1e-12 * wt.max_abs()));
        assert_eq!(op.passes(), 2, "one solve pass per action");
    }

    #[test]
    fn operator_svd_of_generalized_sensitivity() {
        // Rank-one M ⇒ rank-one G0⁻¹M recovered exactly.
        let n = 10;
        let mut g = CooBuilder::new(n, n);
        for i in 0..n {
            g.add(i, i, 2.0 + i as f64);
            if i + 1 < n {
                g.add(i, i + 1, -0.5);
                g.add(i + 1, i, -0.5);
            }
        }
        let g = g.build_csr();
        let mut m = CooBuilder::new(n, n);
        // M = e₃·rowᵀ (rank one).
        for c in 0..n {
            m.add(3, c, 1.0 + c as f64 * 0.1);
        }
        let m = m.build_csr();
        let lu = RealFactor::factor(&g, None).unwrap();
        let op = GeneralizedSensitivities::new(&lu, vec![&m]);
        let o = OperatorSvdOptions::default();
        let s = lockstep_svd(&op, &o, &[o.seed]).unwrap().swap_remove(0);
        assert_eq!(s.sigma.len(), 1);
        // Reconstruction check against the explicitly assembled product.
        let explicit = op
            .apply_each(&[Matrix::identity(n)])
            .unwrap()
            .swap_remove(0);
        assert!(s
            .reconstruct()
            .approx_eq(&explicit, 1e-8 * explicit.max_abs()));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = dense_op(6, 6, |r, c| ((r * 6 + c) as f64).cos());
        let o = OperatorSvdOptions::default();
        let s1 = operator_svd(&a, &o).unwrap();
        let s2 = operator_svd(&a, &o).unwrap();
        assert_eq!(s1.sigma, s2.sigma);
        assert!(s1.u.approx_eq(&s2.u, 1e-300));
    }
}
