//! Matrix-implicit low-rank SVD of linear operators.
//!
//! Algorithm 1 step 1 needs the dominant singular triplets of the
//! generalized sensitivity matrices `G0⁻¹Gᵢ` / `G0⁻¹Cᵢ`, which are dense and
//! never formed: only `x ↦ G0⁻¹(Gᵢx)` (one sparse mat-vec + one reuse of the
//! `G0` factors) and its transpose `x ↦ Gᵢᵀ(G0⁻ᵀx)` are available. The paper
//! (§4.2, refs \[14\]\[15\]) proposes iterative sparse SVD via subspace
//! iteration / Lanczos bidiagonalization; here we use the equivalent-cost
//! randomized subspace iteration: Gaussian sketch, a few power iterations,
//! then a small dense SVD.

use crate::Result;
use pmor_num::orth::orthonormalize_columns;
use pmor_num::svd::{svd, Svd};
use pmor_num::Matrix;
use pmor_sparse::{LinearOperator, SparseLu};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
///
/// # Errors
///
/// Propagates small dense SVD failures (practically unreachable).
pub fn operator_svd(op: &dyn LinearOperator, opts: &OperatorSvdOptions) -> Result<Svd> {
    let m = op.nrows();
    let n = op.ncols();
    let l = (opts.rank + opts.oversample).min(m.min(n)).max(1);
    let mut rng = StdRng::seed_from_u64(opts.seed);

    // Gaussian sketch (Box–Muller from the uniform generator).
    let omega = Matrix::from_fn(n, l, |_, _| gaussian(&mut rng));
    let mut y = op.apply_dense(&omega);
    for _ in 0..opts.power_iterations {
        let q = orthonormalize_columns(&y);
        let z = op.apply_transpose_dense(&q);
        let qz = orthonormalize_columns(&z);
        y = op.apply_dense(&qz);
    }
    let q = orthonormalize_columns(&y); // m × l', range of op

    // B = Qᵀ·A  (l' × n); factor its transpose (tall) with the dense SVD:
    // Bᵀ = W Σ Zᵀ  ⇒  A ≈ Q·B = (Q·Z) Σ Wᵀ.
    let bt = op.apply_transpose_dense(&q); // n × l'
    let s = svd(&bt)?;
    let u = q.mul_mat(&s.v);
    Ok(Svd {
        u,
        sigma: s.sigma,
        v: s.u,
    }
    .truncated(opts.rank))
}

/// The generalized sensitivity operator `x ↦ G0⁻¹(M·x)` of Algorithm 1,
/// applied matrix-implicitly through the shared `G0` factorization. The
/// transpose action `x ↦ Mᵀ(G0⁻ᵀx)` reuses the same factors (paper §4.2).
pub struct GeneralizedSensitivity<'a> {
    g0_lu: &'a SparseLu<f64>,
    m: &'a pmor_sparse::CsrMatrix<f64>,
}

impl<'a> GeneralizedSensitivity<'a> {
    /// Wraps the factored `G0` and a sensitivity matrix `M` (some `Gᵢ` or
    /// `Cᵢ`).
    ///
    /// # Panics
    ///
    /// Panics when dimensions disagree.
    pub fn new(g0_lu: &'a SparseLu<f64>, m: &'a pmor_sparse::CsrMatrix<f64>) -> Self {
        assert_eq!(g0_lu.dim(), m.nrows(), "GeneralizedSensitivity: dim");
        assert_eq!(m.nrows(), m.ncols(), "GeneralizedSensitivity: square");
        GeneralizedSensitivity { g0_lu, m }
    }
}

impl LinearOperator for GeneralizedSensitivity<'_> {
    fn nrows(&self) -> usize {
        self.g0_lu.dim()
    }

    fn ncols(&self) -> usize {
        self.g0_lu.dim()
    }

    fn apply(&self, x: &[f64]) -> Vec<f64> {
        solved(self.g0_lu.solve(&self.m.mul_vec(x)))
    }

    fn apply_transpose(&self, x: &[f64]) -> Vec<f64> {
        self.m.tr_mul_vec(&solved(self.g0_lu.solve_transpose(x)))
    }

    /// Block form of [`Self::apply`], bitwise equal to it per column.
    fn apply_dense(&self, x: &Matrix<f64>) -> Matrix<f64> {
        solved(self.g0_lu.solve_block(&self.m.mul_dense(x)))
    }

    /// Block form of [`Self::apply_transpose`], bitwise equal to it per
    /// column.
    fn apply_transpose_dense(&self, x: &Matrix<f64>) -> Matrix<f64> {
        assert_eq!(
            x.nrows(),
            self.nrows(),
            "apply_transpose_dense: dimension mismatch"
        );
        self.m
            .tr_mul_dense(&solved(self.g0_lu.solve_transpose_block(x)))
    }
}

/// Unwraps a solve on the operator's own `G0` factors, whose only error
/// is a dimension mismatch that [`GeneralizedSensitivity::new`] rules
/// out.
fn solved<T>(r: pmor_sparse::Result<T>) -> T {
    // pmor-lint: allow(panic-in-lib) reason="the operator is built from a successful G0 factorization of matching dimension"
    r.expect("G0 factors valid by construction")
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
    use pmor_sparse::{CooBuilder, CsrMatrix};

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
        let lu = SparseLu::factor(&g, None).unwrap();
        let op = GeneralizedSensitivity::new(&lu, &m);

        let explicit = Matrix::from_fn(n, n, |r, c| m.get(r, c) / (r + 1) as f64);
        let x: Vec<f64> = (0..n).map(|i| ((i * 5) as f64).sin()).collect();
        let got = op.apply(&x);
        let want = explicit.mul_vec(&x);
        assert!(pmor_num::vecops::rel_err(&got, &want) < 1e-12);

        let gt = op.apply_transpose(&x);
        let wt = explicit.tr_mul_vec(&x);
        assert!(pmor_num::vecops::rel_err(&gt, &wt) < 1e-12);
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
        let lu = SparseLu::factor(&g, None).unwrap();
        let op = GeneralizedSensitivity::new(&lu, &m);
        let s = operator_svd(&op, &OperatorSvdOptions::default()).unwrap();
        assert_eq!(s.sigma.len(), 1);
        // Reconstruction check against the explicitly assembled product.
        let explicit = {
            let mut cols = Vec::new();
            for c in 0..n {
                let mut e = vec![0.0; n];
                e[c] = 1.0;
                cols.push(op.apply(&e));
            }
            Matrix::from_cols(&cols)
        };
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
