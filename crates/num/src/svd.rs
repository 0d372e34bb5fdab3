//! Singular value decomposition by one-sided Jacobi rotations.
//!
//! One-sided Jacobi is slower than bidiagonalization-based SVD but is simple,
//! numerically robust, and more than fast enough for this workspace's use:
//! the small dense SVDs inside the randomized low-rank approximation of
//! generalized sensitivity matrices (Algorithm 1 step 1 of the paper), where
//! one dimension is the sketch size (a handful of columns).

use crate::matrix::Matrix;
use crate::vecops;
use crate::{NumError, Result};

/// The thin SVD `A = U · diag(σ) · Vᵀ` of a real matrix.
#[derive(Debug, Clone)]
pub struct Svd {
    /// `m × r` matrix with orthonormal columns (left singular vectors).
    pub u: Matrix<f64>,
    /// Singular values in non-increasing order (`r = min(m, n)` entries;
    /// zeros included).
    pub sigma: Vec<f64>,
    /// `n × r` matrix with orthonormal columns (right singular vectors).
    pub v: Matrix<f64>,
}

impl Svd {
    /// Reconstructs `U · diag(σ) · Vᵀ` (testing aid).
    pub fn reconstruct(&self) -> Matrix<f64> {
        let us = Matrix::from_fn(self.u.nrows(), self.sigma.len(), |r, c| {
            self.u[(r, c)] * self.sigma[c]
        });
        us.mul_mat(&self.v.transposed())
    }

    /// Truncates to the leading `rank` singular triplets.
    pub fn truncated(&self, rank: usize) -> Svd {
        let r = rank.min(self.sigma.len());
        Svd {
            u: self.u.columns(0..r),
            sigma: self.sigma[..r].to_vec(),
            v: self.v.columns(0..r),
        }
    }
}

/// Maximum number of Jacobi sweeps before giving up.
const MAX_SWEEPS: usize = 60;

/// Computes the thin SVD of a real matrix by one-sided Jacobi.
///
/// Works for any shape; wide matrices are handled by factoring the
/// transpose and swapping `U`/`V`.
///
/// # Errors
///
/// Returns [`NumError::NoConvergence`] if the Jacobi sweeps fail to converge
/// (practically unreachable for finite input).
pub fn svd(a: &Matrix<f64>) -> Result<Svd> {
    if a.nrows() < a.ncols() {
        let t = svd(&a.transposed())?;
        return Ok(Svd {
            u: t.v,
            sigma: t.sigma,
            v: t.u,
        });
    }
    let m = a.nrows();
    let n = a.ncols();
    if n == 0 {
        return Ok(Svd {
            u: Matrix::zeros(m, 0),
            sigma: Vec::new(),
            v: Matrix::zeros(0, 0),
        });
    }

    // Work on columns of W = A; accumulate right rotations in V.
    let mut w: Vec<Vec<f64>> = (0..n).map(|j| a.col(j)).collect();
    let mut v = Matrix::<f64>::identity(n);
    let eps = f64::EPSILON;

    let mut converged = false;
    for _sweep in 0..MAX_SWEEPS {
        let mut rotated = false;
        for p in 0..n {
            for q in (p + 1)..n {
                let (app, aqq, apq) = gram_pair(&w[p], &w[q]);
                if apq.abs() <= eps * (app * aqq).sqrt() || apq == 0.0 {
                    continue;
                }
                rotated = true;
                // Jacobi rotation annihilating the (p,q) Gram entry.
                let zeta = (aqq - app) / (2.0 * apq);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                // Rotate data columns.
                let (wp, wq) = borrow_two(&mut w, p, q);
                for (xp, xq) in wp.iter_mut().zip(wq.iter_mut()) {
                    let a0 = *xp;
                    let b0 = *xq;
                    *xp = c * a0 - s * b0;
                    *xq = s * a0 + c * b0;
                }
                // Rotate V columns identically.
                for r in 0..n {
                    let a0 = v[(r, p)];
                    let b0 = v[(r, q)];
                    v[(r, p)] = c * a0 - s * b0;
                    v[(r, q)] = s * a0 + c * b0;
                }
            }
        }
        if !rotated {
            converged = true;
            break;
        }
    }
    if !converged {
        return Err(NumError::NoConvergence {
            context: "one-sided Jacobi SVD",
            iterations: MAX_SWEEPS,
        });
    }

    // Singular values are the column norms; U the normalized columns.
    let mut order: Vec<usize> = (0..n).collect();
    let norms: Vec<f64> = w.iter().map(|col| vecops::norm2(col)).collect();
    order.sort_by(|&i, &j| norms[j].total_cmp(&norms[i]));

    let mut u = Matrix::zeros(m, n);
    let mut v_sorted = Matrix::zeros(n, n);
    let mut sigma = Vec::with_capacity(n);
    for (out_j, &j) in order.iter().enumerate() {
        let s = norms[j];
        sigma.push(s);
        if s > 0.0 {
            for r in 0..m {
                u[(r, out_j)] = w[j][r] / s;
            }
        }
        for r in 0..n {
            v_sorted[(r, out_j)] = v[(r, j)];
        }
    }
    Ok(Svd {
        u,
        sigma,
        v: v_sorted,
    })
}

/// The Gram entries `(⟨a, a⟩, ⟨b, b⟩, ⟨a, b⟩)` in one sweep: three
/// element-order chains, each bit for bit its [`vecops::dot`].
fn gram_pair(a: &[f64], b: &[f64]) -> (f64, f64, f64) {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    let (mut aa, mut bb, mut ab) = (0.0, 0.0, 0.0);
    for (&x, &y) in a.iter().zip(b) {
        aa += x * x;
        bb += y * y;
        ab += x * y;
    }
    (aa, bb, ab)
}

fn borrow_two<T>(v: &mut [Vec<T>], p: usize, q: usize) -> (&mut Vec<T>, &mut Vec<T>) {
    debug_assert!(p < q);
    let (head, tail) = v.split_at_mut(q);
    (&mut head[p], &mut tail[0])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_svd(a: &Matrix<f64>, tol: f64) -> Svd {
        let s = svd(a).unwrap();
        assert!(s.reconstruct().approx_eq(a, tol), "reconstruction failed");
        let utu = s.u.tr_mul_mat(&s.u);
        let vtv = s.v.tr_mul_mat(&s.v);
        // U may contain zero columns for rank-deficient input; only check the
        // non-zero singular directions.
        for i in 0..s.sigma.len() {
            for j in 0..s.sigma.len() {
                let expect = if i == j { 1.0 } else { 0.0 };
                if s.sigma[i] > tol && s.sigma[j] > tol {
                    assert!((utu[(i, j)] - expect).abs() < tol, "UᵀU defect");
                }
                assert!((vtv[(i, j)] - expect).abs() < tol, "VᵀV defect");
            }
        }
        // Non-increasing singular values.
        for wpair in s.sigma.windows(2) {
            assert!(wpair[0] >= wpair[1] - 1e-12);
        }
        s
    }

    #[test]
    fn diagonal_matrix() {
        let a = Matrix::from_diag(&[3.0, 1.0, 2.0]);
        let s = check_svd(&a, 1e-12);
        assert!((s.sigma[0] - 3.0).abs() < 1e-12);
        assert!((s.sigma[1] - 2.0).abs() < 1e-12);
        assert!((s.sigma[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn known_singular_values() {
        // A = [[3,0],[4,5]] has σ = sqrt(45±√(2025-225))/... use classical
        // result: σ₁ = 3√5, σ₂ = √5.
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[4.0, 5.0]]);
        let s = check_svd(&a, 1e-10);
        assert!((s.sigma[0] - 3.0 * 5.0_f64.sqrt()).abs() < 1e-10);
        assert!((s.sigma[1] - 5.0_f64.sqrt()).abs() < 1e-10);
    }

    #[test]
    fn tall_and_wide_shapes() {
        let tall = Matrix::from_fn(8, 3, |r, c| ((r * 3 + c) as f64).sin());
        check_svd(&tall, 1e-10);
        let wide = tall.transposed();
        check_svd(&wide, 1e-10);
    }

    #[test]
    fn rank_one_matrix() {
        let u = [1.0, 2.0, 3.0];
        let v = [4.0, 5.0];
        let a = Matrix::from_fn(3, 2, |r, c| u[r] * v[c]);
        let s = check_svd(&a, 1e-10);
        assert!(s.sigma[0] > 1.0);
        assert!(s.sigma[1].abs() < 1e-10);
    }

    #[test]
    fn truncation_error_is_next_singular_value() {
        let a = Matrix::from_diag(&[5.0, 3.0, 1.0]);
        let s = svd(&a).unwrap().truncated(2);
        let err = a.sub_mat(&s.reconstruct());
        // Spectral norm of the error equals σ₃ = 1; Frobenius here too.
        assert!((err.norm_fro() - 1.0).abs() < 1e-10);
    }

    /// The fused Gram pass is bit for bit three `vecops::dot` chains, so
    /// the sweeps rotate exactly as with separate inner products.
    #[test]
    fn gram_pair_is_three_dot_chains() {
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 2_000_001) as f64 / 1_000_000.0 - 1.0
        };
        for n in [0, 1, 5, 257] {
            let mut a: Vec<f64> = (0..n).map(|_| next()).collect();
            let b: Vec<f64> = (0..n).map(|_| next()).collect();
            if n == 5 {
                a[1] = -0.0;
                a[2] = 1e300;
            }
            let (aa, bb, ab) = gram_pair(&a, &b);
            let want = [
                vecops::dot(&a, &a),
                vecops::dot(&b, &b),
                vecops::dot(&a, &b),
            ];
            for (got, want) in [aa, bb, ab].iter().zip(want) {
                assert_eq!(got.to_bits(), want.to_bits(), "n = {n}");
            }
        }
    }

    #[test]
    fn empty_matrix() {
        let a = Matrix::<f64>::zeros(3, 0);
        let s = svd(&a).unwrap();
        assert!(s.sigma.is_empty());
    }

    #[test]
    fn zero_matrix() {
        let a = Matrix::<f64>::zeros(3, 2);
        let s = svd(&a).unwrap();
        assert!(s.sigma.iter().all(|&x| x == 0.0));
        assert!(s.reconstruct().approx_eq(&a, 1e-15));
    }
}
