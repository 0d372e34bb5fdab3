//! Plain `Matrix<Complex64>` reference of `PencilLdl`: the pivot-free
//! elimination one step at a time, its certificate, and the column-form
//! solves, written entry by entry with `Complex64` arithmetic. Shared by
//! the kernel oracle and the reduced-model conformance tests.

use pmor_num::lu::LDL_CERTIFICATE_BOUND;
use pmor_num::{Complex64, Matrix};

/// Packed factors of the upper triangle of `G + sC`: `U` on and above
/// the diagonal, unit lower `L` below it.
pub struct LdlReference {
    pub packed: Matrix<Complex64>,
    /// `ρ`, the kernel's backward-error certificate.
    pub certificate: f64,
    /// Every pivot finite and nonzero and `ρ ≤ τ`.
    pub kept: bool,
}

fn one_norm(z: Complex64) -> f64 {
    z.re.abs() + z.im.abs()
}

pub fn ldl_reference(g: &Matrix<f64>, c: &Matrix<f64>, s: Complex64) -> LdlReference {
    let n = g.nrows();
    let mut a = Matrix::zeros(n, n);
    let mut max_a = 0.0f64;
    for i in 0..n {
        for j in i..n {
            a[(i, j)] = Complex64::new(g[(i, j)], 0.0) + s * Complex64::new(c[(i, j)], 0.0);
            max_a = max_a.max(one_norm(a[(i, j)]));
        }
    }
    let mut sums = vec![0.0f64; n];
    let mut worst = 0.0f64;
    let mut kept = true;
    for k in 0..n {
        let d = a[(k, k)];
        if d == Complex64::ZERO || !d.is_finite() {
            kept = false;
            break;
        }
        let row_max = (k..n).map(|j| one_norm(a[(k, j)])).fold(0.0, f64::max);
        worst = worst.max(sums[k] + row_max);
        let inv = d.recip();
        for i in k + 1..n {
            let f = a[(k, i)] * inv;
            a[(i, k)] = f;
            sums[i] += one_norm(f) * row_max;
            if f != Complex64::ZERO {
                for j in i..n {
                    let u = a[(k, j)];
                    a[(i, j)] -= f * u;
                }
            }
        }
    }
    LdlReference {
        packed: a,
        certificate: worst / max_a,
        kept: kept && worst <= LDL_CERTIFICATE_BOUND * max_a,
    }
}

impl LdlReference {
    /// `X = A⁻¹ B`: forward `yᵢ −= (yₖ/Uₖₖ)·Uₖᵢ`, then backward
    /// `xᵢ −= xₖ·Lₖᵢ`.
    pub fn solve(&self, b: &Matrix<Complex64>) -> Matrix<Complex64> {
        let a = &self.packed;
        let n = a.nrows();
        let mut x = b.clone();
        for j in 0..x.ncols() {
            for k in 0..n {
                let t = x[(k, j)] * a[(k, k)].recip();
                x[(k, j)] = t;
                for i in k + 1..n {
                    x[(i, j)] -= t * a[(k, i)];
                }
            }
            for k in (1..n).rev() {
                let t = x[(k, j)];
                for i in 0..k {
                    x[(i, j)] -= t * a[(k, i)];
                }
            }
        }
        x
    }

    /// `Lᵀ A⁻¹ B` for real `B` and `L`.
    pub fn transfer(&self, b: &Matrix<f64>, l: &Matrix<f64>) -> Matrix<Complex64> {
        l.to_complex().tr_mul_mat(&self.solve(&b.to_complex()))
    }
}
