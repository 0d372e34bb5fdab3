//! Dense LU factorization with partial pivoting, generic over [`Scalar`].
//!
//! Used for reduced-order system solves (`(G̃ + sC̃)x̃ = B̃` at every frequency
//! point) and as the reduction step inside the generalized eigensolver.

use crate::complex::Complex64;
use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::{NumError, Result};

/// The factors `P·A = L·U` of a square matrix, stored packed.
#[derive(Debug, Clone)]
pub struct LuFactors<T: Scalar> {
    /// Packed `L` (unit lower, below diagonal) and `U` (upper incl. diagonal).
    lu: Matrix<T>,
    /// Row permutation: `perm[k]` is the original row now in position `k`.
    perm: Vec<usize>,
    /// Sign of the permutation, `+1` or `-1` (used by [`LuFactors::det`]).
    perm_sign: f64,
}

impl<T: Scalar> LuFactors<T> {
    /// Factors a square matrix with partial (row) pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::Singular`] when a pivot column is exactly zero and
    /// [`NumError::DimensionMismatch`] for non-square input.
    pub fn factor(a: &Matrix<T>) -> Result<Self> {
        let n = a.nrows();
        if a.ncols() != n {
            return Err(NumError::DimensionMismatch {
                context: "LuFactors::factor (square matrix required)",
                expected: n,
                actual: a.ncols(),
            });
        }
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut perm_sign = 1.0;

        for k in 0..n {
            // Partial pivoting: choose the largest magnitude in column k.
            let mut piv = k;
            let mut piv_mag = lu[(k, k)].modulus();
            for r in (k + 1)..n {
                let m = lu[(r, k)].modulus();
                if m > piv_mag {
                    piv = r;
                    piv_mag = m;
                }
            }
            if piv_mag == 0.0 {
                return Err(NumError::Singular(k));
            }
            if piv != k {
                lu.swap_rows(piv, k);
                perm.swap(piv, k);
                perm_sign = -perm_sign;
            }
            let pivot = lu[(k, k)];
            let pivot_inv = pivot.recip();
            for r in (k + 1)..n {
                let factor = lu[(r, k)] * pivot_inv;
                lu[(r, k)] = factor;
                if factor == T::ZERO {
                    continue;
                }
                for c in (k + 1)..n {
                    let u = lu[(k, c)];
                    lu[(r, c)] -= factor * u;
                }
            }
        }
        Ok(LuFactors {
            lu,
            perm,
            perm_sign,
        })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.nrows()
    }

    /// Solves `A x = b` for a single right-hand side.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>> {
        let mut x = Vec::with_capacity(self.dim());
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// [`LuFactors::solve`] writing the solution into a caller-owned
    /// buffer (cleared and refilled; capacity is reused across calls) —
    /// the allocation-free path time stepping runs on. Values are
    /// bitwise identical to [`LuFactors::solve`].
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve_into(&self, b: &[T], x: &mut Vec<T>) -> Result<()> {
        let n = self.dim();
        if b.len() != n {
            return Err(NumError::DimensionMismatch {
                context: "LuFactors::solve",
                expected: n,
                actual: b.len(),
            });
        }
        // Apply permutation.
        x.clear();
        x.extend(self.perm.iter().map(|&p| b[p]));
        // Forward substitution with unit lower factor.
        for i in 1..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc;
        }
        // Backward substitution with upper factor.
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc * self.lu[(i, i)].recip();
        }
        Ok(())
    }

    /// Solves `A X = B` column-by-column.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] if `b.nrows() != dim()`.
    pub fn solve_mat(&self, b: &Matrix<T>) -> Result<Matrix<T>> {
        let n = self.dim();
        if b.nrows() != n {
            return Err(NumError::DimensionMismatch {
                context: "LuFactors::solve_mat",
                expected: n,
                actual: b.nrows(),
            });
        }
        let mut out = Matrix::zeros(n, b.ncols());
        for j in 0..b.ncols() {
            let x = self.solve(&b.col(j))?;
            out.set_col(j, &x);
        }
        Ok(out)
    }

    /// Determinant of the factored matrix.
    pub fn det(&self) -> T {
        let mut d = T::from_f64(self.perm_sign);
        for i in 0..self.dim() {
            d *= self.lu[(i, i)];
        }
        d
    }

    /// Explicit inverse; prefer [`LuFactors::solve`] when possible.
    ///
    /// # Errors
    ///
    /// Propagates solve errors (which cannot occur for a successfully
    /// factored matrix of matching dimension).
    pub fn inverse(&self) -> Result<Matrix<T>> {
        self.solve_mat(&Matrix::identity(self.dim()))
    }

    /// The packed factors: unit lower `L` below the diagonal, `U` on and
    /// above it.
    pub fn packed(&self) -> &Matrix<T> {
        &self.lu
    }

    /// The row permutation: `perm()[k]` is the original row in position `k`.
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }
}

/// Complex LU of a real pencil `G + sC`, factored in place into separate
/// real and imaginary planes — the kernel every reduced-model evaluation
/// runs on.
///
/// Every entry sees exactly the arithmetic of
/// [`LuFactors::<Complex64>::factor`](LuFactors::factor) on
/// `G.to_complex() + s·C.to_complex()`: the same operations in the same
/// order, the same zero-multiplier skip and the same `Singular(k)` index.
/// Two things differ only in cost. The elimination runs two steps per
/// pass over the trailing rows, each entry taking step `k`'s update and
/// then step `k + 1`'s. The pivot search compares squared magnitudes and
/// falls back to the generic `hypot` scan on near-ties and out-of-range
/// squares, so it picks the row that scan picks, strict-`>` tie rule
/// included. The solves read real right-hand sides as `(b, 0)` in place.
/// So the packed factors, the permutation, every solve and the output
/// projection match the generic path bit for bit, without converting or
/// cloning a matrix per call. All buffers are sized on first use and
/// reused after.
///
/// # Example
///
/// ```
/// use pmor_num::lu::PencilLu;
/// use pmor_num::{Complex64, Matrix};
///
/// # fn main() -> Result<(), pmor_num::NumError> {
/// let g = Matrix::from_rows(&[&[2.0, -1.0], &[-1.0, 2.0]]);
/// let c = Matrix::identity(2);
/// let b = Matrix::from_rows(&[&[1.0], &[0.0]]);
/// let mut lu = PencilLu::new();
/// lu.factor_pencil_into(&g, &c, Complex64::jw(1.0))?;
/// lu.solve_real_into(&b)?;
/// let mut h = Matrix::zeros(1, 1);
/// lu.project_into(&b, &mut h)?; // bᵀ (G + jC)⁻¹ b
/// assert!((h[(0, 0)] - Complex64::new(0.4, -0.3)).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PencilLu {
    /// Order of the last successful factorization (0 before any).
    n: usize,
    /// Packed factors, real and imaginary planes (row-major `n × n`).
    re: Matrix<f64>,
    im: Matrix<f64>,
    /// Row permutation: `perm[k]` is the original row now in position `k`.
    perm: Vec<usize>,
    /// Solution planes of the last solve, one row per right-hand side
    /// (`nrhs × n`), so each column of `X` is contiguous.
    xr: Matrix<f64>,
    xi: Matrix<f64>,
}

impl Default for PencilLu {
    fn default() -> Self {
        PencilLu::new()
    }
}

impl PencilLu {
    /// An empty kernel; buffers are sized by the first factorization.
    pub fn new() -> Self {
        PencilLu {
            n: 0,
            re: Matrix::zeros(0, 0),
            im: Matrix::zeros(0, 0),
            perm: Vec::new(),
            xr: Matrix::zeros(0, 0),
            xi: Matrix::zeros(0, 0),
        }
    }

    /// Assembles `G + sC` into the planes and factors it in place with
    /// partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::Singular`] at the same pivot index as
    /// [`LuFactors::factor`], and [`NumError::DimensionMismatch`] unless
    /// `G` is square and `C` has its shape. After an error the kernel
    /// holds no factorization.
    pub fn factor_pencil_into(
        &mut self,
        g: &Matrix<f64>,
        c: &Matrix<f64>,
        s: Complex64,
    ) -> Result<()> {
        self.n = 0;
        let n = g.nrows();
        if g.ncols() != n {
            return Err(NumError::DimensionMismatch {
                context: "PencilLu::factor_pencil_into (square G required)",
                expected: n,
                actual: g.ncols(),
            });
        }
        if c.nrows() != n || c.ncols() != n {
            return Err(NumError::DimensionMismatch {
                context: "PencilLu::factor_pencil_into (C must match G)",
                expected: n,
                actual: if c.nrows() != n { c.nrows() } else { c.ncols() },
            });
        }
        if self.re.nrows() != n {
            self.re = Matrix::zeros(n, n);
            self.im = Matrix::zeros(n, n);
        }
        for (((zr, zi), &gv), &cv) in self
            .re
            .as_mut_slice()
            .iter_mut()
            .zip(self.im.as_mut_slice())
            .zip(g.as_slice())
            .zip(c.as_slice())
        {
            // `to_complex` then `add_assign_scaled`, spelled out.
            let z = Complex64::new(gv, 0.0) + s * Complex64::new(cv, 0.0);
            *zr = z.re;
            *zi = z.im;
        }
        self.perm.clear();
        self.perm.extend(0..n);

        let mut k = 0;
        while k + 1 < n {
            self.eliminate_pair(k)?;
            k += 2;
        }
        if k < n {
            // An odd order ends on a step with no row below it: only
            // its pivot is left to check.
            self.column_pivot(k)?;
        }
        self.n = n;
        Ok(())
    }

    /// Swaps rows `piv` and `k` of both planes and the permutation.
    fn swap_pivot_row(&mut self, piv: usize, k: usize) {
        if piv != k {
            self.re.swap_rows(piv, k);
            self.im.swap_rows(piv, k);
            self.perm.swap(piv, k);
        }
    }

    /// Reciprocal of the diagonal entry `(k, k)`.
    fn pivot_inverse(&self, k: usize) -> Complex64 {
        Complex64::recip(Complex64::new(self.re[(k, k)], self.im[(k, k)]))
    }

    /// The pivot row of column `k`, searched from row `k` down.
    fn column_pivot(&self, k: usize) -> Result<usize> {
        let n = self.re.nrows();
        let mut scan = PivotScan::new(k);
        for r in k..n {
            scan.push(r, self.re[(r, k)], self.im[(r, k)]);
        }
        scan.finish(self.re.as_slice(), self.im.as_slice(), n, k)
    }

    /// Elimination steps `k` and `k + 1` in one pass over the rows below
    /// `k + 1`. Step `k` first forms its multipliers and updates only
    /// column `k + 1`, which is all pivot `k + 1` needs; row `k + 1`
    /// then takes step `k`'s update, and every lower row takes both
    /// updates entry by entry, `k`'s before `k + 1`'s. Each entry sees
    /// the operations of steps `k` and `k + 1` of [`LuFactors::factor`]
    /// in their order, and an exactly-zero multiplier skips its update
    /// as there.
    fn eliminate_pair(&mut self, k: usize) -> Result<()> {
        let n = self.re.nrows();
        let (k1, k2) = (k + 1, k + 2);
        let piv = self.column_pivot(k)?;
        self.swap_pivot_row(piv, k);

        // Step k on column k + 1 only, scanning that column for pivot k + 1.
        let pivot_inv = self.pivot_inverse(k);
        let (ukr, uki) = (self.re[(k, k1)], self.im[(k, k1)]);
        let mut scan = PivotScan::new(k1);
        for r in k1..n {
            let f = Complex64::new(self.re[(r, k)], self.im[(r, k)]) * pivot_inv;
            self.re[(r, k)] = f.re;
            self.im[(r, k)] = f.im;
            if f != Complex64::ZERO {
                self.re[(r, k1)] -= f.re * ukr - f.im * uki;
                self.im[(r, k1)] -= f.re * uki + f.im * ukr;
            }
            scan.push(r, self.re[(r, k1)], self.im[(r, k1)]);
        }
        let piv = scan.finish(self.re.as_slice(), self.im.as_slice(), n, k1)?;
        self.swap_pivot_row(piv, k1);

        // Row k + 1 takes step k on the columns past k + 1.
        let (head_re, tail_re) = self.re.as_mut_slice().split_at_mut(k1 * n);
        let (head_im, tail_im) = self.im.as_mut_slice().split_at_mut(k1 * n);
        let (u0r, u0i) = (&head_re[k * n + k2..k1 * n], &head_im[k * n + k2..k1 * n]);
        let (row_re, row_im) = (&mut tail_re[..n], &mut tail_im[..n]);
        let f0 = Complex64::new(row_re[k], row_im[k]);
        if f0 != Complex64::ZERO {
            sub_scaled_row(&mut row_re[k2..], &mut row_im[k2..], f0, u0r, u0i);
        }

        // Every lower row: multiplier k + 1, then both updates.
        let pivot_inv = self.pivot_inverse(k1);
        let (head_re, tail_re) = self.re.as_mut_slice().split_at_mut(k2 * n);
        let (head_im, tail_im) = self.im.as_mut_slice().split_at_mut(k2 * n);
        let (u0r, u0i) = (&head_re[k * n + k2..k1 * n], &head_im[k * n + k2..k1 * n]);
        let (u1r, u1i) = (&head_re[k1 * n + k2..], &head_im[k1 * n + k2..]);
        for (row_re, row_im) in tail_re.chunks_exact_mut(n).zip(tail_im.chunks_exact_mut(n)) {
            let f0 = Complex64::new(row_re[k], row_im[k]);
            let f1 = Complex64::new(row_re[k1], row_im[k1]) * pivot_inv;
            row_re[k1] = f1.re;
            row_im[k1] = f1.im;
            let (ar, ai) = (&mut row_re[k2..], &mut row_im[k2..]);
            match (f0 != Complex64::ZERO, f1 != Complex64::ZERO) {
                (true, true) => sub_scaled_row_pair(ar, ai, [f0, f1], [u0r, u1r], [u0i, u1i]),
                (true, false) => sub_scaled_row(ar, ai, f0, u0r, u0i),
                (false, true) => sub_scaled_row(ar, ai, f1, u1r, u1i),
                (false, false) => {}
            }
        }
        Ok(())
    }

    /// Solves `A X = B` for a real `B` read as `(b, 0)`, leaving `X` in
    /// the kernel's solution planes (see [`PencilLu::project_into`] and
    /// [`PencilLu::solution`]).
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] unless `b` has as many rows as the
    /// last successful factorization's order.
    pub fn solve_real_into(&mut self, b: &Matrix<f64>) -> Result<()> {
        self.load_rhs(b.nrows(), b.ncols())?;
        for j in 0..b.ncols() {
            for (x, &p) in self.xr.row_mut(j).iter_mut().zip(&self.perm) {
                *x = b[(p, j)];
            }
            self.xi.row_mut(j).fill(0.0);
        }
        self.substitute();
        Ok(())
    }

    /// Solves `A X = B` for a complex `B`, leaving `X` in the kernel's
    /// solution planes.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] unless `b` has as many rows as the
    /// last successful factorization's order.
    pub fn solve_complex_into(&mut self, b: &Matrix<Complex64>) -> Result<()> {
        self.load_rhs(b.nrows(), b.ncols())?;
        for j in 0..b.ncols() {
            for ((xr, xi), &p) in self
                .xr
                .row_mut(j)
                .iter_mut()
                .zip(self.xi.row_mut(j))
                .zip(&self.perm)
            {
                *xr = b[(p, j)].re;
                *xi = b[(p, j)].im;
            }
        }
        self.substitute();
        Ok(())
    }

    /// Writes `Lᵀ X` for a real `L` (read as `(l, 0)`) and the last
    /// solution `X` into `out`, with the operation order of
    /// [`Matrix::tr_mul_mat`].
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] unless the last solve
    /// belongs to the current factorization, `L` has a row per state, and
    /// `out` is `l.ncols() × nrhs`.
    pub fn project_into(&self, l: &Matrix<f64>, out: &mut Matrix<Complex64>) -> Result<()> {
        let (nrhs, n) = (self.xr.nrows(), self.xr.ncols());
        if l.nrows() != n || n != self.n {
            return Err(NumError::DimensionMismatch {
                context: "PencilLu::project_into (L rows vs the solved order)",
                expected: self.n,
                actual: l.nrows(),
            });
        }
        if out.nrows() != l.ncols() || out.ncols() != nrhs {
            return Err(NumError::DimensionMismatch {
                context: "PencilLu::project_into (output shape)",
                expected: l.ncols() * nrhs,
                actual: out.nrows() * out.ncols(),
            });
        }
        out.as_mut_slice().fill(Complex64::ZERO);
        for k in 0..n {
            for (i, &lki) in l.row(k).iter().enumerate() {
                if lki == 0.0 {
                    continue;
                }
                for (j, o) in out.row_mut(i).iter_mut().enumerate() {
                    *o +=
                        Complex64::new(lki, 0.0) * Complex64::new(self.xr[(j, k)], self.xi[(j, k)]);
                }
            }
        }
        Ok(())
    }

    /// The last solution `X` as a complex matrix.
    pub fn solution(&self) -> Matrix<Complex64> {
        Matrix::from_fn(self.xr.ncols(), self.xr.nrows(), |r, j| {
            Complex64::new(self.xr[(j, r)], self.xi[(j, r)])
        })
    }

    /// The packed factors' real and imaginary planes (same layout as
    /// [`LuFactors::packed`]).
    pub fn factors(&self) -> (&Matrix<f64>, &Matrix<f64>) {
        (&self.re, &self.im)
    }

    /// The row permutation (same convention as [`LuFactors::perm`]).
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// Checks the right-hand side's row count and sizes the solution
    /// planes for `nrhs` columns.
    fn load_rhs(&mut self, nrows: usize, nrhs: usize) -> Result<()> {
        if nrows != self.n {
            return Err(NumError::DimensionMismatch {
                context: "PencilLu::solve (rows of B vs the factored order)",
                expected: self.n,
                actual: nrows,
            });
        }
        if self.xr.nrows() != nrhs || self.xr.ncols() != nrows {
            self.xr = Matrix::zeros(nrhs, nrows);
            self.xi = Matrix::zeros(nrhs, nrows);
        }
        Ok(())
    }

    /// Forward substitution with the unit lower factor, then backward
    /// substitution with the upper one, on each permuted right-hand side
    /// in the solution planes, accumulating in the order of
    /// [`LuFactors::solve_into`].
    fn substitute(&mut self) {
        let n = self.n;
        let (lr, li) = (self.re.as_slice(), self.im.as_slice());
        for j in 0..self.xr.nrows() {
            let (xr, xi) = (self.xr.row_mut(j), self.xi.row_mut(j));
            for i in 1..n {
                let (done_r, rest_r) = xr.split_at_mut(i);
                let (done_i, rest_i) = xi.split_at_mut(i);
                let (mut ar, mut ai) = (rest_r[0], rest_i[0]);
                for (((&fr, &fi), &br), &bi) in lr[i * n..i * n + i]
                    .iter()
                    .zip(&li[i * n..i * n + i])
                    .zip(&*done_r)
                    .zip(&*done_i)
                {
                    ar -= fr * br - fi * bi;
                    ai -= fr * bi + fi * br;
                }
                rest_r[0] = ar;
                rest_i[0] = ai;
            }
            for i in (0..n).rev() {
                let (head_r, rest_r) = xr.split_at_mut(i + 1);
                let (head_i, rest_i) = xi.split_at_mut(i + 1);
                let (mut ar, mut ai) = (head_r[i], head_i[i]);
                for (((&fr, &fi), &br), &bi) in lr[i * n + i + 1..(i + 1) * n]
                    .iter()
                    .zip(&li[i * n + i + 1..(i + 1) * n])
                    .zip(&*rest_r)
                    .zip(&*rest_i)
                {
                    ar -= fr * br - fi * bi;
                    ai -= fr * bi + fi * br;
                }
                let d = Complex64::recip(Complex64::new(lr[i * n + i], li[i * n + i]));
                let z = Complex64::new(ar, ai) * d;
                head_r[i] = z.re;
                head_i[i] = z.im;
            }
        }
    }
}

/// `a -= f·u` over a row segment held as real and imaginary planes,
/// with the operation order of `Complex64`'s `*` and `-=`.
fn sub_scaled_row(ar: &mut [f64], ai: &mut [f64], f: Complex64, ur: &[f64], ui: &[f64]) {
    let (fr, fi) = (f.re, f.im);
    for (((ar, ai), &xr), &xi) in ar.iter_mut().zip(ai).zip(ur).zip(ui) {
        *ar -= fr * xr - fi * xi;
        *ai -= fr * xi + fi * xr;
    }
}

/// `a -= f[0]·u[0]`, then `a -= f[1]·u[1]`, entry by entry in one pass:
/// the bits of two [`sub_scaled_row`] calls in that order.
fn sub_scaled_row_pair(
    ar: &mut [f64],
    ai: &mut [f64],
    f: [Complex64; 2],
    ur: [&[f64]; 2],
    ui: [&[f64]; 2],
) {
    let ([f0r, f1r], [f0i, f1i]) = ([f[0].re, f[1].re], [f[0].im, f[1].im]);
    for (((((ar, ai), &x0r), &x0i), &x1r), &x1i) in ar
        .iter_mut()
        .zip(ai)
        .zip(ur[0])
        .zip(ui[0])
        .zip(ur[1])
        .zip(ui[1])
    {
        let (br, bi) = (*ar - (f0r * x0r - f0i * x0i), *ai - (f0r * x0i + f0i * x0r));
        *ar = br - (f1r * x1r - f1i * x1i);
        *ai = bi - (f1r * x1i + f1i * x1r);
    }
}

/// The pivot search trusts squared magnitudes only while every square
/// is below `SQUARE_MAX` (far from overflow) and the largest is at least
/// `SQUARE_MIN` (far enough above the subnormal range that underflow in
/// the smaller squares cannot matter); otherwise it falls back to `hypot`.
const SQUARE_MAX: f64 = 1e280;
/// See [`SQUARE_MAX`].
const SQUARE_MIN: f64 = 1e-280;
/// Relative gap between the largest square and the runner-up below
/// which the pivot search falls back to `hypot`.
const SQUARE_TIE: f64 = 1e-12;

/// Partial-pivot search over one column on squared magnitudes
/// `re² + im²`, which picks the same row as the strict-`>` scan over
/// `hypot(re, im)` of [`LuFactors::factor`] without its cost.
///
/// Error argument. Each computed square is `|z|²(1 + θ) + η`, with
/// `|θ| ≤ 2u + u²` (`u = 2⁻⁵³`: two rounded products and a rounded sum)
/// and `|η| ≤ 2⁻¹⁰⁷³` from underflow, which is below `10⁻⁴²` of a
/// largest square `S₁ ≥ SQUARE_MIN`. So when every other square is below
/// `(1 − 10⁻¹²)·S₁`, every other row has
/// `|z|/|z₁| < (1 − 10⁻¹²)^½ (1 + 3u) < 1 − 4·10⁻¹³`. `hypot` errs by at
/// most an ulp, a relative `2u`, and the gap would absorb even a hundred
/// ulps: the row of `S₁` is the unique largest `hypot`, which the
/// strict-`>` scan picks whatever the row order. When the runner-up is
/// within the gap, a square is not finite (NaN included), or the largest
/// leaves `[SQUARE_MIN, SQUARE_MAX)`, [`PivotScan::finish`] reruns the
/// `hypot` scan itself, which also reports an all-zero column.
struct PivotScan {
    row: usize,
    best: f64,
    second: f64,
    out_of_range: bool,
}

impl PivotScan {
    fn new(k: usize) -> Self {
        PivotScan {
            row: k,
            best: -1.0,
            second: -1.0,
            out_of_range: false,
        }
    }

    /// Records the entry `(re, im)` of row `r`.
    #[inline]
    fn push(&mut self, r: usize, re: f64, im: f64) {
        let sq = re * re + im * im;
        self.out_of_range |= !(sq < SQUARE_MAX);
        if sq > self.best {
            self.second = self.best;
            self.best = sq;
            self.row = r;
        } else if sq > self.second {
            self.second = sq;
        }
    }

    /// The pivot row of column `k` in the row-major `n × n` planes.
    ///
    /// # Errors
    ///
    /// [`NumError::Singular`]`(k)` when every entry from row `k` down is zero.
    fn finish(self, re: &[f64], im: &[f64], n: usize, k: usize) -> Result<usize> {
        if !self.out_of_range
            && self.best >= SQUARE_MIN
            && self.second < self.best * (1.0 - SQUARE_TIE)
        {
            return Ok(self.row);
        }
        let mut piv = k;
        let mut piv_mag = re[k * n + k].hypot(im[k * n + k]);
        for r in (k + 1)..n {
            let m = re[r * n + k].hypot(im[r * n + k]);
            if m > piv_mag {
                piv = r;
                piv_mag = m;
            }
        }
        if piv_mag == 0.0 {
            return Err(NumError::Singular(k));
        }
        Ok(piv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Complex64;

    #[test]
    fn solves_known_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, 1.0], &[4.0, -6.0, 0.0], &[-2.0, 7.0, 2.0]]);
        let lu = LuFactors::factor(&a).unwrap();
        let x = lu.solve(&[5.0, -2.0, 9.0]).unwrap();
        let expect = [1.0, 1.0, 2.0];
        for (xi, ei) in x.iter().zip(expect.iter()) {
            assert!((xi - ei).abs() < 1e-12, "{x:?}");
        }
    }

    #[test]
    fn residual_is_small_on_random_matrix() {
        // Deterministic pseudo-random fill.
        let n = 30;
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) - 0.5
        };
        let a = Matrix::from_fn(n, n, |r, c| next() + if r == c { 4.0 } else { 0.0 });
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let lu = LuFactors::factor(&a).unwrap();
        let x = lu.solve(&b).unwrap();
        let r = crate::vecops::sub(&a.mul_vec(&x), &b);
        assert!(crate::vecops::norm2(&r) < 1e-10);
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(LuFactors::factor(&a), Err(NumError::Singular(_))));
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::<f64>::zeros(2, 3);
        assert!(matches!(
            LuFactors::factor(&a),
            Err(NumError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn det_matches_cofactor_expansion() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let lu = LuFactors::factor(&a).unwrap();
        assert!((lu.det() - (-2.0)).abs() < 1e-14);
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[2.0, 3.0]]);
        let inv = LuFactors::factor(&a).unwrap().inverse().unwrap();
        assert!(a.mul_mat(&inv).approx_eq(&Matrix::identity(2), 1e-12));
    }

    #[test]
    fn complex_system_solves() {
        let i = Complex64::I;
        let a = Matrix::from_rows(&[
            &[Complex64::ONE + i, Complex64::new(2.0, 0.0)],
            &[Complex64::new(0.0, -1.0), Complex64::new(3.0, 1.0)],
        ]);
        let b = vec![Complex64::new(1.0, 0.0), Complex64::new(0.0, 1.0)];
        let lu = LuFactors::factor(&a).unwrap();
        let x = lu.solve(&b).unwrap();
        let r = crate::vecops::sub(&a.mul_vec(&x), &b);
        assert!(crate::vecops::norm2(&r) < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let lu = LuFactors::factor(&a).unwrap();
        let x = lu.solve(&[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-15 && (x[1] - 2.0).abs() < 1e-15);
        assert!((lu.det() + 1.0).abs() < 1e-15);
    }
}
