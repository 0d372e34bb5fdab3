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
    /// The last solve's solution.
    x: SolutionPlanes,
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
            x: SolutionPlanes::new(),
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
        let n = pencil_order(g, c)?;
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
        self.x.load(self.n, b.nrows(), b.ncols())?;
        for j in 0..b.ncols() {
            for (x, &p) in self.x.re.row_mut(j).iter_mut().zip(&self.perm) {
                *x = b[(p, j)];
            }
            self.x.im.row_mut(j).fill(0.0);
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
        self.x.load(self.n, b.nrows(), b.ncols())?;
        for j in 0..b.ncols() {
            for ((xr, xi), &p) in self
                .x
                .re
                .row_mut(j)
                .iter_mut()
                .zip(self.x.im.row_mut(j))
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
        self.x.project_into(self.n, l, out)
    }

    /// The last solution `X` as a complex matrix.
    pub fn solution(&self) -> Matrix<Complex64> {
        self.x.solution()
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

    /// Forward substitution with the unit lower factor, then backward
    /// substitution with the upper one, on each permuted right-hand side
    /// in the solution planes, accumulating in the order of
    /// [`LuFactors::solve_into`].
    fn substitute(&mut self) {
        let n = self.n;
        let (lr, li) = (self.re.as_slice(), self.im.as_slice());
        for j in 0..self.x.re.nrows() {
            let (xr, xi) = (self.x.re.row_mut(j), self.x.im.row_mut(j));
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

/// Order of a pencil `G + sC`.
///
/// # Errors
///
/// [`NumError::DimensionMismatch`] unless `G` is square and `C` has its
/// shape.
fn pencil_order(g: &Matrix<f64>, c: &Matrix<f64>) -> Result<usize> {
    let n = g.nrows();
    if g.ncols() != n {
        return Err(NumError::DimensionMismatch {
            context: "pencil factorization (square G required)",
            expected: n,
            actual: g.ncols(),
        });
    }
    if c.nrows() != n || c.ncols() != n {
        return Err(NumError::DimensionMismatch {
            context: "pencil factorization (C must match G)",
            expected: n,
            actual: if c.nrows() != n { c.nrows() } else { c.ncols() },
        });
    }
    Ok(n)
}

/// Largest backward-error certificate `ρ` at which [`PencilLdl`] keeps
/// its pivot-free factors (`τ`).
///
/// `ρ = maxᵢ Σₖ |Lᵢₖ|·maxⱼ|Uₖⱼ| / maxᵢⱼ|Aᵢⱼ|` with `|z| = |re| + |im|`
/// bounds `max (|L||U|)ᵢⱼ / max|Aᵢⱼ|`, the factor by which the standard
/// componentwise backward-error bound `|ΔA| ≤ γₙ|L||U|` of elimination
/// exceeds `γₙ·max|A|`; in exact arithmetic it is at least 1. When the
/// real and imaginary parts of `A` are both positive definite,
/// pivot-free elimination has growth below 3 (Higham, *Math. Comp.* 67,
/// 1998), and the lowrank ROM of a 32×32 RC mesh reads below 1.18 over
/// `p ∈ [−0.3, 0.3]⁴` and 10 MHz–10 GHz. A bound of 8 keeps such pencils
/// with a wide margin while holding the backward error within a small
/// constant of its best case.
pub const LDL_CERTIFICATE_BOUND: f64 = 8.0;

/// Pivot-free `LDLᵀ` of a complex **symmetric** pencil `G + sC`
/// (`G = Gᵀ`, `C = Cᵀ` bit for bit), factored in split real and
/// imaginary planes: half the elimination work of [`PencilLu`], with a
/// certified fallback to it.
///
/// Only the upper triangle of `G + sC` is built and updated. Step `k`
/// forms the multipliers `Lᵢₖ = Uₖᵢ·Uₖₖ⁻¹` from row `k` of `U` and
/// updates the upper part (`j ≥ i`) of each lower row `i`; an
/// exactly-zero multiplier skips its update. Two steps run per pass
/// over the trailing rows, each entry taking step `k`'s update and then
/// step `k + 1`'s, so the bits are those of one step at a time. `U`
/// (with the pivots `D` on its diagonal) stays on and above the
/// diagonal and the unit lower `L` below it, the layout of
/// [`LuFactors::packed`] with no permutation.
///
/// While eliminating, the kernel accumulates the backward-error
/// certificate `ρ` of [`LDL_CERTIFICATE_BOUND`] at `O(n²)` cost. It keeps
/// its factors only when every pivot is finite and nonzero and
/// `ρ ≤ τ`; otherwise it factors the same pencil with [`PencilLu`],
/// and every solve and projection returns `PencilLu`'s exact bits.
///
/// The solves run in column form: forward, `yᵢ −= Uₖᵢ·(yₖ Uₖₖ⁻¹)` for
/// `i > k`, which leaves `D⁻¹L⁻¹b`; backward, `xᵢ −= Lₖᵢ·xₖ` for
/// `i < k`. Both read a contiguous row of the factors per step and
/// update a contiguous span of the solution, with no serial
/// accumulation chain. All buffers are sized on first use and reused
/// after.
///
/// # Example
///
/// ```
/// use pmor_num::lu::PencilLdl;
/// use pmor_num::{Complex64, Matrix};
///
/// # fn main() -> Result<(), pmor_num::NumError> {
/// let g = Matrix::from_rows(&[&[2.0, -1.0], &[-1.0, 2.0]]);
/// let c = Matrix::identity(2);
/// let b = Matrix::from_rows(&[&[1.0], &[0.0]]);
/// let mut ldl = PencilLdl::new();
/// ldl.factor_pencil_into(&g, &c, Complex64::jw(1.0))?;
/// assert!(!ldl.pivoted());
/// ldl.solve_real_into(&b)?;
/// let mut h = Matrix::zeros(1, 1);
/// ldl.project_into(&b, &mut h)?; // bᵀ (G + jC)⁻¹ b
/// assert!((h[(0, 0)] - Complex64::new(0.4, -0.3)).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PencilLdl {
    /// Order of the last kept pivot-free factorization (0 before any,
    /// after an error and after a fallback).
    n: usize,
    /// `U` on and above the diagonal, `L` below it (row-major `n × n`).
    re: Matrix<f64>,
    im: Matrix<f64>,
    /// Per row `i`, the certificate's running sum `Σₖ |Lᵢₖ|·maxⱼ|Uₖⱼ|`.
    sums: Vec<f64>,
    /// The last factorization's certificate `ρ`.
    certificate: f64,
    /// The last solve's solution.
    x: SolutionPlanes,
    /// Whether the last factorization fell back to `lu`.
    pivoted: bool,
    /// Pivoted LU of the same pencil, for pencils the certificate rejects.
    lu: PencilLu,
}

impl Default for PencilLdl {
    fn default() -> Self {
        PencilLdl::new()
    }
}

impl PencilLdl {
    /// An empty kernel; buffers are sized by the first factorization.
    pub fn new() -> Self {
        PencilLdl {
            n: 0,
            re: Matrix::zeros(0, 0),
            im: Matrix::zeros(0, 0),
            sums: Vec::new(),
            certificate: f64::NAN,
            x: SolutionPlanes::new(),
            pivoted: false,
            lu: PencilLu::new(),
        }
    }

    /// Factors the symmetric pencil `G + sC` without pivoting, or with
    /// [`PencilLu`] when the certificate rejects the pivot-free factors.
    ///
    /// `G` and `C` must equal their transposes bit for bit: the
    /// pivot-free path reads only their upper triangles.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] unless `G` is square and
    /// `C` has its shape, and [`PencilLu::factor_pencil_into`]'s
    /// [`NumError::Singular`] when the fallback meets a singular pencil.
    /// After an error the kernel holds no factorization.
    pub fn factor_pencil_into(
        &mut self,
        g: &Matrix<f64>,
        c: &Matrix<f64>,
        s: Complex64,
    ) -> Result<()> {
        self.n = 0;
        self.pivoted = false;
        let n = pencil_order(g, c)?;
        if self.re.nrows() != n {
            self.re = Matrix::zeros(n, n);
            self.im = Matrix::zeros(n, n);
        }
        self.sums.clear();
        self.sums.resize(n, 0.0);
        let mut max_a = 0.0f64;
        for i in 0..n {
            let (lo, hi) = (i * n + i, (i + 1) * n);
            for (((zr, zi), &gv), &cv) in self.re.as_mut_slice()[lo..hi]
                .iter_mut()
                .zip(&mut self.im.as_mut_slice()[lo..hi])
                .zip(&g.as_slice()[lo..hi])
                .zip(&c.as_slice()[lo..hi])
            {
                // The entry `PencilLu` builds, on the upper triangle only.
                let z = Complex64::new(gv, 0.0) + s * Complex64::new(cv, 0.0);
                *zr = z.re;
                *zi = z.im;
                max_a = max_a.max(z.re.abs() + z.im.abs());
            }
        }

        // Largest `Σₖ |Lᵢₖ|·maxⱼ|Uₖⱼ|` over the rows done so far.
        let mut worst = 0.0f64;
        let mut kept = true;
        let mut k = 0;
        while kept && k + 1 < n {
            kept = self.eliminate_pair(k, &mut worst);
            k += 2;
        }
        if kept && k < n {
            // An odd order ends on a step with no row below it: only
            // its pivot is left to check.
            kept = self.pivot(k, &mut worst).is_some();
        }
        self.certificate = worst / max_a;
        if kept && worst <= LDL_CERTIFICATE_BOUND * max_a {
            self.n = n;
            return Ok(());
        }
        self.pivoted = true;
        self.lu.factor_pencil_into(g, c, s)
    }

    /// Checks pivot `k` and folds row `k` of `U` (final once steps
    /// `0..k` are done) into the certificate. Returns the pivot's
    /// reciprocal and the row's largest entry, or `None` when the pivot
    /// is zero or not finite.
    fn pivot(&self, k: usize, worst: &mut f64) -> Option<(Complex64, f64)> {
        let n = self.re.nrows();
        let d = Complex64::new(self.re[(k, k)], self.im[(k, k)]);
        if d == Complex64::ZERO || !d.is_finite() {
            return None;
        }
        let (lo, hi) = (k * n + k, (k + 1) * n);
        let row_max = self.re.as_slice()[lo..hi]
            .iter()
            .zip(&self.im.as_slice()[lo..hi])
            .fold(0.0f64, |m, (r, i)| m.max(r.abs() + i.abs()));
        *worst = worst.max(self.sums[k] + row_max);
        Some((d.recip(), row_max))
    }

    /// Elimination steps `k` and `k + 1` in one pass over the rows below
    /// `k + 1`: step `k` first updates row `k + 1`, which is all pivot
    /// `k + 1` needs; every lower row then forms both multipliers and
    /// takes both updates entry by entry, `k`'s before `k + 1`'s.
    /// Returns `false` when either pivot is zero or not finite.
    fn eliminate_pair(&mut self, k: usize, worst: &mut f64) -> bool {
        let n = self.re.nrows();
        let (k1, k2) = (k + 1, k + 2);
        let Some((inv0, max0)) = self.pivot(k, worst) else {
            return false;
        };

        // Step k on row k + 1.
        let (head_re, tail_re) = self.re.as_mut_slice().split_at_mut(k1 * n);
        let (head_im, tail_im) = self.im.as_mut_slice().split_at_mut(k1 * n);
        let (u0r, u0i) = (&head_re[k * n..], &head_im[k * n..]);
        let (row_re, row_im) = (&mut tail_re[..n], &mut tail_im[..n]);
        let f0 = Complex64::new(u0r[k1], u0i[k1]) * inv0;
        row_re[k] = f0.re;
        row_im[k] = f0.im;
        self.sums[k1] += (f0.re.abs() + f0.im.abs()) * max0;
        if f0 != Complex64::ZERO {
            sub_scaled_row(
                &mut row_re[k1..],
                &mut row_im[k1..],
                f0,
                &u0r[k1..],
                &u0i[k1..],
            );
        }
        let Some((inv1, max1)) = self.pivot(k1, worst) else {
            return false;
        };

        // Every lower row: both multipliers, then both updates.
        let (head_re, tail_re) = self.re.as_mut_slice().split_at_mut(k2 * n);
        let (head_im, tail_im) = self.im.as_mut_slice().split_at_mut(k2 * n);
        let (u0r, u0i) = (&head_re[k * n..k1 * n], &head_im[k * n..k1 * n]);
        let (u1r, u1i) = (&head_re[k1 * n..], &head_im[k1 * n..]);
        let rows = tail_re.chunks_exact_mut(n).zip(tail_im.chunks_exact_mut(n));
        for ((i, (row_re, row_im)), sum) in (k2..).zip(rows).zip(&mut self.sums[k2..]) {
            let f0 = Complex64::new(u0r[i], u0i[i]) * inv0;
            let f1 = Complex64::new(u1r[i], u1i[i]) * inv1;
            row_re[k] = f0.re;
            row_im[k] = f0.im;
            row_re[k1] = f1.re;
            row_im[k1] = f1.im;
            *sum += (f0.re.abs() + f0.im.abs()) * max0;
            *sum += (f1.re.abs() + f1.im.abs()) * max1;
            let (ar, ai) = (&mut row_re[i..], &mut row_im[i..]);
            let (x0r, x0i, x1r, x1i) = (&u0r[i..], &u0i[i..], &u1r[i..], &u1i[i..]);
            match (f0 != Complex64::ZERO, f1 != Complex64::ZERO) {
                (true, true) => sub_scaled_row_pair(ar, ai, [f0, f1], [x0r, x1r], [x0i, x1i]),
                (true, false) => sub_scaled_row(ar, ai, f0, x0r, x0i),
                (false, true) => sub_scaled_row(ar, ai, f1, x1r, x1i),
                (false, false) => {}
            }
        }
        true
    }

    /// Solves `A X = B` for a real `B` read as `(b, 0)`, leaving `X` in
    /// the kernel's solution planes (see [`PencilLdl::project_into`] and
    /// [`PencilLdl::solution`]).
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] unless `b` has as many
    /// rows as the last successful factorization's order.
    pub fn solve_real_into(&mut self, b: &Matrix<f64>) -> Result<()> {
        if self.pivoted {
            return self.lu.solve_real_into(b);
        }
        self.x.load(self.n, b.nrows(), b.ncols())?;
        for j in 0..b.ncols() {
            for (r, x) in self.x.re.row_mut(j).iter_mut().enumerate() {
                *x = b[(r, j)];
            }
            self.x.im.row_mut(j).fill(0.0);
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
        if self.pivoted {
            return self.lu.project_into(l, out);
        }
        self.x.project_into(self.n, l, out)
    }

    /// The last solution `X` as a complex matrix.
    pub fn solution(&self) -> Matrix<Complex64> {
        if self.pivoted {
            return self.lu.solution();
        }
        self.x.solution()
    }

    /// Whether the last factorization fell back to [`PencilLu`].
    pub fn pivoted(&self) -> bool {
        self.pivoted
    }

    /// The last factorization's certificate `ρ` (see
    /// [`LDL_CERTIFICATE_BOUND`]); meaningful when its pivots were all
    /// finite and nonzero.
    pub fn certificate(&self) -> f64 {
        self.certificate
    }

    /// The pivot-free factors' real and imaginary planes: `U` on and
    /// above the diagonal, the unit lower `L` below it. Valid after a
    /// factorization that kept them ([`PencilLdl::pivoted`] is false).
    pub fn factors(&self) -> (&Matrix<f64>, &Matrix<f64>) {
        (&self.re, &self.im)
    }

    /// Forward then backward substitution in column form (see the type
    /// docs) on every right-hand side in the solution planes, one row
    /// of the factors at a time.
    fn substitute(&mut self) {
        let n = self.n;
        let (fr, fi) = (self.re.as_slice(), self.im.as_slice());
        let nrhs = self.x.re.nrows();
        for k in 0..n {
            let inv = Complex64::recip(Complex64::new(fr[k * n + k], fi[k * n + k]));
            let (ur, ui) = (
                &fr[k * n + k + 1..(k + 1) * n],
                &fi[k * n + k + 1..(k + 1) * n],
            );
            for j in 0..nrhs {
                let (yr, yi) = (self.x.re.row_mut(j), self.x.im.row_mut(j));
                let t = Complex64::new(yr[k], yi[k]) * inv;
                yr[k] = t.re;
                yi[k] = t.im;
                sub_scaled_row(&mut yr[k + 1..], &mut yi[k + 1..], t, ur, ui);
            }
        }
        for k in (1..n).rev() {
            let (lr, li) = (&fr[k * n..k * n + k], &fi[k * n..k * n + k]);
            for j in 0..nrhs {
                let (yr, yi) = (self.x.re.row_mut(j), self.x.im.row_mut(j));
                let t = Complex64::new(yr[k], yi[k]);
                sub_scaled_row(&mut yr[..k], &mut yi[..k], t, lr, li);
            }
        }
    }
}

/// The solution `X` of a pencil kernel's last solve, held as real and
/// imaginary planes with one row per right-hand side (`nrhs × n`), so
/// each column of `X` is contiguous.
#[derive(Debug, Clone)]
struct SolutionPlanes {
    re: Matrix<f64>,
    im: Matrix<f64>,
}

impl SolutionPlanes {
    fn new() -> Self {
        SolutionPlanes {
            re: Matrix::zeros(0, 0),
            im: Matrix::zeros(0, 0),
        }
    }

    /// Checks that a right-hand side has a row per state of a
    /// factorization of order `n`, and sizes the planes for `nrhs`
    /// columns.
    fn load(&mut self, n: usize, nrows: usize, nrhs: usize) -> Result<()> {
        if nrows != n {
            return Err(NumError::DimensionMismatch {
                context: "pencil solve (rows of B vs the factored order)",
                expected: n,
                actual: nrows,
            });
        }
        if self.re.nrows() != nrhs || self.re.ncols() != nrows {
            self.re = Matrix::zeros(nrhs, nrows);
            self.im = Matrix::zeros(nrhs, nrows);
        }
        Ok(())
    }

    /// `out = Lᵀ X` for a factorization of order `n`, with the operation
    /// order of [`Matrix::tr_mul_mat`].
    fn project_into(&self, n: usize, l: &Matrix<f64>, out: &mut Matrix<Complex64>) -> Result<()> {
        let nrhs = self.re.nrows();
        if l.nrows() != n || self.re.ncols() != n {
            return Err(NumError::DimensionMismatch {
                context: "pencil projection (L rows vs the solved order)",
                expected: n,
                actual: l.nrows(),
            });
        }
        if out.nrows() != l.ncols() || out.ncols() != nrhs {
            return Err(NumError::DimensionMismatch {
                context: "pencil projection (output shape)",
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
                        Complex64::new(lki, 0.0) * Complex64::new(self.re[(j, k)], self.im[(j, k)]);
                }
            }
        }
        Ok(())
    }

    fn solution(&self) -> Matrix<Complex64> {
        Matrix::from_fn(self.re.ncols(), self.re.nrows(), |r, j| {
            Complex64::new(self.re[(j, r)], self.im[(j, r)])
        })
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
