//! Compressed sparse row matrices.

use pmor_num::{Matrix, Scalar};
use std::ops::Range;

/// A sparse matrix in CSR format.
///
/// Rows are stored contiguously; within each row the column indices are
/// strictly increasing. Construction is via [`CsrMatrix::from_triplets`]
/// (usually through [`crate::CooBuilder`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix<T = f64> {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<T>,
}

impl<T: Scalar> CsrMatrix<T> {
    /// Builds a CSR matrix from triplets, accumulating duplicates and
    /// dropping entries that cancel to exact zero.
    pub fn from_triplets(nrows: usize, ncols: usize, triplets: &[(usize, usize, T)]) -> Self {
        let mut sorted: Vec<(usize, usize, T)> = triplets.to_vec();
        sorted.sort_by_key(|t| (t.0, t.1));

        let mut row_ptr = vec![0usize; nrows + 1];
        let mut col_idx = Vec::with_capacity(sorted.len());
        let mut values: Vec<T> = Vec::with_capacity(sorted.len());

        let mut iter = sorted.into_iter().peekable();
        while let Some((r, c, mut v)) = iter.next() {
            while let Some(&(r2, c2, v2)) = iter.peek() {
                if r2 == r && c2 == c {
                    v += v2;
                    iter.next();
                } else {
                    break;
                }
            }
            if v != T::ZERO {
                col_idx.push(c);
                values.push(v);
                row_ptr[r + 1] += 1;
            }
        }
        for r in 0..nrows {
            row_ptr[r + 1] += row_ptr[r];
        }
        CsrMatrix {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Creates an all-zero matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        CsrMatrix {
            nrows,
            ncols,
            row_ptr: vec![0; nrows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            nrows: n,
            ncols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            values: vec![T::ONE; n],
        }
    }

    /// Converts a dense matrix, keeping entries with magnitude above `tol`.
    pub fn from_dense(a: &Matrix<T>, tol: f64) -> Self {
        let mut triplets = Vec::new();
        for r in 0..a.nrows() {
            for c in 0..a.ncols() {
                if a[(r, c)].modulus() > tol {
                    triplets.push((r, c, a[(r, c)]));
                }
            }
        }
        CsrMatrix::from_triplets(a.nrows(), a.ncols(), &triplets)
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The row-pointer array of the CSR structure (`nrows + 1` entries;
    /// row `r` occupies `col_indices()[row_ptr()[r]..row_ptr()[r+1]]`).
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The column-index array of the CSR structure, aligned with the
    /// stored values.
    #[inline]
    pub fn col_indices(&self) -> &[usize] {
        &self.col_idx
    }

    /// Returns the entry at `(row, col)` (zero when not stored).
    pub fn get(&self, row: usize, col: usize) -> T {
        let (cols, vals) = self.row(row);
        match cols.binary_search(&col) {
            Ok(k) => vals[k],
            Err(_) => T::ZERO,
        }
    }

    /// Borrow the column indices and values of `row`.
    #[inline]
    pub fn row(&self, row: usize) -> (&[usize], &[T]) {
        let lo = self.row_ptr[row];
        let hi = self.row_ptr[row + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Iterates over all stored `(row, col, value)` triplets.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        (0..self.nrows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter().zip(vals.iter()).map(move |(&c, &v)| (r, c, v))
        })
    }

    /// Matrix–vector product `y = A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols`.
    pub fn mul_vec(&self, x: &[T]) -> Vec<T> {
        let mut y = Vec::with_capacity(self.nrows);
        self.mul_vec_into(x, &mut y);
        y
    }

    /// [`CsrMatrix::mul_vec`] writing into a caller-owned buffer (cleared
    /// and refilled; capacity is reused across calls). Values are bitwise
    /// identical to [`CsrMatrix::mul_vec`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols`.
    pub fn mul_vec_into(&self, x: &[T], y: &mut Vec<T>) {
        assert_eq!(x.len(), self.ncols, "CsrMatrix::mul_vec_into: dim mismatch");
        y.clear();
        y.extend((0..self.nrows).map(|r| {
            let (cols, vals) = self.row(r);
            let mut acc = T::ZERO;
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                acc += v * x[c];
            }
            acc
        }));
    }

    /// Transposed product `y = Aᵀ·x` without forming the transpose.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != nrows`.
    pub fn tr_mul_vec(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.nrows, "CsrMatrix::tr_mul_vec: dim mismatch");
        let mut y = vec![T::ZERO; self.ncols];
        for r in 0..self.nrows {
            let xr = x[r];
            if xr == T::ZERO {
                continue;
            }
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                y[c] += v * xr;
            }
        }
        y
    }

    /// Transposed sparse–dense product `Aᵀ · X` for dense `X`, bitwise
    /// identical to [`CsrMatrix::tr_mul_vec`] on each column of `X`: every
    /// entry accumulates over the rows of `A` in ascending order, and a
    /// zero `X[r, j]` adds `−0` (an exact identity) in place of the column
    /// product's skip. Rows of `X` that are entirely zero are skipped.
    ///
    /// # Panics
    ///
    /// Panics if `x.nrows() != nrows`.
    pub fn tr_mul_dense(&self, x: &Matrix<T>) -> Matrix<T> {
        self.tr_mul_dense_columns(x, 0..x.ncols())
    }

    /// [`CsrMatrix::tr_mul_dense`] of the columns `cols` of `X`, read in
    /// place: bit for bit `tr_mul_dense(&x.columns(cols))`.
    ///
    /// # Panics
    ///
    /// Panics if `x.nrows() != nrows` or `cols` is out of range.
    pub fn tr_mul_dense_columns(&self, x: &Matrix<T>, cols: Range<usize>) -> Matrix<T> {
        assert_eq!(
            x.nrows(),
            self.nrows,
            "CsrMatrix::tr_mul_dense: dim mismatch"
        );
        let neg_zero = -T::ZERO;
        let mut y = Matrix::zeros(self.ncols, cols.len());
        for r in 0..self.nrows {
            let xrow = &x.row(r)[cols.clone()];
            if xrow.iter().all(|&v| v == T::ZERO) {
                continue;
            }
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                for (yj, &xj) in y.row_mut(c).iter_mut().zip(xrow) {
                    let p = v * xj;
                    *yj += if xj == T::ZERO { neg_zero } else { p };
                }
            }
        }
        y
    }

    /// Sparse–dense product `A · X` for dense `X`.
    ///
    /// # Panics
    ///
    /// Panics if `x.nrows() != ncols`.
    pub fn mul_dense(&self, x: &Matrix<T>) -> Matrix<T> {
        let mut y = Matrix::zeros(self.nrows, x.ncols());
        self.mul_dense_into(x, &mut y, 0);
        y
    }

    /// [`CsrMatrix::mul_dense`] written into the columns
    /// `at..at + x.ncols()` of `y`, bit for bit; `y`'s other columns are
    /// left as they are. This lets several products share one wider block.
    ///
    /// # Panics
    ///
    /// Panics if `x.nrows() != ncols`, `y.nrows() != nrows` or the columns
    /// do not fit in `y`.
    pub fn mul_dense_into(&self, x: &Matrix<T>, y: &mut Matrix<T>, at: usize) {
        assert_eq!(x.nrows(), self.ncols, "CsrMatrix::mul_dense: dim mismatch");
        assert_eq!(y.nrows(), self.nrows, "CsrMatrix::mul_dense: dim mismatch");
        let end = at + x.ncols();
        for r in 0..self.nrows {
            let yrow = &mut y.row_mut(r)[at..end];
            yrow.fill(T::ZERO);
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                for (yj, &xj) in yrow.iter_mut().zip(x.row(c)) {
                    *yj += v * xj;
                }
            }
        }
    }

    /// The columns that store entries, ascending, and the matrix with
    /// only those columns, renumbered `0..support.len()` in that order.
    /// Stored zeros count as entries. Every row keeps its values in
    /// their order, so `A·X` is bit for bit the compact matrix times the
    /// rows `support` of `X`, and the compact `Aᵀ·Y` is the rows `support`
    /// of `Aᵀ·Y`, whose other rows are `+0`.
    pub fn compact_columns(&self) -> (Vec<usize>, CsrMatrix<T>) {
        let mut stored = vec![false; self.ncols];
        for &c in &self.col_idx {
            stored[c] = true;
        }
        let mut at = vec![0; self.ncols];
        let mut support = Vec::new();
        for (c, _) in stored.iter().enumerate().filter(|(_, &s)| s) {
            at[c] = support.len();
            support.push(c);
        }
        let compact = CsrMatrix {
            nrows: self.nrows,
            ncols: support.len(),
            row_ptr: self.row_ptr.clone(),
            col_idx: self.col_idx.iter().map(|&c| at[c]).collect(),
            values: self.values.clone(),
        };
        (support, compact)
    }

    /// Congruence/projection product `Vᵀ · A · W` for dense `V`, `W` —
    /// the reduction step `G̃ = Vᵀ G V` of PRIMA and Algorithm 1 step 4.
    ///
    /// Support-aware: row `k` of `A·W` is formed and folded into the
    /// result only when row `k` of `A` stores entries, so a sensitivity
    /// matrix touching a quarter of the rows costs a quarter of the
    /// work, and `A·W` is never held in full. The result is bitwise
    /// identical to `v.tr_mul_mat(&self.mul_dense(w))` (on and above the
    /// diagonal in the mirrored case below). Every kept term is
    /// computed in the same order (entries of `A·W` over the row's stored
    /// columns, the result over `k` ascending, zero `V[k, i]` skipped).
    /// A skipped empty row would have added `V[k, i]·(+0)`, which is `±0`
    /// when `V` is **finite**, the precondition here. Each accumulator
    /// starts at `+0`, and under round-to-nearest a sum is `−0` only when
    /// both addends are, so an accumulator is never `−0`; adding `±0` to
    /// anything but `−0` is an identity, so the skipped terms change no
    /// bit. (A non-finite `V[k, i]` would have contributed `NaN`.)
    ///
    /// When `V` and `W` are equal and `A` equals its transpose bit for
    /// bit ([`CsrMatrix::is_bitwise_symmetric`]), only the `j ≥ i` half
    /// of each fold is computed, bit for bit as above, and then mirrored
    /// below the diagonal: at half the dense work, the result equals its
    /// transpose bit for bit, as the congruence of a symmetric matrix
    /// does in exact arithmetic.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn congruence(&self, v: &Matrix<T>, w: &Matrix<T>) -> Matrix<T> {
        assert_eq!(v.nrows(), self.nrows, "congruence: V row mismatch");
        assert_eq!(w.nrows(), self.ncols, "congruence: W row mismatch");
        let mirror = (std::ptr::eq(v, w) || v == w) && self.is_bitwise_symmetric();
        let mut out = Matrix::zeros(v.ncols(), w.ncols());
        let mut awk = vec![T::ZERO; w.ncols()];
        for k in 0..self.nrows {
            let (cols, vals) = self.row(k);
            if cols.is_empty() {
                continue;
            }
            awk.fill(T::ZERO);
            for (&c, &a) in cols.iter().zip(vals.iter()) {
                for (s, &x) in awk.iter_mut().zip(w.row(c)) {
                    *s += a * x;
                }
            }
            for (i, &vki) in v.row(k).iter().enumerate() {
                if vki == T::ZERO {
                    continue;
                }
                let from = if mirror { i } else { 0 };
                for (o, &s) in out.row_mut(i)[from..].iter_mut().zip(&awk[from..]) {
                    *o += vki * s;
                }
            }
        }
        if mirror {
            for i in 1..out.nrows() {
                for j in 0..i {
                    out[(i, j)] = out[(j, i)];
                }
            }
        }
        out
    }

    /// Whether the matrix is square, stores `(c, r)` for every stored
    /// `(r, c)`, and holds the same bits in both (real and imaginary
    /// parts compared by bit pattern, so `+0` and `−0` differ).
    pub fn is_bitwise_symmetric(&self) -> bool {
        let same = |a: T, b: T| {
            a.real().to_bits() == b.real().to_bits() && a.imag().to_bits() == b.imag().to_bits()
        };
        self.nrows == self.ncols
            && (0..self.nrows).all(|r| {
                let (cols, vals) = self.row(r);
                cols.iter().zip(vals).all(|(&c, &v)| {
                    let (tc, tv) = self.row(c);
                    tc.binary_search(&r).is_ok_and(|at| same(v, tv[at]))
                })
            })
    }

    /// Linear combination `self + k · other` (patterns may differ).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn add_scaled(&self, k: T, other: &CsrMatrix<T>) -> CsrMatrix<T> {
        assert_eq!(
            (self.nrows, self.ncols),
            (other.nrows, other.ncols),
            "add_scaled: dimension mismatch"
        );
        let mut triplets: Vec<(usize, usize, T)> = self.iter().collect();
        triplets.extend(other.iter().map(|(r, c, v)| (r, c, k * v)));
        CsrMatrix::from_triplets(self.nrows, self.ncols, &triplets)
    }

    /// Scales all values by `k`.
    pub fn scaled(&self, k: T) -> CsrMatrix<T> {
        let mut out = self.clone();
        for v in out.values.iter_mut() {
            *v *= k;
        }
        out
    }

    /// Explicit transpose, by one counting pass, so its rows come out
    /// sorted in O(nnz). Stored exact zeros are dropped, as
    /// [`CsrMatrix::from_triplets`] drops them.
    pub fn transposed(&self) -> CsrMatrix<T> {
        let mut row_ptr = vec![0usize; self.ncols + 1];
        for (&c, &v) in self.col_idx.iter().zip(&self.values) {
            if v != T::ZERO {
                row_ptr[c + 1] += 1;
            }
        }
        for c in 0..self.ncols {
            row_ptr[c + 1] += row_ptr[c];
        }
        let nnz = row_ptr[self.ncols];
        let mut col_idx = vec![0usize; nnz];
        let mut values = vec![T::ZERO; nnz];
        let mut next = row_ptr[..self.ncols].to_vec();
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                if v != T::ZERO {
                    col_idx[next[c]] = r;
                    values[next[c]] = v;
                    next[c] += 1;
                }
            }
        }
        CsrMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Converts to a dense matrix.
    pub fn to_dense(&self) -> Matrix<T> {
        let mut m = Matrix::zeros(self.nrows, self.ncols);
        for (r, c, v) in self.iter() {
            m[(r, c)] = v;
        }
        m
    }

    /// Maps values entry-wise (pattern preserved; zeros produced by `f` stay
    /// stored).
    pub fn map<U: Scalar>(&self, mut f: impl FnMut(T) -> U) -> CsrMatrix<U> {
        CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            row_ptr: self.row_ptr.clone(),
            col_idx: self.col_idx.clone(),
            values: self.values.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Largest asymmetry `max |A - Aᵀ|`; zero for structurally and
    /// numerically symmetric matrices.
    pub fn symmetry_defect(&self) -> f64 {
        let t = self.transposed();
        let diff = self.add_scaled(-T::ONE, &t);
        diff.values.iter().map(|v| v.modulus()).fold(0.0, f64::max)
    }

    /// Largest entry magnitude.
    pub fn max_abs(&self) -> f64 {
        self.values.iter().map(|v| v.modulus()).fold(0.0, f64::max)
    }
}

impl CsrMatrix<f64> {
    /// Entry-wise `Σₖ |Mₖ|` of same-shape matrices in one row-by-row
    /// merge: each entry sums its magnitudes in the order the matrices
    /// are given, and an entry whose sum is exactly zero is dropped, as
    /// a fold of [`CsrMatrix::add_scaled`] over the magnitudes does.
    ///
    /// # Panics
    ///
    /// Panics if `mats` is empty or the shapes differ.
    pub fn abs_sum(mats: &[&CsrMatrix<f64>]) -> CsrMatrix<f64> {
        let (nrows, ncols) = (mats[0].nrows, mats[0].ncols);
        assert!(
            mats.iter().all(|m| (m.nrows, m.ncols) == (nrows, ncols)),
            "abs_sum: dimension mismatch"
        );
        let stored: usize = mats.iter().map(|m| m.nnz()).sum();
        let mut row_ptr = Vec::with_capacity(nrows + 1);
        let mut col_idx = Vec::with_capacity(stored);
        let mut values = Vec::with_capacity(stored);
        row_ptr.push(0);
        // `acc[c]` holds row `seen[c]`'s sum at column `c`.
        let mut acc = vec![0.0f64; ncols];
        let mut seen = vec![usize::MAX; ncols];
        let mut cols = Vec::new();
        for r in 0..nrows {
            cols.clear();
            for m in mats {
                let (cs, vs) = m.row(r);
                for (&c, &v) in cs.iter().zip(vs) {
                    if seen[c] == r {
                        acc[c] += v.abs();
                    } else {
                        seen[c] = r;
                        acc[c] = v.abs();
                        cols.push(c);
                    }
                }
            }
            cols.sort_unstable();
            for &c in &cols {
                if acc[c] != 0.0 {
                    col_idx.push(c);
                    values.push(acc[c]);
                }
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Embeds into the complex field — used to assemble `G + sC` for
    /// frequency sweeps.
    pub fn to_complex(&self) -> CsrMatrix<pmor_num::Complex64> {
        self.map(pmor_num::Complex64::from_real)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix<f64> {
        // [[1, 0, 2],
        //  [0, 3, 0],
        //  [4, 0, 5]]
        CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 1.0),
                (0, 2, 2.0),
                (1, 1, 3.0),
                (2, 0, 4.0),
                (2, 2, 5.0),
            ],
        )
    }

    #[test]
    fn get_and_nnz() {
        let m = sample();
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(1, 0), 0.0);
    }

    #[test]
    fn mul_vec_matches_dense() {
        let m = sample();
        let x = vec![1.0, 2.0, 3.0];
        assert_eq!(m.mul_vec(&x), m.to_dense().mul_vec(&x));
    }

    #[test]
    fn tr_mul_vec_matches_transpose() {
        let m = sample();
        let x = vec![1.0, -1.0, 0.5];
        assert_eq!(m.tr_mul_vec(&x), m.transposed().mul_vec(&x));
    }

    #[test]
    fn add_scaled_merges_patterns() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0)]);
        let b = CsrMatrix::from_triplets(2, 2, &[(1, 1, 2.0), (0, 0, 3.0)]);
        let c = a.add_scaled(2.0, &b);
        assert_eq!(c.get(0, 0), 7.0);
        assert_eq!(c.get(1, 1), 4.0);
    }

    #[test]
    fn congruence_matches_dense_triple_product() {
        let m = sample();
        let v = Matrix::from_fn(3, 2, |r, c| (r + c) as f64);
        let got = m.congruence(&v, &v);
        let expect = v.tr_mul_mat(&m.to_dense().mul_mat(&v));
        assert!(got.approx_eq(&expect, 1e-14));
    }

    /// Support-aware congruence is bitwise the two-pass product, on a
    /// matrix with empty rows, `V` holding `+0` and `−0` entries and
    /// `V ≠ W` (the shape `fit.rs` uses).
    #[test]
    fn congruence_is_bitwise_the_two_pass_product() {
        let (n, q, m) = (12, 4, 3);
        let mut tri = Vec::new();
        for r in (0..n).filter(|r| r % 3 != 1) {
            tri.push((r, r, 2.0 + r as f64 * 0.37));
            for d in [1, 4, 7] {
                tri.push((r, (r + d) % n, -0.61 * ((r * d) as f64 + 1.0).sin()));
            }
        }
        let a = CsrMatrix::from_triplets(n, n, &tri);
        assert!((0..n).any(|r| a.row(r).0.is_empty()), "has empty rows");
        let v = Matrix::from_fn(n, q, |r, c| match (r + 2 * c) % 4 {
            0 => 0.0,
            1 => -0.0,
            _ => ((r * q + c) as f64 * 0.91).cos(),
        });
        let w = Matrix::from_fn(n, m, |r, c| match (3 * r + c) % 5 {
            0 => -0.0,
            _ => ((r + 7 * c) as f64 * 0.53).sin() - 0.2,
        });
        for (vv, ww, what) in [(&v, &w, "V ≠ W"), (&v, &v, "V = W")] {
            let got = a.congruence(vv, ww);
            let want = vv.tr_mul_mat(&a.mul_dense(ww));
            assert_eq!((got.nrows(), got.ncols()), (want.nrows(), want.ncols()));
            for (g, e) in got.as_slice().iter().zip(want.as_slice()) {
                assert_eq!(g.to_bits(), e.to_bits(), "{what}: {g} vs {e}");
            }
        }
    }

    /// A bitwise-symmetric `A` under `V = W`: the upper half keeps the
    /// two-pass product's bits and the lower half mirrors it. A single
    /// `−0` against a `+0` makes `A` asymmetric and keeps both halves.
    #[test]
    fn symmetric_congruence_mirrors_the_upper_half() {
        let (n, q) = (9, 4);
        let mut tri = Vec::new();
        for r in 0..n {
            tri.push((r, r, 3.0 + r as f64 * 0.29));
            for d in [1, 3] {
                let c = (r + d) % n;
                let v = -0.47 * ((r * d + c) as f64).cos();
                tri.extend([(r, c, v), (c, r, v)]);
            }
        }
        let a = CsrMatrix::from_triplets(n, n, &tri);
        assert!(a.is_bitwise_symmetric());
        let v = Matrix::from_fn(n, q, |r, c| match (r + c) % 5 {
            0 => -0.0,
            _ => ((r * q + c) as f64 * 0.73).sin(),
        });
        let got = a.congruence(&v, &v);
        let want = v.tr_mul_mat(&a.mul_dense(&v));
        for i in 0..q {
            for j in i..q {
                assert_eq!(got[(i, j)].to_bits(), want[(i, j)].to_bits(), "({i}, {j})");
                assert_eq!(got[(j, i)].to_bits(), got[(i, j)].to_bits(), "({j}, {i})");
            }
        }

        // `+0` at (0, 1) against `−0` at (1, 0): asymmetric, full fold.
        tri.extend([(0, 4, 1.0), (4, 0, -1.0)]);
        let b =
            CsrMatrix::from_triplets(n, n, &tri).map(|x| if x.abs() == 1.0 { x * 0.0 } else { x });
        assert_eq!(b.get(0, 4), 0.0);
        assert!(!b.is_bitwise_symmetric());
        let got = b.congruence(&v, &v);
        let want = v.tr_mul_mat(&b.mul_dense(&v));
        for (g, e) in got.as_slice().iter().zip(want.as_slice()) {
            assert_eq!(g.to_bits(), e.to_bits());
        }
        assert!(!CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0)]).is_bitwise_symmetric());
        assert!(!CsrMatrix::<f64>::zeros(2, 3).is_bitwise_symmetric());
    }

    #[test]
    fn tr_mul_dense_is_bitwise_tr_mul_vec_per_column() {
        let m = sample();
        let x = Matrix::from_rows(&[&[1.0, -0.0, 0.0], &[0.0, 0.0, -0.0], &[-2.5, 0.0, 3.0]]);
        let got = m.tr_mul_dense(&x);
        for j in 0..3 {
            let want = m.tr_mul_vec(&x.col(j));
            for (i, w) in want.iter().enumerate() {
                assert_eq!(got[(i, j)].to_bits(), w.to_bits(), "({i}, {j})");
            }
        }
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        assert_eq!(m.transposed().transposed(), m);
    }

    #[test]
    fn counting_transpose_matches_the_triplet_transpose() {
        // A rectangular pattern with stored zeros (`map` keeps them, and
        // both transposes must drop them), `−0` among them.
        let m = CsrMatrix::from_triplets(
            3,
            4,
            &[
                (0, 1, 2.0),
                (0, 3, -1.0),
                (1, 0, 4.0),
                (1, 2, 0.5),
                (2, 1, -3.0),
                (2, 2, 7.0),
                (2, 3, 1.5),
            ],
        )
        .map(|v| {
            if v == 0.5 {
                0.0
            } else if v == 1.5 {
                -0.0
            } else {
                v
            }
        });
        assert_eq!(m.nnz(), 7, "map keeps the zeros stored");
        let triplets: Vec<(usize, usize, f64)> = m.iter().map(|(r, c, v)| (c, r, v)).collect();
        let want = CsrMatrix::from_triplets(4, 3, &triplets);
        let got = m.transposed();
        assert_eq!(got, want);
        assert_eq!(got.nnz(), 5);
    }

    #[test]
    fn symmetry_defect_zero_for_symmetric() {
        let mut b = crate::CooBuilder::new(2, 2);
        b.stamp_pair(Some(0), Some(1), 3.0);
        let m = b.build_csr();
        assert_eq!(m.symmetry_defect(), 0.0);
        assert!(sample().symmetry_defect() > 0.0);
    }

    #[test]
    fn identity_and_zeros() {
        let i = CsrMatrix::<f64>::identity(3);
        let x = vec![1.0, 2.0, 3.0];
        assert_eq!(i.mul_vec(&x), x);
        let z = CsrMatrix::<f64>::zeros(2, 3);
        assert_eq!(z.mul_vec(&x), vec![0.0, 0.0]);
    }

    #[test]
    fn from_dense_roundtrip() {
        let d = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]);
        let s = CsrMatrix::from_dense(&d, 0.0);
        assert_eq!(s.to_dense(), d);
        assert_eq!(s.nnz(), 2);
    }

    #[test]
    fn mul_dense_matches_dense() {
        let m = sample();
        let x = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f64 - 1.0);
        let got = m.mul_dense(&x);
        let expect = m.to_dense().mul_mat(&x);
        assert!(got.approx_eq(&expect, 1e-14));
    }

    #[test]
    fn compact_columns_keep_stored_zeros_and_the_products_bits() {
        // Columns 1 and 4 of 6 store entries, one of them an explicit 0.0.
        let mut m = CsrMatrix::from_triplets(3, 6, &[(0, 4, 0.3), (1, 1, 2.5), (2, 4, -1.5)]);
        m.values[1] = 0.0;
        let (support, compact) = m.compact_columns();
        assert_eq!(support, vec![1, 4]);
        assert_eq!(compact.ncols(), 2);
        let x = Matrix::from_fn(6, 3, |r, c| ((r * 3 + c) as f64 * 0.37).sin());
        let rows = Matrix::from_fn(2, 3, |r, c| x[(support[r], c)]);
        let bits = |a: &Matrix<f64>| a.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&compact.mul_dense(&rows)), bits(&m.mul_dense(&x)));
        // Written into the middle of a wider block, next to kept columns.
        let mut wide = Matrix::from_fn(3, 5, |_, _| 9.0);
        compact.mul_dense_into(&rows, &mut wide, 1);
        assert_eq!(bits(&wide.columns(1..4)), bits(&m.mul_dense(&x)));
        assert!(wide.col(0).iter().chain(&wide.col(4)).all(|&v| v == 9.0));
        let y = Matrix::from_fn(3, 5, |r, c| ((r * 5 + c) as f64 * 0.61).cos());
        let full = m.tr_mul_dense(&y.columns(1..4));
        let want = Matrix::from_fn(2, 3, |r, c| full[(support[r], c)]);
        assert_eq!(bits(&compact.tr_mul_dense_columns(&y, 1..4)), bits(&want));
    }
}
