//! Dense row-major matrices generic over [`Scalar`].
//!
//! [`Matrix`] is the workspace's dense work-horse: projection bases,
//! reduced-order system matrices and eigensolver workspaces are all stored
//! here. The layout is row-major (`data[r * ncols + c]`), and columns are the
//! semantic unit for Krylov code, so column accessors copy into `Vec`s.

use crate::scalar::Scalar;
use crate::Complex64;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense matrix with row-major storage.
///
/// # Example
///
/// ```
/// use pmor_num::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::<f64>::identity(2);
/// let c = a.mul_mat(&b);
/// assert_eq!(c, a);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix<T = f64> {
    nrows: usize,
    ncols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Matrix<T> {
    /// Creates an `nrows × ncols` matrix of zeros.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Matrix {
            nrows,
            ncols,
            data: vec![T::ZERO; nrows * ncols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::ONE;
        }
        m
    }

    /// Creates a matrix by evaluating `f(row, col)` at every entry.
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in 0..nrows {
            for c in 0..ncols {
                data.push(f(r, c));
            }
        }
        Matrix { nrows, ncols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[T]]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for row in rows {
            assert_eq!(row.len(), ncols, "inconsistent row lengths");
            data.extend_from_slice(row);
        }
        Matrix { nrows, ncols, data }
    }

    /// Creates an `n × 1` column matrix from a vector.
    pub fn from_col(col: &[T]) -> Self {
        Matrix {
            nrows: col.len(),
            ncols: 1,
            data: col.to_vec(),
        }
    }

    /// Creates a matrix whose columns are the given vectors.
    ///
    /// # Panics
    ///
    /// Panics if the columns have inconsistent lengths.
    pub fn from_cols(cols: &[Vec<T>]) -> Self {
        let ncols = cols.len();
        let nrows = cols.first().map_or(0, |c| c.len());
        let mut m = Matrix::zeros(nrows, ncols);
        for (j, col) in cols.iter().enumerate() {
            assert_eq!(col.len(), nrows, "inconsistent column lengths");
            for (i, &v) in col.iter().enumerate() {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[T]) -> Self {
        let mut m = Matrix::zeros(diag.len(), diag.len());
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
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

    /// Returns `true` when the matrix has zero entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Underlying row-major data slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable row-major data slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Borrows row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        &self.data[r * self.ncols..(r + 1) * self.ncols]
    }

    /// Mutably borrows row `r` as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        &mut self.data[r * self.ncols..(r + 1) * self.ncols]
    }

    /// Copies column `c` into a new vector.
    pub fn col(&self, c: usize) -> Vec<T> {
        (0..self.nrows).map(|r| self[(r, c)]).collect()
    }

    /// Overwrites column `c` with the given vector.
    ///
    /// # Panics
    ///
    /// Panics if `col.len() != nrows`.
    pub fn set_col(&mut self, c: usize, col: &[T]) {
        assert_eq!(col.len(), self.nrows, "column length mismatch");
        for (r, &v) in col.iter().enumerate() {
            self[(r, c)] = v;
        }
    }

    /// Returns a new matrix consisting of the selected column range.
    pub fn columns(&self, range: std::ops::Range<usize>) -> Matrix<T> {
        let ncols = range.len();
        let mut data = Vec::with_capacity(self.nrows * ncols);
        for r in 0..self.nrows {
            data.extend_from_slice(&self.row(r)[range.clone()]);
        }
        Matrix {
            nrows: self.nrows,
            ncols,
            data,
        }
    }

    /// Concatenates blocks of equal height side by side (`[A | B | …]`),
    /// one sweep over their rows.
    ///
    /// # Panics
    ///
    /// Panics if the blocks have different heights.
    pub fn hcat(nrows: usize, blocks: &[Matrix<T>]) -> Matrix<T> {
        let ncols = blocks.iter().map(Matrix::ncols).sum();
        let mut data = Vec::with_capacity(nrows * ncols);
        for b in blocks {
            assert_eq!(b.nrows, nrows, "hcat: inconsistent block heights");
        }
        for r in 0..nrows {
            for b in blocks {
                data.extend_from_slice(b.row(r));
            }
        }
        Matrix { nrows, ncols, data }
    }

    /// Matrix transpose.
    pub fn transposed(&self) -> Matrix<T> {
        Matrix::from_fn(self.ncols, self.nrows, |r, c| self[(c, r)])
    }

    /// Conjugate transpose (equal to [`Matrix::transposed`] for real
    /// matrices).
    pub fn adjoint(&self) -> Matrix<T> {
        Matrix::from_fn(self.ncols, self.nrows, |r, c| self[(c, r)].conj())
    }

    /// Applies `f` entry-wise, producing a new matrix.
    pub fn map<U: Scalar>(&self, mut f: impl FnMut(T) -> U) -> Matrix<U> {
        Matrix {
            nrows: self.nrows,
            ncols: self.ncols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Matrix–matrix product `self * other`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn mul_mat(&self, other: &Matrix<T>) -> Matrix<T> {
        assert_eq!(self.ncols, other.nrows, "mul_mat: inner dimension mismatch");
        let mut out = Matrix::zeros(self.nrows, other.ncols);
        for i in 0..self.nrows {
            for k in 0..self.ncols {
                let aik = self[(i, k)];
                if aik == T::ZERO {
                    continue;
                }
                let orow = other.row(k);
                let crow = out.row_mut(i);
                for (cj, &bj) in crow.iter_mut().zip(orow.iter()) {
                    *cj += aik * bj;
                }
            }
        }
        out
    }

    /// Product `selfᵀ * other` without forming the transpose.
    ///
    /// # Panics
    ///
    /// Panics if the row counts disagree.
    pub fn tr_mul_mat(&self, other: &Matrix<T>) -> Matrix<T> {
        assert_eq!(self.nrows, other.nrows, "tr_mul_mat: row count mismatch");
        let mut out = Matrix::zeros(self.ncols, other.ncols);
        for k in 0..self.nrows {
            let arow = self.row(k);
            let brow = other.row(k);
            for (i, &aki) in arow.iter().enumerate() {
                if aki == T::ZERO {
                    continue;
                }
                let crow = out.row_mut(i);
                for (cj, &bkj) in crow.iter_mut().zip(brow.iter()) {
                    *cj += aki * bkj;
                }
            }
        }
        out
    }

    /// Matrix–vector product `self * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols`.
    pub fn mul_vec(&self, x: &[T]) -> Vec<T> {
        let mut out = Vec::with_capacity(self.nrows);
        self.mul_vec_into(x, &mut out);
        out
    }

    /// [`Matrix::mul_vec`] writing into a caller-owned buffer (cleared and
    /// refilled; capacity is reused across calls). Values are bitwise
    /// identical to [`Matrix::mul_vec`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols`.
    pub fn mul_vec_into(&self, x: &[T], out: &mut Vec<T>) {
        assert_eq!(x.len(), self.ncols, "mul_vec_into: dimension mismatch");
        out.clear();
        out.extend((0..self.nrows).map(|r| {
            self.row(r)
                .iter()
                .zip(x.iter())
                .fold(T::ZERO, |acc, (&a, &b)| acc + a * b)
        }));
    }

    /// Transposed matrix–vector product `selfᵀ * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != nrows`.
    pub fn tr_mul_vec(&self, x: &[T]) -> Vec<T> {
        let mut out = Vec::with_capacity(self.ncols);
        self.tr_mul_vec_into(x, &mut out);
        out
    }

    /// [`Matrix::tr_mul_vec`] writing into a caller-owned buffer (cleared
    /// and refilled; capacity is reused across calls). Values are bitwise
    /// identical to [`Matrix::tr_mul_vec`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != nrows`.
    pub fn tr_mul_vec_into(&self, x: &[T], out: &mut Vec<T>) {
        assert_eq!(x.len(), self.nrows, "tr_mul_vec_into: dimension mismatch");
        out.clear();
        out.resize(self.ncols, T::ZERO);
        for (r, &xr) in x.iter().enumerate() {
            if xr == T::ZERO {
                continue;
            }
            for (o, &a) in out.iter_mut().zip(self.row(r).iter()) {
                *o += a * xr;
            }
        }
    }

    /// Returns `self + other`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn add_mat(&self, other: &Matrix<T>) -> Matrix<T> {
        assert_eq!((self.nrows, self.ncols), (other.nrows, other.ncols));
        let mut out = self.clone();
        for (a, &b) in out.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
        out
    }

    /// Returns `self - other`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn sub_mat(&self, other: &Matrix<T>) -> Matrix<T> {
        assert_eq!((self.nrows, self.ncols), (other.nrows, other.ncols));
        let mut out = self.clone();
        for (a, &b) in out.data.iter_mut().zip(other.data.iter()) {
            *a -= b;
        }
        out
    }

    /// In-place `self += k * other`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn add_assign_scaled(&mut self, k: T, other: &Matrix<T>) {
        assert_eq!((self.nrows, self.ncols), (other.nrows, other.ncols));
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += k * b;
        }
    }

    /// Returns `k * self`.
    pub fn scaled(&self, k: T) -> Matrix<T> {
        let mut out = self.clone();
        for a in out.data.iter_mut() {
            *a *= k;
        }
        out
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        self.data
            .iter()
            .map(|v| {
                let m = v.modulus();
                m * m
            })
            .sum::<f64>()
            .sqrt()
    }

    /// Largest entry magnitude.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|v| v.modulus()).fold(0.0, f64::max)
    }

    /// Swaps rows `a` and `b` in place.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let nc = self.ncols;
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let (head, tail) = self.data.split_at_mut(hi * nc);
        head[lo * nc..(lo + 1) * nc].swap_with_slice(&mut tail[..nc]);
    }

    /// Returns `true` when `‖self - other‖_max < tol`.
    pub fn approx_eq(&self, other: &Matrix<T>, tol: f64) -> bool {
        self.nrows == other.nrows
            && self.ncols == other.ncols
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(&a, &b)| (a - b).modulus() < tol)
    }

    /// Symmetry defect `max |A - Aᵀ|` — zero for symmetric matrices.
    pub fn symmetry_defect(&self) -> f64 {
        let mut d = 0.0f64;
        for i in 0..self.nrows {
            for j in 0..i.min(self.ncols) {
                if j < self.ncols && i < self.nrows {
                    d = d.max((self[(i, j)] - self[(j, i)]).modulus());
                }
            }
        }
        d
    }
}

impl Matrix<f64> {
    /// Whether the matrix is square and equals its transpose bit for bit
    /// (`+0` and `−0` differ).
    pub fn is_bitwise_symmetric(&self) -> bool {
        self.nrows == self.ncols
            && (0..self.nrows)
                .all(|i| (0..i).all(|j| self[(i, j)].to_bits() == self[(j, i)].to_bits()))
    }

    /// Embeds a real matrix into the complex field.
    pub fn to_complex(&self) -> Matrix<Complex64> {
        self.map(Complex64::from_real)
    }
}

impl<T: Scalar> Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &T {
        debug_assert!(r < self.nrows && c < self.ncols);
        &self.data[r * self.ncols + c]
    }
}

impl<T: Scalar> IndexMut<(usize, usize)> for Matrix<T> {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut T {
        debug_assert!(r < self.nrows && c < self.ncols);
        &mut self.data[r * self.ncols + c]
    }
}

impl<T: Scalar> fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.nrows, self.ncols)?;
        let max_show = 8;
        for r in 0..self.nrows.min(max_show) {
            write!(f, "  ")?;
            for c in 0..self.ncols.min(max_show) {
                write!(f, "{:?} ", self[(r, c)])?;
            }
            if self.ncols > max_show {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.nrows > max_show {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a2() -> Matrix<f64> {
        Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])
    }

    #[test]
    fn identity_is_neutral() {
        let a = a2();
        let i = Matrix::<f64>::identity(2);
        assert_eq!(a.mul_mat(&i), a);
        assert_eq!(i.mul_mat(&a), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = a2();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.mul_mat(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn tr_mul_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let c1 = a.tr_mul_mat(&b);
        let c2 = a.transposed().mul_mat(&b);
        assert!(c1.approx_eq(&c2, 1e-14));
    }

    #[test]
    fn mul_vec_and_tr_mul_vec() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.mul_vec(&[1.0, 1.0, 1.0]), vec![6.0, 15.0]);
        assert_eq!(a.tr_mul_vec(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn hcat_and_columns_roundtrip() {
        let a = a2();
        let c = Matrix::from_rows(&[&[1.0, 2.0, 5.0], &[3.0, 4.0, 6.0]]);
        assert_eq!(c.ncols(), 3);
        assert_eq!(c.col(2), vec![5.0, 6.0]);
        assert_eq!(c.columns(0..2), a);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transposed().transposed(), a);
    }

    #[test]
    fn norms() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert!((a.norm_fro() - 5.0).abs() < 1e-14);
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    fn swap_rows_works() {
        let mut a = a2();
        a.swap_rows(0, 1);
        assert_eq!(a, Matrix::from_rows(&[&[3.0, 4.0], &[1.0, 2.0]]));
    }

    #[test]
    fn complex_adjoint_conjugates() {
        let a = Matrix::from_rows(&[&[Complex64::new(1.0, 2.0), Complex64::new(0.0, -1.0)]]);
        let ah = a.adjoint();
        assert_eq!(ah[(0, 0)], Complex64::new(1.0, -2.0));
        assert_eq!(ah[(1, 0)], Complex64::new(0.0, 1.0));
    }

    #[test]
    fn from_diag_and_from_cols() {
        let d = Matrix::from_diag(&[1.0, 2.0]);
        assert_eq!(d[(0, 0)], 1.0);
        assert_eq!(d[(1, 1)], 2.0);
        assert_eq!(d[(0, 1)], 0.0);
        let c = Matrix::from_cols(&[vec![1.0, 3.0], vec![2.0, 4.0]]);
        assert_eq!(c, a2());
    }
}
