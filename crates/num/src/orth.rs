//! Incremental orthonormalization with deflation.
//!
//! Every Krylov routine in the workspace (PRIMA, multi-parameter moment
//! matching, multi-point expansion, Algorithm 1) funnels its candidate
//! vectors through [`OrthoBasis`]: a growing orthonormal basis maintained by
//! modified Gram–Schmidt with a second re-orthogonalization pass ("twice is
//! enough", Kahan/Parlett) and automatic deflation of directions already
//! contained in the span.

use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::vecops;
use std::ops::Range;

/// Default relative deflation tolerance: a candidate whose norm after
/// projection falls below `tol × original norm` is considered linearly
/// dependent and dropped.
pub const DEFAULT_DEFLATION_TOL: f64 = 1e-10;

/// A growing orthonormal basis.
///
/// # Example
///
/// ```
/// use pmor_num::orth::OrthoBasis;
///
/// let mut basis = OrthoBasis::new(3);
/// assert!(basis.insert(&[1.0, 0.0, 0.0]));
/// assert!(basis.insert(&[1.0, 1.0, 0.0]));
/// // A dependent vector is deflated:
/// assert!(!basis.insert(&[2.0, 2.0, 0.0]));
/// assert_eq!(basis.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct OrthoBasis<T = f64> {
    dim: usize,
    cols: Vec<Vec<T>>,
    tol: f64,
}

impl<T: Scalar> OrthoBasis<T> {
    /// Creates an empty basis for vectors of length `dim`.
    pub fn new(dim: usize) -> Self {
        OrthoBasis {
            dim,
            cols: Vec::new(),
            tol: DEFAULT_DEFLATION_TOL,
        }
    }

    /// Vector length this basis lives in.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Current number of basis vectors.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// Returns `true` when the basis has no vectors yet.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Borrows the `k`-th basis vector.
    pub fn vector(&self, k: usize) -> &[T] {
        &self.cols[k]
    }

    /// Orthogonalizes `v` in place against the current basis (two MGS
    /// passes) and returns its remaining norm.
    pub fn orthogonalize(&self, v: &mut [T]) -> f64 {
        assert_eq!(v.len(), self.dim, "orthogonalize: dimension mismatch");
        for _pass in 0..2 {
            mgs_pass(&self.cols, v);
        }
        vecops::norm2(v)
    }

    /// Attempts to insert `v`; returns `true` when a new direction was added
    /// and `false` when `v` was deflated as linearly dependent.
    pub fn insert(&mut self, v: &[T]) -> bool {
        let orig = vecops::norm2(v);
        if !accepted(orig) {
            return false;
        }
        assert_eq!(v.len(), self.dim, "insert: dimension mismatch");
        self.finish_insert(v.to_vec(), orig, 0)
    }

    /// Inserts every column of `block`, in order, returning how many
    /// survived deflation. The result is bit for bit that of one
    /// [`OrthoBasis::insert`] per column.
    ///
    /// Column `j`'s first MGS pass starts with the vectors that were in
    /// the basis before the block, and that part needs nothing from
    /// columns `< j`. So it runs for all columns at once, one sweep per
    /// basis vector with the updates and dot products side by side
    /// ([`vecops::axpy_dot_each`]). The rest of the first pass (against the
    /// block's own earlier survivors) and the second pass run per column.
    pub fn insert_block(&mut self, block: &Matrix<T>) -> usize {
        self.insert_columns(block, 0..block.ncols())
    }

    /// [`OrthoBasis::insert_block`] of the columns `range` of `block`,
    /// read in place: bit for bit `insert_block(&block.columns(range))`.
    ///
    /// # Panics
    ///
    /// Panics if `block.nrows() != dim()` or `range` is out of range.
    pub fn insert_columns(&mut self, block: &Matrix<T>, range: Range<usize>) -> usize {
        assert_eq!(block.nrows(), self.dim, "insert_block: dimension mismatch");
        // The columns `insert` would take, gathered in one sweep over the
        // rows; a zero or non-finite column is rejected before any work.
        let mut cols: Vec<Vec<T>> = range
            .clone()
            .map(|_| Vec::with_capacity(self.dim))
            .collect();
        for r in 0..self.dim {
            for (col, &x) in cols.iter_mut().zip(&block.row(r)[range.clone()]) {
                col.push(x);
            }
        }
        let mut origs = Vec::with_capacity(cols.len());
        cols.retain(|c| {
            let orig = vecops::norm2(c);
            origs.push(orig);
            accepted(orig)
        });
        origs.retain(|&orig| accepted(orig));
        // Each sweep applies the previous basis vector's updates and forms
        // the next one's inner products.
        let mut h = Vec::with_capacity(cols.len());
        let mut neg_h: Vec<T> = Vec::with_capacity(cols.len());
        let mut prev: Option<&[T]> = None;
        for q in &self.cols {
            vecops::axpy_dot_each(prev.map(|p| (p, &neg_h[..])), q, &mut cols, &mut h);
            neg_h.clear();
            neg_h.extend(h.iter().map(|&hj| -hj));
            prev = Some(q);
        }
        if let Some(p) = prev {
            for (v, &a) in cols.iter_mut().zip(&neg_h) {
                if a != T::ZERO {
                    vecops::axpy(a, p, v);
                }
            }
        }
        let before = self.cols.len();
        let mut added = 0;
        for (w, orig) in cols.into_iter().zip(origs) {
            if self.finish_insert(w, orig, before) {
                added += 1;
            }
        }
        added
    }

    /// The end of [`OrthoBasis::insert`] for a `w` whose first MGS pass
    /// already covers the basis vectors before `from`: the rest of that
    /// pass, the second pass, the deflation test against `orig` (the
    /// candidate's norm before projection) and the normalized push.
    fn finish_insert(&mut self, mut w: Vec<T>, orig: f64, from: usize) -> bool {
        mgs_pass(&self.cols[from..], &mut w);
        mgs_pass(&self.cols, &mut w);
        let rem = vecops::norm2(&w);
        if rem <= self.tol * orig {
            return false;
        }
        vecops::scale(T::from_f64(1.0 / rem), &mut w);
        self.cols.push(w);
        true
    }

    /// Assembles the basis into a dense `dim × len` matrix (`dim × 0`
    /// when empty).
    pub fn to_matrix(&self) -> Matrix<T> {
        if self.cols.is_empty() {
            Matrix::zeros(self.dim, 0)
        } else {
            Matrix::from_cols(&self.cols)
        }
    }

    /// Consumes the basis, returning its columns.
    pub fn into_columns(self) -> Vec<Vec<T>> {
        self.cols
    }

    /// Largest off-diagonal entry of `QᵀQ` — a measure of the loss of
    /// orthogonality (should be ~1e-14 for healthy bases).
    pub fn orthogonality_defect(&self) -> f64 {
        let mut worst = 0.0f64;
        for i in 0..self.cols.len() {
            for j in 0..i {
                worst = worst.max(vecops::dot(&self.cols[i], &self.cols[j]).modulus());
            }
        }
        worst
    }
}

/// Whether a candidate of norm `orig` gets projected at all: zero and
/// non-finite candidates are dropped untouched.
fn accepted(orig: f64) -> bool {
    orig != 0.0 && orig.is_finite()
}

/// One modified Gram–Schmidt pass of `v` against `qs`, in order: for each
/// `q`, `h = ⟨q, v⟩` and, unless `h` is zero, `v -= h·q`. Each update is
/// applied in the same sweep as the next inner product
/// ([`vecops::axpy_dot`]), which reads the updated entries, so the bits
/// are those of separate [`vecops::axpy`] and [`vecops::dot`] calls.
fn mgs_pass<T: Scalar>(qs: &[Vec<T>], v: &mut [T]) {
    let mut pending: Option<(T, &[T])> = None;
    for q in qs {
        let h = match pending.take() {
            Some((a, p)) => vecops::axpy_dot(a, p, v, q),
            None => vecops::dot(q, v),
        };
        if h != T::ZERO {
            pending = Some((-h, q));
        }
    }
    if let Some((a, p)) = pending {
        vecops::axpy(a, p, v);
    }
}

/// Orthonormalizes the columns of `a`, dropping dependent directions, and
/// returns the resulting basis matrix (possibly with fewer columns).
pub fn orthonormalize_columns<T: Scalar>(a: &Matrix<T>) -> Matrix<T> {
    let mut basis = OrthoBasis::new(a.nrows());
    basis.insert_block(a);
    basis.to_matrix()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_orthonormal_basis() {
        let mut b = OrthoBasis::new(4);
        for j in 0..4 {
            let v: Vec<f64> = (0..4)
                .map(|i| ((i * j + i + 1) as f64).sin() + 1.0)
                .collect();
            b.insert(&v);
        }
        assert!(b.orthogonality_defect() < 1e-12);
        for k in 0..b.len() {
            assert!((vecops::norm2(b.vector(k)) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn deflates_dependent_vectors() {
        let mut b = OrthoBasis::new(3);
        assert!(b.insert(&[1.0, 2.0, 3.0]));
        assert!(!b.insert(&[2.0, 4.0, 6.0]));
        assert!(!b.insert(&[-0.5, -1.0, -1.5]));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn zero_vector_rejected() {
        let mut b = OrthoBasis::new(2);
        assert!(!b.insert(&[0.0, 0.0]));
        assert!(b.is_empty());
    }

    #[test]
    fn reorthogonalization_fixes_near_dependence() {
        // Nearly dependent vectors stress a single-pass MGS; the second pass
        // must keep the defect at machine precision.
        let mut b = OrthoBasis::new(3);
        b.insert(&[1.0, 0.0, 0.0]);
        b.insert(&[1.0, 1e-9, 0.0]);
        b.insert(&[1.0, 1e-9, 1e-9]);
        assert!(
            b.orthogonality_defect() < 1e-12,
            "{}",
            b.orthogonality_defect()
        );
    }

    #[test]
    fn insert_block_counts_additions() {
        let block = Matrix::from_cols(&[
            vec![1.0, 0.0, 0.0],
            vec![2.0, 0.0, 0.0], // dependent
            vec![0.0, 1.0, 0.0],
        ]);
        let mut b = OrthoBasis::new(3);
        assert_eq!(b.insert_block(&block), 2);
    }

    #[test]
    fn to_matrix_has_orthonormal_columns() {
        let a = Matrix::from_fn(6, 4, |r, c| ((r + c * c) as f64).cos());
        let q = orthonormalize_columns(&a);
        let qtq = q.tr_mul_mat(&q);
        assert!(qtq.approx_eq(&Matrix::identity(q.ncols()), 1e-12));
    }

    #[test]
    fn span_is_preserved() {
        // Each original column must be reproducible from the basis.
        let a = Matrix::from_fn(5, 3, |r, c| ((r * 3 + c + 1) as f64).sqrt());
        let q = orthonormalize_columns(&a);
        for j in 0..a.ncols() {
            let col = a.col(j);
            let coeffs = q.tr_mul_vec(&col);
            let recon = q.mul_vec(&coeffs);
            assert!(vecops::rel_err(&recon, &col) < 1e-10);
        }
    }
}
