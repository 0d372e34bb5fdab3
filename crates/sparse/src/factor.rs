//! The one front door of every real sparse factorization.
//!
//! [`RealFactor::factor`] applies a rule, not an option: a matrix that is
//! [`CsrMatrix::is_bitwise_symmetric`] is factored as `L·D·Lᵀ` (see
//! [`crate::ldl`]), and that factor is kept when every pivot is finite and
//! positive. Every other matrix, and a symmetric one that fails the pivot
//! test, is factored by [`SparseLu`]. So the conductance matrices of the
//! four RC families take the symmetric factor, while `rlc_bus`'s
//! asymmetric MNA matrix and indefinite or singular matrices take LU, whose
//! errors (`EmptyColumn`, `Singular`) they then report. Complex matrices
//! use [`SparseLu`] directly.
//!
//! Both kinds solve through the same methods, so callers never branch on
//! the kind. [`RealFactor::is_symmetric`] tells which one was taken.

use crate::csr::CsrMatrix;
use crate::ldl::SparseLdl;
use crate::lu::{check_order, SparseLu};
use crate::{Result, SparseError};
use pmor_num::Matrix;

/// Real sparse factors: `L·D·Lᵀ` for symmetric positive definite
/// matrices, [`SparseLu`] otherwise (the rule is in the module docs).
#[derive(Debug, Clone)]
pub struct RealFactor {
    kind: Kind,
    /// The entries of the factored matrix the factor stands for.
    matrix_nnz: usize,
}

#[derive(Debug, Clone)]
enum Kind {
    Ldl(SparseLdl),
    Lu(SparseLu<f64>),
}

impl RealFactor {
    /// Factors a square real matrix by the module's dispatch rule.
    ///
    /// `col_order`, when given, is a fill-reducing permutation (e.g. from
    /// [`crate::ordering::amd`]): `col_order[k]` is eliminated at step `k`
    /// (as row and column for the symmetric factor).
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] for a non-square matrix
    /// or a malformed ordering, and [`SparseLu::factor`]'s errors for a
    /// matrix neither factor can handle.
    pub fn factor(a: &CsrMatrix<f64>, col_order: Option<&[usize]>) -> Result<Self> {
        if a.is_bitwise_symmetric() {
            let q = check_order(a.nrows(), col_order, "RealFactor::factor (ordering)")?;
            if let Some(ldl) = SparseLdl::factor(a, q) {
                return Ok(RealFactor {
                    kind: Kind::Ldl(ldl),
                    matrix_nnz: a.iter().filter(|&(r, c, _)| c <= r).count(),
                });
            }
        }
        Ok(RealFactor {
            kind: Kind::Lu(SparseLu::factor(a, col_order)?),
            matrix_nnz: a.nnz(),
        })
    }

    /// Whether the symmetric `L·D·Lᵀ` factor was taken.
    pub fn is_symmetric(&self) -> bool {
        matches!(self.kind, Kind::Ldl(_))
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        match &self.kind {
            Kind::Ldl(f) => f.dim(),
            Kind::Lu(f) => f.dim(),
        }
    }

    /// The fill-reducing order the factorization used: `column_order()[k]`
    /// is the original column eliminated at step `k`.
    pub fn column_order(&self) -> &[usize] {
        match &self.kind {
            Kind::Ldl(f) => f.column_order(),
            Kind::Lu(f) => f.column_order(),
        }
    }

    /// Stored factor entries: `L` plus `D` for the symmetric factor (one
    /// triangle), [`SparseLu::factor_nnz`] for LU.
    pub fn factor_nnz(&self) -> usize {
        match &self.kind {
            Kind::Ldl(f) => f.factor_nnz(),
            Kind::Lu(f) => f.factor_nnz(),
        }
    }

    /// The entries of the factored matrix that the factor stands for, to
    /// divide [`RealFactor::factor_nnz`] by: its stored triangle (diagonal
    /// included) for the symmetric factor, every stored entry for LU.
    pub fn matrix_nnz(&self) -> usize {
        self.matrix_nnz
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        match &self.kind {
            Kind::Ldl(f) => {
                check_len(f.dim(), b.len(), "RealFactor::solve")?;
                Ok(f.solve(b))
            }
            Kind::Lu(f) => f.solve(b),
        }
    }

    /// Solves `Aᵀ x = b`; for the symmetric factor this is
    /// [`RealFactor::solve`].
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve_transpose(&self, b: &[f64]) -> Result<Vec<f64>> {
        match &self.kind {
            Kind::Ldl(_) => self.solve(b),
            Kind::Lu(f) => f.solve_transpose(b),
        }
    }

    /// Solves `A X = B` for a dense block of right-hand sides, bitwise
    /// identical to [`RealFactor::solve`] on each column of `B`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `b.nrows() != dim()`.
    pub fn solve_block(&self, b: &Matrix<f64>) -> Result<Matrix<f64>> {
        match &self.kind {
            Kind::Ldl(f) => {
                check_len(f.dim(), b.nrows(), "RealFactor::solve_block")?;
                Ok(f.solve_block(b))
            }
            Kind::Lu(f) => f.solve_block(b),
        }
    }

    /// Solves `Aᵀ X = B` for a dense block, bitwise identical to
    /// [`RealFactor::solve_transpose`] on each column; for the symmetric
    /// factor this is [`RealFactor::solve_block`].
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `b.nrows() != dim()`.
    pub fn solve_transpose_block(&self, b: &Matrix<f64>) -> Result<Matrix<f64>> {
        match &self.kind {
            Kind::Ldl(_) => self.solve_block(b),
            Kind::Lu(f) => f.solve_transpose_block(b),
        }
    }

    /// Solves for right-hand sides given as dense columns, one
    /// [`RealFactor::solve`] per column: the form for sparse right-hand
    /// sides such as the columns of an input matrix `B`, where LU skips
    /// each column's zero multipliers. Bitwise equal to
    /// [`RealFactor::solve_block`] for the symmetric factor.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `b.nrows() != dim()`.
    pub fn solve_dense(&self, b: &Matrix<f64>) -> Result<Matrix<f64>> {
        match &self.kind {
            Kind::Ldl(_) => self.solve_block(b),
            Kind::Lu(f) => f.solve_dense(b),
        }
    }
}

fn check_len(expected: usize, actual: usize, context: &'static str) -> Result<()> {
    if expected == actual {
        Ok(())
    } else {
        Err(SparseError::DimensionMismatch {
            context,
            expected,
            actual,
        })
    }
}
