#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Sparse linear algebra for the `pmor` workspace.
//!
//! Interconnect MNA matrices are large and sparse; every method in the paper
//! (PRIMA, multi-parameter moment matching, multi-point expansion and the
//! low-rank Algorithm 1) is built on top of two sparse kernels:
//!
//! * sparse matrix–vector products ([`CsrMatrix`]), and
//! * a one-time sparse factorization of the conductance matrix `G0`
//!   ([`RealFactor`]), reused for every Krylov vector, every low-rank SVD
//!   iteration and — via the **transpose solve** — for the `A0ᵀ` subspaces of
//!   Algorithm 1 step 2.2 (paper §4.2: "the matrix-vector product `y = A0ᵀx`
//!   can be achieved by solving `G0ᵀ y = -C0ᵀ x`").
//!
//! [`RealFactor::factor`] is the one front door of real factorizations: a
//! bitwise symmetric, positive definite matrix (every RC `G(p)`) gets a
//! sparse `L·D·Lᵀ` that stores one triangle; any other gets [`SparseLu`].
//! [`SparseLu`] is generic over [`pmor_num::Scalar`], so it also solves
//! the complex systems `(G + jωC) x = b` of full-model frequency sweeps.
//!
//! # Example
//!
//! ```
//! use pmor_sparse::{CooBuilder, RealFactor};
//!
//! # fn main() -> Result<(), pmor_sparse::SparseError> {
//! let mut coo = CooBuilder::new(2, 2);
//! coo.add(0, 0, 2.0);
//! coo.add(1, 1, 4.0);
//! let a = coo.build_csr();
//! let f = RealFactor::factor(&a, None)?;
//! assert!(f.is_symmetric(), "symmetric positive definite: L·D·Lᵀ");
//! let x = f.solve(&[2.0, 8.0])?;
//! assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

pub mod coo;
pub mod csr;
pub mod factor;
pub mod ldl;
pub mod linop;
pub mod lu;
pub mod ordering;

pub use coo::CooBuilder;
pub use csr::CsrMatrix;
pub use factor::RealFactor;
pub use linop::LinearOperator;
pub use lu::SparseLu;
pub use ordering::OrderingChoice;

use std::fmt;

/// Error type for sparse linear-algebra operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparseError {
    /// The factorization found no usable pivot in some column.
    Singular(usize),
    /// A column of the matrix stores no entries at all, so no pivot can
    /// exist — usually a floating node or a dropped stamp upstream.
    EmptyColumn(usize),
    /// Matrix dimensions were incompatible with the requested operation.
    DimensionMismatch {
        /// Operation description.
        context: &'static str,
        /// Expected dimension.
        expected: usize,
        /// Supplied dimension.
        actual: usize,
    },
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::Singular(k) => {
                write!(f, "sparse matrix is singular at pivot column {k}")
            }
            SparseError::EmptyColumn(k) => {
                write!(
                    f,
                    "sparse matrix column {k} is structurally empty (no stored entries)"
                )
            }
            SparseError::DimensionMismatch {
                context,
                expected,
                actual,
            } => write!(
                f,
                "dimension mismatch in {context}: expected {expected}, got {actual}"
            ),
        }
    }
}

impl std::error::Error for SparseError {}

/// Workspace-wide result alias for sparse numerics.
pub type Result<T> = std::result::Result<T, SparseError>;
