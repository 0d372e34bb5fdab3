#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Parametric model order reduction for interconnect variability.
//!
//! This crate implements the algorithms of *"Modeling Interconnect
//! Variability Using Efficient Parametric Model Order Reduction"* (Li, Liu,
//! Li, Pileggi, Nassif — DATE 2005) on top of the workspace's own dense
//! ([`pmor_num`]) and sparse ([`pmor_sparse`]) linear algebra and the
//! circuit substrate ([`pmor_circuits`]):
//!
//! * [`prima`] — the PRIMA block-Arnoldi reduction of a *nominal* system;
//!   also the building block of the sampling-based methods,
//! * [`moments`] — single-point **multi-parameter moment matching** (the
//!   Daniel-et-al. baseline of paper §3.1) plus explicit moment computation
//!   used to verify Theorem 1,
//! * [`multipoint`] — **multi-point expansion** in the variational parameter
//!   space (paper §3.3),
//! * [`lowrank`] — the headline **Algorithm 1**: low-rank approximation of
//!   generalized sensitivity matrices decoupling the parameter subspaces
//!   from the frequency subspace (paper §4),
//! * [`fit`] — the projection-*fitting* baseline of Liu et al. \[6\] that the
//!   paper compares against at the end of §3.3,
//! * [`opsvd`] — matrix-implicit randomized low-rank SVD reusing the
//!   one-time `G0` factorization (paper §4.2, refs \[14\]\[15\]),
//! * [`rom`] — the parametric reduced-order model: evaluation of
//!   `H(s, p)`, pole extraction and passivity checks,
//! * [`eval`] — full-model reference evaluation (sparse complex solves,
//!   exact poles),
//! * [`engine`] — the **unified evaluation interface**: the
//!   [`TransferModel`] trait implemented by both the full model and
//!   every reduced model, reusable [`EvalWorkspace`]s, and the batched,
//!   deterministic [`EvalEngine`] every analysis runs on,
//! * [`reduce`] — the **unified method interface**: the [`Reducer`] trait
//!   implemented by all five methods, the [`ReductionContext`] solver
//!   cache realizing the paper's one-time-`G0`-factorization cost model
//!   across a whole pipeline, and the [`ReducerKind`] registry for
//!   selecting methods by name,
//! * [`adaptive`] — **error-controlled reduction**: a residual-based
//!   a-posteriori [`ErrorEstimator`] and the greedy [`AdaptiveDriver`]
//!   that places expansion points and grows ROM order until a user
//!   tolerance is met or a budget is exhausted.
//!
//! # Quick start
//!
//! ```
//! use pmor_circuits::generators::{clock_tree, ClockTreeConfig};
//! use pmor::lowrank::{LowRankPmor, LowRankOptions};
//! use pmor::{Reducer, ReductionContext};
//!
//! # fn main() -> Result<(), pmor::PmorError> {
//! let sys = clock_tree(&ClockTreeConfig { num_nodes: 40, ..Default::default() })
//!     .assemble();
//! // One context per pipeline: every consumer shares the G0 factors.
//! let mut ctx = ReductionContext::new();
//! let rom = LowRankPmor::new(LowRankOptions::default()).reduce(&sys, &mut ctx)?;
//! // Evaluate the reduced model at +20% M5 width, 1 GHz.
//! let h = rom.transfer(&[0.2, 0.0, 0.0], pmor_num::Complex64::jw(2.0e9 * std::f64::consts::PI))?;
//! assert!(h[(0, 0)].abs() > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod adaptive;
pub mod engine;
pub mod eval;
pub mod fit;
pub mod lowrank;
pub mod moments;
pub mod multipoint;
pub mod opsvd;
pub mod prima;
pub mod reduce;
pub mod rom;
pub mod transient;

pub use adaptive::{AdaptiveDriver, AdaptiveOptions, AdaptiveReport, ErrorEstimator};
pub use engine::{EvalEngine, EvalPoint, EvalWorkspace, TransferModel};
pub use pmor_sparse::OrderingChoice;
pub use reduce::{
    reducer_by_name, system_fingerprint, FactorProvenance, FactorStats, Reducer, ReducerKind,
    ReducerTuning, ReductionContext,
};
pub use rom::ParametricRom;

// The README's Rust code blocks are compiled and run as doctests of this
// crate, so the quick-start snippets can never drift from the API again
// (rustdoc sets `cfg(doctest)` while collecting).
#[doc = include_str!("../../../README.md")]
#[cfg(doctest)]
mod readme_doctests {}

use std::fmt;

/// Error type for model-order-reduction operations.
#[derive(Debug, Clone, PartialEq)]
pub enum PmorError {
    /// A dense linear-algebra kernel failed.
    Num(pmor_num::NumError),
    /// A sparse linear-algebra kernel failed.
    Sparse(pmor_sparse::SparseError),
    /// An input is invalid: a reduction request for the given system, an
    /// analysis knob, an evaluation point outside what a ROM was built
    /// for, or a ROM file. Displays as `invalid input: …`.
    Invalid(String),
    /// An evaluation input holds a NaN or an infinity; the payload names
    /// which one (`"p"` or `"s"`).
    NonFinite(&'static str),
}

impl fmt::Display for PmorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PmorError::Num(e) => write!(f, "dense kernel failure: {e}"),
            PmorError::Sparse(e) => write!(f, "sparse kernel failure: {e}"),
            PmorError::Invalid(msg) => write!(f, "invalid input: {msg}"),
            PmorError::NonFinite(what) => {
                write!(
                    f,
                    "non-finite evaluation input: {what} holds a NaN or an infinity"
                )
            }
        }
    }
}

impl std::error::Error for PmorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PmorError::Num(e) => Some(e),
            PmorError::Sparse(e) => Some(e),
            PmorError::Invalid(_) | PmorError::NonFinite(_) => None,
        }
    }
}

impl From<pmor_num::NumError> for PmorError {
    fn from(e: pmor_num::NumError) -> Self {
        PmorError::Num(e)
    }
}

impl From<pmor_sparse::SparseError> for PmorError {
    fn from(e: pmor_sparse::SparseError) -> Self {
        PmorError::Sparse(e)
    }
}

/// Workspace-wide result alias for reduction operations.
pub type Result<T> = std::result::Result<T, PmorError>;
