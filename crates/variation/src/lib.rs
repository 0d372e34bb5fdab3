#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Process-variation analysis on top of the `pmor` reduction stack.
//!
//! The paper's §5.3 experiments draw metal-width variations from scaled
//! normal distributions ("we independently vary the three metal line widths
//! up to 30% (3σ variations) of the nominal values according to the normal
//! distribution"), evaluate full and reduced models at every sampled
//! instance, and report the distribution of relative pole errors. This
//! crate packages that protocol:
//!
//! * [`dist`] — parameter distributions (normal with 3σ truncation,
//!   uniform),
//! * [`montecarlo`] — the seeded Monte-Carlo sampler,
//! * [`sweep`] — frequency grids and deterministic 2-D parameter grids
//!   (the right-hand plots of the paper's Figs 5–6),
//! * [`stats`] — summary statistics and histogram binning,
//! * [`analysis`] — the **one analysis path**: the [`Analysis`] trait run
//!   on a reduced `TransferModel`, and on the full-order reference where
//!   the analysis compares the two, on a batched `EvalEngine`; and the
//!   [`AnalysisKind`] registry (symmetric to `pmor`'s
//!   `Reducer`/`ReducerKind`) front ends dispatch by name —
//!   `frequency_sweep`, `montecarlo` (pole-error distribution and
//!   histogram), `corner_sweep`, `yield` and `transient`. `pmor run`
//!   gives every analysis the full model; `pmor eval` and `pmor mc` run
//!   the sweep and the yield analysis on a persisted ROM alone.

pub mod analysis;
pub mod dist;
pub mod montecarlo;
pub mod stats;
pub mod sweep;

pub use analysis::{Analysis, AnalysisConfig, AnalysisKind, AnalysisReport, ErrorMetric};
pub use dist::ParameterDistribution;
pub use montecarlo::MonteCarlo;
pub use stats::{histogram, Summary};
