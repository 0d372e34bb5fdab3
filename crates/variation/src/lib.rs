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
//!   against two `TransferModel`s on a batched `EvalEngine`, and the
//!   [`AnalysisKind`] registry (symmetric to `pmor`'s
//!   `Reducer`/`ReducerKind`) front ends dispatch by name —
//!   `frequency_sweep`, `montecarlo` (pole-error distribution and
//!   histogram), `corner_sweep`, `yield` and `transient`.

pub mod analysis;
pub mod dist;
pub mod montecarlo;
pub mod stats;
pub mod sweep;

pub use analysis::{
    analysis_by_name, Analysis, AnalysisConfig, AnalysisKind, AnalysisReport, ErrorMetric,
};
pub use dist::ParameterDistribution;
pub use montecarlo::MonteCarlo;
pub use stats::{histogram, Summary};
