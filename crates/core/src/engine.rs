//! The unified evaluation layer: the [`TransferModel`] trait, reusable
//! [`EvalWorkspace`]s, and the batched, deterministic [`EvalEngine`].
//!
//! The paper's value proposition is *reduce once, evaluate thousands of
//! (parameter, frequency) points cheaply* — so evaluation deserves the
//! same unification the reduction side got from [`crate::Reducer`]:
//!
//! * [`TransferModel`] is implemented by both the sparse full-order
//!   reference ([`crate::eval::FullModel`]) and the dense reduced model
//!   ([`crate::rom::ParametricRom`]), so every analysis, CLI subcommand
//!   and daemon request is written once against `&dyn TransferModel` and
//!   compares models without knowing which side is which.
//! * [`EvalWorkspace`] carries the per-thread scratch that makes batch
//!   evaluation cheap: dense assembly and split-plane `LDLᵀ`/LU buffers
//!   for reduced models, and memoized per-parameter-point sparse assemblies
//!   (plus complex port maps) for the full model.
//! * [`EvalEngine`] chunks arbitrary point sets across
//!   [`std::thread::scope`] workers **deterministically**: points are
//!   pre-listed, chunks are contiguous, results are stitched back in
//!   input order, and every per-point computation is independent of its
//!   chunk — so `threads = 1` and `threads = 8` produce bitwise
//!   identical results.
//!
//! # Example
//!
//! ```
//! use pmor::engine::{EvalEngine, EvalPoint, TransferModel};
//! use pmor::eval::FullModel;
//! use pmor::lowrank::LowRankPmor;
//! use pmor::Reducer;
//! use pmor_circuits::generators::{clock_tree, ClockTreeConfig};
//! use pmor_num::Complex64;
//!
//! # fn main() -> Result<(), pmor::PmorError> {
//! let sys = clock_tree(&ClockTreeConfig { num_nodes: 30, ..Default::default() }).assemble();
//! let rom = LowRankPmor::with_defaults().reduce_once(&sys)?;
//! let full = FullModel::new(&sys);
//!
//! // A batch of (parameter, frequency) points…
//! let points: Vec<EvalPoint> = (0..8)
//!     .map(|i| EvalPoint::new(vec![0.02 * i as f64, 0.0, 0.0], Complex64::jw(1e9)))
//!     .collect();
//! // …evaluated on both sides of the trait by the same engine.
//! let engine = EvalEngine::new(4);
//! let h_full = engine.transfer_batch(&full, &points)?;
//! let h_rom = engine.transfer_batch(&rom, &points)?;
//! for (hf, hr) in h_full.iter().zip(&h_rom) {
//!     let rel = hf.sub_mat(hr).max_abs() / hf.max_abs();
//!     assert!(rel < 1e-4);
//! }
//! # Ok(())
//! # }
//! ```

use crate::transient::{Stimulus, TransientOptions, TransientResult};
use crate::Result;
use pmor_num::lu::{PencilLdl, PencilLu};
use pmor_num::{Complex64, Matrix};
use pmor_sparse::CsrMatrix;

/// One evaluation request: a parameter point and a complex frequency.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalPoint {
    /// The variational parameter values `p`.
    pub params: Vec<f64>,
    /// The complex frequency `s` (use [`Complex64::jw`] for `s = jω`).
    pub s: Complex64,
}

impl EvalPoint {
    /// Builds a point from a parameter vector and a complex frequency.
    pub fn new(params: Vec<f64>, s: Complex64) -> Self {
        EvalPoint { params, s }
    }

    /// All `(p, s = j·2πf)` combinations of one parameter point and a
    /// frequency list — the shape of a frequency sweep.
    pub fn sweep(params: &[f64], freqs_hz: &[f64]) -> Vec<EvalPoint> {
        freqs_hz
            .iter()
            .map(|&f| {
                EvalPoint::new(
                    params.to_vec(),
                    Complex64::jw(2.0 * std::f64::consts::PI * f),
                )
            })
            .collect()
    }
}

/// Per-thread scratch for batch evaluation. One workspace serves any mix
/// of models: the dense buffers are overwritten on every reduced-model
/// call, and the memoized full-model assemblies are keyed by the model's
/// content fingerprint plus the parameter point, so interleaving models
/// (full-vs-ROM comparisons) never cross-contaminates.
///
/// Workspaces only amortize work — every value they return is bitwise
/// identical to what a fresh evaluation computes.
#[derive(Debug, Clone)]
pub struct EvalWorkspace {
    // Dense reduced-model scratch (sized on first use, reused after):
    // the assembled `G̃(p)`, `C̃(p)`, whether both equal their
    // transposes bit for bit, and the split-plane pencil kernels with
    // their solve buffers: `LDLᵀ` for symmetric pencils, LU otherwise.
    pub(crate) rom_g: Matrix<f64>,
    pub(crate) rom_c: Matrix<f64>,
    pub(crate) rom_symmetric: bool,
    pub(crate) rom_ldl: PencilLdl,
    pub(crate) rom_lu: PencilLu,
    // Full-model per-parameter-point assembly: `(fingerprint, p-bits) →
    // G(p), C(p)` as complex CSR, reused across the frequencies of one
    // point.
    pub(crate) full_key: Option<(u64, Vec<u64>)>,
    pub(crate) full_g: Option<CsrMatrix<Complex64>>,
    pub(crate) full_c: Option<CsrMatrix<Complex64>>,
    // Full-model complex port maps, converted once per model.
    pub(crate) full_io_key: Option<u64>,
    pub(crate) full_b: Option<Matrix<Complex64>>,
    pub(crate) full_l: Option<Matrix<Complex64>>,
    // Dense transient scratch: the θ-method step matrices `C/h + θG` /
    // `C/h − (1−θ)G` and the per-step state/rhs/input vectors, all
    // resized on first use and reused across steps and parameter points.
    pub(crate) trans_a: Matrix<f64>,
    pub(crate) trans_m: Matrix<f64>,
    pub(crate) trans_x: Vec<f64>,
    pub(crate) trans_rhs: Vec<f64>,
    pub(crate) trans_u: Vec<f64>,
    pub(crate) trans_bu: Vec<f64>,
    pub(crate) trans_y: Vec<f64>,
}

impl Default for EvalWorkspace {
    fn default() -> Self {
        EvalWorkspace::new()
    }
}

impl EvalWorkspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        EvalWorkspace {
            rom_g: Matrix::zeros(0, 0),
            rom_c: Matrix::zeros(0, 0),
            rom_symmetric: false,
            rom_ldl: PencilLdl::new(),
            rom_lu: PencilLu::new(),
            full_key: None,
            full_g: None,
            full_c: None,
            full_io_key: None,
            full_b: None,
            full_l: None,
            trans_a: Matrix::zeros(0, 0),
            trans_m: Matrix::zeros(0, 0),
            trans_x: Vec::new(),
            trans_rhs: Vec::new(),
            trans_u: Vec::new(),
            trans_bu: Vec::new(),
            trans_y: Vec::new(),
        }
    }
}

/// A parametric transfer-function model: anything that can evaluate
/// `H(s, p)` and its dominant poles. Implemented by the sparse
/// full-order reference ([`crate::eval::FullModel`]) and the dense
/// reduced model ([`crate::rom::ParametricRom`]); every analysis is
/// written once against this trait.
///
/// `Sync` is a supertrait so `&dyn TransferModel` can be shared across
/// the [`EvalEngine`]'s scoped worker threads.
pub trait TransferModel: Sync {
    /// Short provenance label stamped into reports: `"full"` or `"rom"`.
    fn kind(&self) -> &'static str;

    /// State dimension of the model (full order `n`, or reduced size).
    fn dim(&self) -> usize;

    /// Order `n` of the full model this one stands for: its own
    /// [`TransferModel::dim`] for a full-order model, the unknown count
    /// it was reduced from for a ROM.
    fn full_dim(&self) -> usize {
        self.dim()
    }

    /// Number of variational parameters.
    fn num_params(&self) -> usize;

    /// Number of input ports.
    fn num_inputs(&self) -> usize;

    /// Number of output ports.
    fn num_outputs(&self) -> usize;

    /// Evaluates the transfer matrix `H(s, p)` (`outputs × inputs`).
    ///
    /// # Errors
    ///
    /// Fails when the pencil `G(p) + s·C(p)` is singular (i.e. `s` is a
    /// pole at `p`).
    fn transfer(&self, p: &[f64], s: Complex64) -> Result<Matrix<Complex64>>;

    /// The `count` most dominant (smallest-magnitude) finite poles at `p`.
    ///
    /// # Errors
    ///
    /// Fails when `G(p)` is singular or the eigensolver stalls.
    fn dominant_poles(&self, p: &[f64], count: usize) -> Result<Vec<Complex64>>;

    /// [`TransferModel::transfer`] drawing scratch from a reusable
    /// workspace. The default ignores the workspace; implementations
    /// override it to amortize assembly/factorization work across a
    /// batch. Results are bitwise identical either way.
    ///
    /// # Errors
    ///
    /// See [`TransferModel::transfer`].
    fn transfer_with(
        &self,
        p: &[f64],
        s: Complex64,
        ws: &mut EvalWorkspace,
    ) -> Result<Matrix<Complex64>> {
        let _ = ws;
        self.transfer(p, s)
    }

    /// Simulates the model's time-domain response at parameter point `p`
    /// under one [`Stimulus`] per input, integrating the descriptor
    /// equation with the θ-method configured in `opts` (see
    /// [`crate::transient`]). Scratch is drawn from the workspace where
    /// the implementation supports it; results are independent of the
    /// workspace's history, so batched transient analyses stay bitwise
    /// deterministic across thread counts.
    ///
    /// # Errors
    ///
    /// Fails when the step matrix `C(p)/h + θG(p)` is singular or the
    /// options are inconsistent with the model's ports.
    fn transient(
        &self,
        p: &[f64],
        stimuli: &[Stimulus],
        opts: &TransientOptions,
        ws: &mut EvalWorkspace,
    ) -> Result<TransientResult>;

    /// The transfer matrices of a frequency sweep at `p`, one per
    /// frequency (`s = j·2πf`): [`TransferModel::eval_batch`] of
    /// [`EvalPoint::sweep`] on a fresh workspace, so the model assembles
    /// `G(p)`, `C(p)` once for the sweep. Each matrix is bitwise
    /// [`TransferModel::transfer`] at its frequency.
    ///
    /// # Errors
    ///
    /// Propagates the first failed point's error.
    fn frequency_response(&self, p: &[f64], freqs_hz: &[f64]) -> Result<Vec<Matrix<Complex64>>> {
        self.eval_batch(&EvalPoint::sweep(p, freqs_hz), &mut EvalWorkspace::new())
    }

    /// Evaluates a batch of points with one shared workspace, in order.
    /// This is the unit of work the [`EvalEngine`] hands each worker
    /// thread; points sharing a parameter point benefit most when they
    /// are adjacent (the full model reuses its memoized `G(p)`/`C(p)`
    /// assembly, and a ROM skips re-assembling `G̃(p)`/`C̃(p)`).
    ///
    /// # Errors
    ///
    /// Fails on the first point that fails.
    fn eval_batch(
        &self,
        points: &[EvalPoint],
        ws: &mut EvalWorkspace,
    ) -> Result<Vec<Matrix<Complex64>>> {
        let mut out = batch_results(points);
        for pt in points {
            out.push(self.transfer_with(&pt.params, pt.s, ws)?);
        }
        Ok(out)
    }
}

/// An empty result vector with room for one matrix per point, so a
/// batch allocates it once rather than growing it by doubling.
pub(crate) fn batch_results(points: &[EvalPoint]) -> Vec<Matrix<Complex64>> {
    Vec::with_capacity(points.len())
}

/// The batched, deterministic evaluation engine shared by every
/// analysis: chunks point sets across scoped worker threads, gives each
/// worker its own [`EvalWorkspace`], and stitches results back in input
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalEngine {
    threads: usize,
}

impl Default for EvalEngine {
    /// An engine using the machine's available parallelism.
    fn default() -> Self {
        EvalEngine::new(0)
    }
}

impl EvalEngine {
    /// Creates an engine; `threads = 0` means use the machine's
    /// available parallelism.
    pub fn new(threads: usize) -> Self {
        EvalEngine { threads }
    }

    /// A single-threaded engine (still workspace-reusing).
    pub fn serial() -> Self {
        EvalEngine::new(1)
    }

    /// The configured thread knob (`0` = available parallelism).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The effective worker count for `items` work items: the configured
    /// `threads` (or available parallelism when 0), never more than one
    /// worker per item, never less than one.
    pub fn worker_count(&self, items: usize) -> usize {
        let configured = if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.threads
        };
        configured.clamp(1, items.max(1))
    }

    /// Runs `eval` over every item with per-thread workspaces, chunked
    /// across scoped workers, returning results in input order. The
    /// chunking is deterministic (contiguous ranges of the input) and
    /// per-item results are independent of it, so any thread count
    /// produces identical output.
    ///
    /// # Errors
    ///
    /// Propagates the first per-item error in input order.
    pub fn map<I, T, F>(&self, items: &[I], eval: F) -> Result<Vec<T>>
    where
        I: Sync,
        T: Send,
        F: Fn(&I, &mut EvalWorkspace) -> Result<T> + Sync,
    {
        self.map_chunked(items, |chunk, ws| {
            // pmor-lint: allow(alloc-in-kernel) reason="batch-layer orchestration: one allocation per batch/chunk amortized over every point; the per-point ROM path stays allocation-free"
            let mut out = Vec::with_capacity(chunk.len());
            for item in chunk {
                out.push(eval(item, ws)?);
            }
            Ok(out)
        })
    }

    /// Like [`EvalEngine::map`], but hands each worker its whole
    /// contiguous chunk at once — the hook [`TransferModel::eval_batch`]
    /// plugs into.
    ///
    /// # Errors
    ///
    /// Propagates the first chunk error in input order.
    pub fn map_chunked<I, T, F>(&self, items: &[I], eval: F) -> Result<Vec<T>>
    where
        I: Sync,
        T: Send,
        F: Fn(&[I], &mut EvalWorkspace) -> Result<Vec<T>> + Sync,
    {
        let workers = self.worker_count(items.len());
        if workers <= 1 {
            let mut ws = EvalWorkspace::new();
            return eval(items, &mut ws);
        }
        let chunk_size = items.len().div_ceil(workers);
        // pmor-lint: allow(alloc-in-kernel) reason="batch-layer orchestration: one allocation per batch/chunk amortized over every point; the per-point ROM path stays allocation-free"
        let chunks: Vec<&[I]> = items.chunks(chunk_size).collect();
        let eval = &eval;
        let results: Vec<Result<Vec<T>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .into_iter()
                .map(|chunk| {
                    scope.spawn(move || {
                        let mut ws = EvalWorkspace::new();
                        eval(chunk, &mut ws)
                    })
                })
                // pmor-lint: allow(alloc-in-kernel) reason="batch-layer orchestration: one allocation per batch/chunk amortized over every point; the per-point ROM path stays allocation-free"
                .collect();
            handles
                .into_iter()
                // pmor-lint: allow(panic-in-lib) reason="join fails only when a worker panicked; re-raising that panic is the intended behavior"
                .map(|h| h.join().expect("evaluation worker panicked"))
                // pmor-lint: allow(alloc-in-kernel) reason="batch-layer orchestration: one allocation per batch/chunk amortized over every point; the per-point ROM path stays allocation-free"
                .collect()
        });
        // pmor-lint: allow(alloc-in-kernel) reason="batch-layer orchestration: one allocation per batch/chunk amortized over every point; the per-point ROM path stays allocation-free"
        let mut out = Vec::with_capacity(items.len());
        for r in results {
            out.extend(r?);
        }
        Ok(out)
    }

    /// Evaluates `model` at every point, in parallel, workspace-reusing,
    /// returning one transfer matrix per point in input order.
    ///
    /// # Errors
    ///
    /// Propagates the first evaluation failure.
    pub fn transfer_batch(
        &self,
        model: &dyn TransferModel,
        points: &[EvalPoint],
    ) -> Result<Vec<Matrix<Complex64>>> {
        self.map_chunked(points, |chunk, ws| model.eval_batch(chunk, ws))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::FullModel;
    use crate::lowrank::LowRankPmor;
    use crate::Reducer;
    use pmor_circuits::generators::{clock_tree, ClockTreeConfig};
    use pmor_circuits::ParametricSystem;

    fn tree(n: usize) -> ParametricSystem {
        clock_tree(&ClockTreeConfig {
            num_nodes: n,
            ..Default::default()
        })
        .assemble()
    }

    fn points(n: usize) -> Vec<EvalPoint> {
        (0..n)
            .map(|i| {
                EvalPoint::new(
                    vec![0.03 * (i % 5) as f64, -0.02 * (i % 3) as f64, 0.0],
                    Complex64::jw(1e8 * (1 + i % 7) as f64),
                )
            })
            .collect()
    }

    #[test]
    fn engine_results_are_identical_across_thread_counts() {
        let sys = tree(30);
        let rom = LowRankPmor::with_defaults().reduce_once(&sys).unwrap();
        let pts = points(13);
        let serial = EvalEngine::new(1).transfer_batch(&rom, &pts).unwrap();
        for threads in [2, 4, 64] {
            let par = EvalEngine::new(threads).transfer_batch(&rom, &pts).unwrap();
            for (a, b) in serial.iter().zip(&par) {
                for r in 0..a.nrows() {
                    for c in 0..a.ncols() {
                        assert_eq!(a[(r, c)].re.to_bits(), b[(r, c)].re.to_bits());
                        assert_eq!(a[(r, c)].im.to_bits(), b[(r, c)].im.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn workspace_path_matches_plain_transfer_bitwise_for_full_model() {
        let sys = tree(25);
        let full = FullModel::new(&sys);
        let mut ws = EvalWorkspace::new();
        for pt in points(9) {
            let plain = full.transfer(&pt.params, pt.s).unwrap();
            let fast = full.transfer_with(&pt.params, pt.s, &mut ws).unwrap();
            assert_eq!(
                plain[(0, 0)].re.to_bits(),
                fast[(0, 0)].re.to_bits(),
                "at {pt:?}"
            );
            assert_eq!(plain[(0, 0)].im.to_bits(), fast[(0, 0)].im.to_bits());
        }
    }

    #[test]
    fn workspace_is_safe_across_interleaved_models() {
        // One workspace serving two different systems and a ROM must
        // never serve stale assemblies.
        let sys_a = tree(25);
        let sys_b = tree(35);
        let full_a = FullModel::new(&sys_a);
        let full_b = FullModel::new(&sys_b);
        let rom = LowRankPmor::with_defaults().reduce_once(&sys_a).unwrap();
        let mut ws = EvalWorkspace::new();
        let p = [0.1, 0.0, -0.1];
        let s = Complex64::jw(2e9);
        for _ in 0..2 {
            let ha = full_a.transfer_with(&p, s, &mut ws).unwrap();
            let hb = full_b.transfer_with(&p, s, &mut ws).unwrap();
            let hr = rom.transfer_with(&p, s, &mut ws).unwrap();
            assert_eq!(
                ha[(0, 0)].re.to_bits(),
                full_a.transfer(&p, s).unwrap()[(0, 0)].re.to_bits()
            );
            assert_eq!(
                hb[(0, 0)].re.to_bits(),
                full_b.transfer(&p, s).unwrap()[(0, 0)].re.to_bits()
            );
            let rel = (hr[(0, 0)] - ha[(0, 0)]).abs() / ha[(0, 0)].abs();
            assert!(rel < 1e-3, "rom vs full rel err {rel}");
        }
    }

    #[test]
    fn map_propagates_errors_in_input_order() {
        let engine = EvalEngine::new(3);
        let items: Vec<usize> = (0..10).collect();
        let err = engine
            .map(&items, |&i, _ws| {
                if i >= 4 {
                    Err(crate::PmorError::Invalid(format!("boom {i}")))
                } else {
                    Ok(i)
                }
            })
            .unwrap_err();
        assert!(err.to_string().contains("boom 4"), "{err}");
    }

    #[test]
    fn sweep_points_share_the_parameter_vector() {
        let pts = EvalPoint::sweep(&[0.1, 0.2], &[1e8, 1e9]);
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].params, vec![0.1, 0.2]);
        assert!((pts[1].s.im - 2.0 * std::f64::consts::PI * 1e9).abs() < 1.0);
        assert_eq!(pts[0].s.re, 0.0);
    }

    #[test]
    fn worker_count_clamps() {
        let e = EvalEngine::new(8);
        assert_eq!(e.worker_count(3), 3);
        assert_eq!(e.worker_count(100), 8);
        assert_eq!(e.worker_count(0), 1);
        assert!(EvalEngine::new(0).worker_count(100) >= 1);
        assert_eq!(EvalEngine::serial().threads(), 1);
    }
}
