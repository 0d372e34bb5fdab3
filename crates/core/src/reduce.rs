//! The unified reduction interface: the [`Reducer`] trait, the shared
//! [`ReductionContext`] solver cache, and the [`ReducerKind`] registry.
//!
//! Every reduction method in this crate — PRIMA ([`crate::prima`]),
//! single-point multi-parameter moment matching ([`crate::moments`]),
//! multi-point expansion ([`crate::multipoint`]), projection fitting
//! ([`crate::fit`]) and the paper's low-rank Algorithm 1
//! ([`crate::lowrank`]) — implements [`Reducer`], so downstream layers
//! (variation analysis, benches, experiments) are written once against
//! `&dyn Reducer` and select methods dynamically by name through
//! [`reducer_by_name`].
//!
//! The [`ReductionContext`] realizes the paper's §4.2 cost model as an
//! explicit object: the sparse LU factorization of the nominal `G0` (and,
//! more generally, of `G(p)` at any expansion point) is performed **once
//! per system** and memoized, so PRIMA's Krylov recurrence, the
//! sensitivity SVDs of Algorithm 1 (forward and transpose solves on the
//! same factors) and multi-point samples all share factors instead of
//! each recomputing them. Pass one context through a whole pipeline to
//! get the sharing; the context self-resets when handed a different
//! system.
//!
//! # Example
//!
//! ```
//! use pmor::{reducer_by_name, Reducer, ReductionContext};
//! use pmor_circuits::generators::{clock_tree, ClockTreeConfig};
//!
//! # fn main() -> Result<(), pmor::PmorError> {
//! let sys = clock_tree(&ClockTreeConfig { num_nodes: 40, ..Default::default() }).assemble();
//! let mut ctx = ReductionContext::new();
//! for name in ["prima", "lowrank"] {
//!     let reducer = reducer_by_name(name, &sys).expect("registered method");
//!     let rom = reducer.reduce(&sys, &mut ctx)?;
//!     assert!(rom.size() < sys.dim());
//! }
//! // Both methods shared one factorization of G0.
//! assert_eq!(ctx.real_factorizations(), 1);
//! # Ok(())
//! # }
//! ```

use crate::rom::ParametricRom;
use crate::Result;
use pmor_circuits::ParametricSystem;
use pmor_sparse::{CsrMatrix, FactorCache, FactorCacheStats, FactorKey, OrderingChoice, SparseLu};
use std::sync::Arc;

/// A model-order-reduction method producing a [`ParametricRom`].
///
/// Implementations draw every sparse factorization they need from the
/// supplied [`ReductionContext`], so that independent reducers applied to
/// the same system share the one-time `G0` factorization (paper §4.2).
pub trait Reducer {
    /// The registry name of this method (see [`ReducerKind`]).
    fn name(&self) -> &'static str;

    /// Reduces `sys`, drawing shared factorizations from `ctx`.
    ///
    /// # Errors
    ///
    /// Fails when the system (or a sampled instance of it) is singular,
    /// or when the method's options are invalid for `sys`.
    fn reduce(&self, sys: &ParametricSystem, ctx: &mut ReductionContext) -> Result<ParametricRom>;

    /// Convenience: reduces with a fresh private context (no sharing).
    ///
    /// # Errors
    ///
    /// See [`Reducer::reduce`].
    fn reduce_once(&self, sys: &ParametricSystem) -> Result<ParametricRom> {
        self.reduce(sys, &mut ReductionContext::new())
    }
}

/// Role tag of the [`FactorKey`]s used by the context.
const TAG_REAL_G: u64 = 1;

/// The shared solver cache threaded through a reduction pipeline.
///
/// Memoizes, per system, the real factors of `G(p)` at any parameter
/// point — the nominal `G0` (`p = 0`) being the one the paper's
/// single-factorization claim is about, and perturbed samples being
/// shared across multi-point / fitting reducers using the same sample
/// grid. Every factor is [`SparseLu::factor`] of `G(p)` under the
/// context's shared ordering.
///
/// The context fingerprints the system it serves; handing it a different
/// system clears the cache (counters are lifetime counters and survive),
/// so a context can be reused across systems without cross-contamination.
#[derive(Debug, Clone)]
pub struct ReductionContext {
    cache: FactorCache,
    fingerprint: Option<u64>,
    /// Fill-reducing ordering policy ([`OrderingChoice::Rcm`] by default;
    /// `"amd"`/`"auto"` scale better on mesh- and grid-structured
    /// systems — see `docs/GUIDE.md` §6).
    ordering_choice: OrderingChoice,
    /// The resolved ordering of the served system's union sparsity
    /// pattern, computed once per system and shared by every
    /// factorization (orderings only affect fill-in, never solution
    /// values). `None` until resolved, and stays `None` for the natural
    /// order.
    ordering: Option<Arc<Vec<usize>>>,
    /// Name of the resolved ordering (`Some` once any factorization
    /// resolved the policy; records `"amd"`/`"rcm"` for `"auto"`).
    ordering_used: Option<&'static str>,
    /// Fill (`L + U` nonzeros) of the first factors the context handed
    /// out for the served system under the current ordering — the
    /// provenance of pipelines that never factor `p = 0`.
    first_factor_nnz: Option<usize>,
    /// Worker threads for [`ReductionContext::prefactor_g_at`] batches
    /// (`0` = available parallelism, `1` = serial).
    threads: usize,
}

impl Default for ReductionContext {
    /// Identical to [`ReductionContext::new`] (RCM ordering enabled).
    fn default() -> Self {
        ReductionContext::new()
    }
}

impl ReductionContext {
    /// Creates an empty context (RCM ordering enabled, serial
    /// factorization).
    pub fn new() -> Self {
        ReductionContext {
            cache: FactorCache::new(),
            fingerprint: None,
            ordering_choice: OrderingChoice::Rcm,
            ordering: None,
            ordering_used: None,
            first_factor_nnz: None,
            threads: 1,
        }
    }

    /// Creates a context whose batched factorizations
    /// ([`ReductionContext::prefactor_g_at`]) run on up to `threads`
    /// worker threads (`0` = available parallelism). The thread count
    /// affects wall-clock only: cached factors, counters and every
    /// downstream numeric result are bitwise identical to the serial
    /// context.
    pub fn with_threads(threads: usize) -> Self {
        ReductionContext {
            threads,
            ..ReductionContext::new()
        }
    }

    /// Changes the worker-thread knob (see
    /// [`ReductionContext::with_threads`]).
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads;
    }

    /// The configured worker-thread knob (`0` = available parallelism).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Creates a context with an explicit fill-reducing ordering policy.
    /// Orderings only affect fill-in (memory and wall-clock), never
    /// solution values.
    pub fn with_ordering(choice: OrderingChoice) -> Self {
        ReductionContext {
            ordering_choice: choice,
            ..ReductionContext::new()
        }
    }

    /// Changes the ordering policy. Cached factors and their fill are
    /// dropped (they embed the old ordering); lifetime counters survive.
    pub fn set_ordering(&mut self, choice: OrderingChoice) {
        if choice != self.ordering_choice {
            self.ordering_choice = choice;
            self.cache.clear();
            self.ordering = None;
            self.ordering_used = None;
            self.first_factor_nnz = None;
        }
    }

    /// The configured ordering policy.
    pub fn ordering_choice(&self) -> OrderingChoice {
        self.ordering_choice
    }

    /// Real factors of the nominal `G0` — the paper's one-time
    /// factorization.
    ///
    /// # Errors
    ///
    /// Fails when `G0` is singular.
    pub fn factor_g0(&mut self, sys: &ParametricSystem) -> Result<Arc<SparseLu<f64>>> {
        self.factor_g_at(sys, &vec![0.0; sys.num_params()])
    }

    /// Real factors of `G(p)` at an arbitrary parameter point, memoized
    /// per point.
    ///
    /// # Errors
    ///
    /// Fails when `G(p)` is singular or `p` has the wrong length.
    pub fn factor_g_at(&mut self, sys: &ParametricSystem, p: &[f64]) -> Result<Arc<SparseLu<f64>>> {
        check_point(sys, p)?;
        self.ensure_system(sys);
        let ord = self.shared_ordering(sys);
        let key = FactorKey::tagged(TAG_REAL_G, p);
        let lu = self.cache.real(key, || {
            SparseLu::factor(&sys.g_at(p), ord.as_deref().map(Vec::as_slice))
        })?;
        self.first_factor_nnz.get_or_insert(lu.factor_nnz());
        Ok(lu)
    }

    /// Factors `G(p)` at every point of `points` that is not already
    /// cached, running the missing factorizations on the context's
    /// worker threads (see [`ReductionContext::with_threads`]) — the
    /// parallel multi-shift path behind the multi-point and fitting
    /// reducers. Returns the factors in `points` order, so callers
    /// consume them directly instead of re-requesting each point
    /// (which would double-count cache hits).
    ///
    /// Cache contents, counters and all solve results are bitwise
    /// identical to requesting each point through
    /// [`ReductionContext::factor_g_at`] in order: each matrix is
    /// factored by exactly one worker with the same shared ordering, and
    /// results are committed to the cache in `points` order.
    ///
    /// # Errors
    ///
    /// Fails when any `G(p)` is singular or any point has the wrong
    /// length; the earliest failing point's error is returned (factors
    /// of the other points are kept, as in serial retries).
    pub fn prefactor_g_at(
        &mut self,
        sys: &ParametricSystem,
        points: &[Vec<f64>],
    ) -> Result<Vec<Arc<SparseLu<f64>>>> {
        for p in points {
            check_point(sys, p)?;
        }
        self.ensure_system(sys);
        let ord = self.shared_ordering(sys);
        let jobs: Vec<_> = points
            .iter()
            .map(|p| (FactorKey::tagged(TAG_REAL_G, p), move || sys.g_at(p)))
            .collect();
        let out =
            self.cache
                .real_parallel(jobs, self.threads, ord.as_deref().map(Vec::as_slice))?;
        if let Some(lu) = out.first() {
            self.first_factor_nnz.get_or_insert(lu.factor_nnz());
        }
        Ok(out)
    }

    /// The context's shared fill-reducing ordering, resolved once per
    /// served system from the configured [`OrderingChoice`] on the union
    /// sparsity pattern ([`None`] for the natural order).
    fn shared_ordering(&mut self, sys: &ParametricSystem) -> Option<Arc<Vec<usize>>> {
        if self.ordering_used.is_none() {
            let (perm, name) = self.ordering_choice.resolve(&union_pattern(sys));
            self.ordering = perm.map(Arc::new);
            self.ordering_used = Some(name);
        }
        self.ordering.clone()
    }

    /// Resolves (if needed) and names the ordering this context factors
    /// with: `"natural"`, `"rcm"` or `"amd"` — the `"auto"` policy
    /// reports whichever it picked for the served system.
    pub fn ordering_used(&mut self, sys: &ParametricSystem) -> &'static str {
        self.ensure_system(sys);
        self.shared_ordering(sys);
        self.ordering_used.unwrap_or("natural")
    }

    /// Factors the nominal `G0` (memoized) and reports where its cost
    /// went: the resolved ordering and the fill it produced.
    ///
    /// # Errors
    ///
    /// Fails when `G0` is singular.
    pub fn provenance(&mut self, sys: &ParametricSystem) -> Result<FactorProvenance> {
        let lu = self.factor_g0(sys)?;
        let matrix_nnz = sys.g_at(&vec![0.0; sys.num_params()]).nnz();
        Ok(FactorProvenance {
            ordering: self.ordering_used.unwrap_or("natural"),
            factor_nnz: lu.factor_nnz(),
            matrix_nnz,
        })
    }

    /// Provenance of the real factors this context has **already**
    /// produced for `sys`, without factoring anything and without
    /// touching the cache counters — the inspection hook bench/scenario
    /// records use after a pipeline ran, where
    /// [`ReductionContext::provenance`] would perturb the hit counts
    /// those records also report.
    ///
    /// Returns [`None`] until some real factorization happened for this
    /// system (or when the context last served a different system).
    /// Prefers the cached nominal `G0` factors; pipelines that never
    /// factor `p = 0` (e.g. a pure multi-point sample grid) report the
    /// fill of the first factors the context handed out for the system.
    pub fn provenance_ready(&self, sys: &ParametricSystem) -> Option<FactorProvenance> {
        if self.fingerprint != Some(system_fingerprint(sys)) {
            return None;
        }
        let ordering = self.ordering_used?;
        let p0 = vec![0.0; sys.num_params()];
        let factor_nnz = match self.cache.peek_real(&FactorKey::tagged(TAG_REAL_G, &p0)) {
            Some(lu) => lu.factor_nnz(),
            None => self.first_factor_nnz?,
        };
        Some(FactorProvenance {
            ordering,
            factor_nnz,
            matrix_nnz: sys.g_at(&p0).nnz(),
        })
    }

    /// Number of **real** sparse factorizations actually performed over
    /// this context's lifetime (cache misses; the paper's headline count).
    pub fn real_factorizations(&self) -> usize {
        self.cache.stats().real_factorizations
    }

    /// Requests served from the cache without factoring.
    pub fn cache_hits(&self) -> usize {
        self.cache.stats().hits
    }

    /// Full usage counters of the backing [`FactorCache`].
    pub fn stats(&self) -> FactorCacheStats {
        self.cache.stats()
    }

    /// Clears cached factors if `sys` differs from the system this
    /// context last served.
    ///
    /// The content fingerprint is recomputed on every request — O(total
    /// nnz), a hash-mix per stored entry, which is small next to the
    /// triangular solves any factor request precedes. Identity cannot be
    /// keyed on the reference address: stack/heap reuse can hand a new
    /// system the address of a dropped one, which must not be served the
    /// old factors.
    fn ensure_system(&mut self, sys: &ParametricSystem) {
        let fp = system_fingerprint(sys);
        if self.fingerprint != Some(fp) {
            if self.fingerprint.is_some() {
                self.cache.clear();
            }
            self.ordering = None;
            self.ordering_used = None;
            self.first_factor_nnz = None;
            self.fingerprint = Some(fp);
        }
    }
}

/// Refuses a parameter point whose length is not the system's
/// parameter count (`G(p)` assembly would panic on it).
fn check_point(sys: &ParametricSystem, p: &[f64]) -> Result<()> {
    if p.len() == sys.num_params() {
        Ok(())
    } else {
        Err(crate::PmorError::Invalid(format!(
            "point has {} parameters, system has {}",
            p.len(),
            sys.num_params()
        )))
    }
}

/// Where a factorization's cost went: the resolved fill-reducing
/// ordering and the fill it produced, as recorded by
/// [`ReductionContext::provenance`] and surfaced in scenario/bench
/// metrics (`factor_nnz`, `fill_ratio`, `ordering`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FactorProvenance {
    /// Resolved ordering name: `"natural"`, `"rcm"` or `"amd"`.
    pub ordering: &'static str,
    /// Stored nonzeros of `L + U`.
    pub factor_nnz: usize,
    /// Stored nonzeros of the factored matrix.
    pub matrix_nnz: usize,
}

impl FactorProvenance {
    /// Fill ratio `factor_nnz / matrix_nnz` (≥ 1 in practice; lower is
    /// better).
    pub fn fill_ratio(&self) -> f64 {
        self.factor_nnz as f64 / self.matrix_nnz as f64
    }
}

/// The union sparsity pattern of every system matrix (`G0`, `C0`, all
/// `Gᵢ`/`Cᵢ`) as a nonnegative-valued sparse matrix: absolute values
/// summed, so no entry can cancel away. `G(p) + s·C(p)` has a subset of
/// this pattern at every `(p, s)`, which makes an RCM ordering of the
/// union valid (orderings only affect fill-in, never solution values)
/// for any evaluation — the basis of the compute-once orderings in
/// [`crate::eval::FullModel`] and [`ReductionContext`].
pub(crate) fn union_pattern(sys: &ParametricSystem) -> CsrMatrix<f64> {
    let mats: Vec<&CsrMatrix<f64>> = [&sys.g0, &sys.c0]
        .into_iter()
        .chain(&sys.gi)
        .chain(&sys.ci)
        .collect();
    CsrMatrix::abs_sum(&mats)
}

/// The FNV-1a fold over a `u64` word stream shared by every content key
/// in the workspace ([`system_fingerprint`],
/// [`registry_defaults::fingerprint`], the CLI's ROM-cache keys) — one
/// hashing scheme, defined once, so the keys can never silently
/// de-synchronize.
pub fn fnv1a_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        h ^= w;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a content fingerprint over the **whole** system identity: dims,
/// the structure and values of every system matrix (`G0`, `C0`, all
/// `Gᵢ`/`Cᵢ`), and the dense port maps `B`/`L` — two systems differing
/// only in port placement produce different reduced models, so the
/// ports must key too, not just their counts. Public because external
/// caches (the CLI's content-addressed ROM cache) key on the same
/// identity.
pub fn system_fingerprint(sys: &ParametricSystem) -> u64 {
    let mat =
        |m: &CsrMatrix<f64>| {
            fnv1a_words(m.iter().map(|(r, c, v)| {
                (r as u64).rotate_left(17) ^ (c as u64).rotate_left(31) ^ v.to_bits()
            }))
        };
    let dense = |m: &pmor_num::Matrix<f64>| {
        fnv1a_words((0..m.nrows()).flat_map(|r| (0..m.ncols()).map(move |c| m[(r, c)].to_bits())))
    };
    let mut words = vec![
        sys.dim() as u64,
        sys.num_params() as u64,
        sys.num_inputs() as u64,
        sys.num_outputs() as u64,
        mat(&sys.g0),
        mat(&sys.c0),
        dense(&sys.b),
        dense(&sys.l),
    ];
    words.extend(sys.gi.iter().chain(sys.ci.iter()).map(mat));
    fnv1a_words(words)
}

/// The default option values [`ReducerKind::build`] uses for the knobs
/// that [`ReducerTuning`] may override individually. Kept as named
/// constants so a partial override falls back to exactly the registry's
/// values, never a drifted copy.
pub mod registry_defaults {
    /// Half-width of the multipoint/fit parameter sample box.
    pub const SAMPLE_RANGE: f64 = 0.3;
    /// Multipoint grid samples per parameter axis.
    pub const MULTIPOINT_PER_AXIS: usize = 2;
    /// `s`-moment blocks per multipoint/fit sample.
    pub const SAMPLE_BLOCK_MOMENTS: usize = 4;
    /// Low-rank frequency-moment order.
    pub const LOWRANK_S_ORDER: usize = 6;
    /// Low-rank parameter-moment order.
    pub const LOWRANK_PARAM_ORDER: usize = 2;
    /// Low-rank SVD rank per generalized sensitivity.
    pub const LOWRANK_RANK: usize = 2;
    /// Adaptive-driver stopping tolerance (worst relative residual).
    pub const ADAPTIVE_TOLERANCE: f64 = 1e-6;
    /// Adaptive-driver reduced-order budget. Sized for multi-input
    /// systems (each expansion point contributes up to
    /// `block_moments × inputs` directions).
    pub const ADAPTIVE_MAX_ORDER: usize = 192;
    /// Adaptive-driver expansion-point budget.
    pub const ADAPTIVE_MAX_POINTS: usize = 12;
    /// Adaptive-driver parameter probe points. Deliberately larger than
    /// [`ADAPTIVE_MAX_POINTS`]: probes that can never all become
    /// expansion points keep the estimator honest about interpolation
    /// error *between* expansion points.
    pub const ADAPTIVE_PROBE_POINTS: usize = 33;
    /// Adaptive-driver probe frequencies, Hz.
    pub const ADAPTIVE_PROBE_FREQS_HZ: [f64; 2] = [1e8, 1e9];

    /// FNV-1a fingerprint over **every** default the registry's
    /// construction path can fall back to — the constants above plus the
    /// option-struct defaults [`super::ReducerKind::build_tuned`] reads
    /// directly. External caches keyed on unresolved [`super::ReducerTuning`]
    /// values (the CLI's ROM cache) fold this in, so changing any
    /// registry default invalidates their entries instead of silently
    /// serving models reduced under the old default.
    pub fn fingerprint() -> u64 {
        let lr = crate::lowrank::LowRankOptions::default();
        super::fnv1a_words([
            SAMPLE_RANGE.to_bits(),
            MULTIPOINT_PER_AXIS as u64,
            SAMPLE_BLOCK_MOMENTS as u64,
            LOWRANK_S_ORDER as u64,
            LOWRANK_PARAM_ORDER as u64,
            LOWRANK_RANK as u64,
            crate::prima::PrimaOptions::default().num_block_moments as u64,
            u64::from(lr.include_transpose_subspaces),
            u64::from(lr.approximate_raw_sensitivities),
            lr.svd.oversample as u64,
            lr.svd.power_iterations as u64,
            lr.svd.seed,
            crate::moments::SinglePointOptions::default().order as u64,
            ADAPTIVE_TOLERANCE.to_bits(),
            ADAPTIVE_MAX_ORDER as u64,
            ADAPTIVE_MAX_POINTS as u64,
            ADAPTIVE_PROBE_POINTS as u64,
            ADAPTIVE_PROBE_FREQS_HZ[0].to_bits(),
            ADAPTIVE_PROBE_FREQS_HZ[1].to_bits(),
        ])
    }
}

/// Optional per-method overrides for [`ReducerKind::build_tuned`] — the
/// knobs external front ends (the scenario CLI, future services) expose
/// without re-implementing method construction. Every field is
/// optional; `None` keeps the registry default, so
/// `build_tuned(sys, &Default::default())` ≡ `build(sys)`. Each knob
/// only affects the methods that read it:
///
/// | field | methods | meaning |
/// |---|---|---|
/// | `range` | multipoint, fit | half-width of the parameter sample box |
/// | `samples_per_axis` | multipoint | grid samples per parameter axis |
/// | `block_moments` | prima, multipoint, fit | matched `s`-moment blocks |
/// | `s_order` | lowrank | frequency-moment blocks in `V0` |
/// | `param_order` | lowrank | Krylov blocks per parameter subspace |
/// | `rank` | lowrank | SVD rank per generalized sensitivity |
/// | `include_transpose` | lowrank | keep the `Ã0ᵀ` subspaces (Alg. 1 step 2.2) |
/// | `adaptive` | multipoint, fit | error-controlled point/order selection |
/// | `tolerance` | adaptive mode | stopping tolerance (worst relative residual) |
/// | `max_order` | adaptive mode | reduced-order budget |
/// | `probe_points` | adaptive mode | parameter probe points in the estimation grid |
/// | `max_points` | adaptive mode | expansion-point budget |
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReducerTuning {
    /// Parameter sample half-width for multipoint/fit grids.
    pub range: Option<f64>,
    /// Multipoint grid samples per axis.
    pub samples_per_axis: Option<usize>,
    /// Matched `s`-moment blocks for prima/multipoint/fit.
    pub block_moments: Option<usize>,
    /// Low-rank `s`-moment order.
    pub s_order: Option<usize>,
    /// Low-rank parameter-moment order.
    pub param_order: Option<usize>,
    /// Low-rank SVD rank per sensitivity.
    pub rank: Option<usize>,
    /// Low-rank transpose-subspace toggle.
    pub include_transpose: Option<bool>,
    /// Error-controlled adaptive mode for multi-shift methods.
    pub adaptive: Option<bool>,
    /// Adaptive stopping tolerance (worst relative residual).
    pub tolerance: Option<f64>,
    /// Adaptive reduced-order budget.
    pub max_order: Option<usize>,
    /// Adaptive parameter probe points.
    pub probe_points: Option<usize>,
    /// Adaptive expansion-point budget.
    pub max_points: Option<usize>,
}

/// The registry of reduction methods, selectable by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReducerKind {
    /// Nominal PRIMA projection (`"prima"`).
    Prima,
    /// Single-point multi-parameter moment matching (`"moments"`).
    Moments,
    /// Multi-point expansion in parameter space (`"multipoint"`).
    MultiPoint,
    /// The paper's low-rank Algorithm 1 (`"lowrank"`).
    LowRank,
    /// Projection fitting after Liu et al. \[6\] (`"fit"`).
    Fit,
}

impl ReducerKind {
    /// Every registered method, in presentation order.
    pub const ALL: [ReducerKind; 5] = [
        ReducerKind::Prima,
        ReducerKind::Moments,
        ReducerKind::MultiPoint,
        ReducerKind::LowRank,
        ReducerKind::Fit,
    ];

    /// The registry name.
    pub fn name(self) -> &'static str {
        match self {
            ReducerKind::Prima => "prima",
            ReducerKind::Moments => "moments",
            ReducerKind::MultiPoint => "multipoint",
            ReducerKind::LowRank => "lowrank",
            ReducerKind::Fit => "fit",
        }
    }

    /// Looks a method up by its registry name (case-insensitive).
    pub fn from_name(name: &str) -> Option<ReducerKind> {
        ReducerKind::ALL
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(name))
    }

    /// Builds the method with workload-appropriate default options
    /// (sample grids and fitting stencils are sized from
    /// `sys.num_params()`; numeric knobs come from [`registry_defaults`]).
    pub fn build(self, sys: &ParametricSystem) -> Box<dyn Reducer> {
        self.build_tuned(sys, &ReducerTuning::default())
    }

    /// [`ReducerKind::build`] with individual option overrides. This is
    /// the **single** construction site for registry methods: unset
    /// tuning fields fall back to the same [`registry_defaults`] the
    /// plain `build` uses, so a partially tuned method never diverges
    /// from an untuned one on the untouched knobs.
    pub fn build_tuned(self, sys: &ParametricSystem, t: &ReducerTuning) -> Box<dyn Reducer> {
        use registry_defaults as rd;
        let np = sys.num_params();
        let range = t.range.unwrap_or(rd::SAMPLE_RANGE);
        // Error-controlled mode: the multi-shift-capable kinds hand their
        // expansion-point and order selection to the adaptive driver
        // (the reported name stays the registry name, so records and
        // caches remain per-method). Other kinds ignore the flag — the
        // scenario layer rejects the combination eagerly.
        if t.adaptive == Some(true) && matches!(self, ReducerKind::MultiPoint | ReducerKind::Fit) {
            return Box::new(crate::adaptive::AdaptiveReducer::new(
                self.name(),
                crate::adaptive::AdaptiveDriver::from_tuning(t),
            ));
        }
        match self {
            ReducerKind::Prima => Box::new(crate::prima::Prima::new(crate::prima::PrimaOptions {
                num_block_moments: t
                    .block_moments
                    .unwrap_or(crate::prima::PrimaOptions::default().num_block_moments),
            })),
            ReducerKind::Moments => Box::new(crate::moments::SinglePointPmor::new(
                crate::moments::SinglePointOptions::default(),
            )),
            ReducerKind::MultiPoint => Box::new(crate::multipoint::MultiPointPmor::new(
                crate::multipoint::MultiPointOptions::grid(
                    &vec![(-range, range); np],
                    t.samples_per_axis.unwrap_or(rd::MULTIPOINT_PER_AXIS),
                    t.block_moments.unwrap_or(rd::SAMPLE_BLOCK_MOMENTS),
                ),
            )),
            ReducerKind::LowRank => Box::new(crate::lowrank::LowRankPmor::new(
                crate::lowrank::LowRankOptions {
                    s_order: t.s_order.unwrap_or(rd::LOWRANK_S_ORDER),
                    param_order: t.param_order.unwrap_or(rd::LOWRANK_PARAM_ORDER),
                    rank: t.rank.unwrap_or(rd::LOWRANK_RANK),
                    include_transpose_subspaces: t.include_transpose.unwrap_or(
                        crate::lowrank::LowRankOptions::default().include_transpose_subspaces,
                    ),
                    ..Default::default()
                },
            )),
            ReducerKind::Fit => {
                // Center + ±δ along each axis: the minimal well-posed
                // stencil for the linear projection fit.
                Box::new(crate::fit::FittedProjectionPmor::new(
                    crate::fit::FitOptions {
                        samples: fit_stencil(np, range),
                        num_block_moments: t.block_moments.unwrap_or(rd::SAMPLE_BLOCK_MOMENTS),
                    },
                ))
            }
        }
    }
}

/// The fitting reducer's sample stencil: the center plus ±`range` along
/// each of `np` axes — the minimal well-posed set for the linear
/// projection fit ([`ReducerKind::build_tuned`] is the only caller;
/// external front ends go through it).
fn fit_stencil(np: usize, range: f64) -> Vec<Vec<f64>> {
    let mut samples = vec![vec![0.0; np]];
    for i in 0..np {
        for delta in [-range, range] {
            let mut p = vec![0.0; np];
            p[i] = delta;
            samples.push(p);
        }
    }
    samples
}

/// Builds a registered reduction method by name with default options
/// sized for `sys`. Returns `None` for unknown names.
pub fn reducer_by_name(name: &str, sys: &ParametricSystem) -> Option<Box<dyn Reducer>> {
    ReducerKind::from_name(name).map(|k| k.build(sys))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmor_circuits::generators::{
        clock_tree, power_grid, rc_mesh, rc_random, rlc_bus, ClockTreeConfig, PowerGridConfig,
        RcMeshConfig, RcRandomConfig, RlcBusConfig,
    };
    use pmor_sparse::ordering;

    #[test]
    fn one_pass_union_pattern_matches_the_add_scaled_fold() {
        // Reference: one `add_scaled` (a rebuild from triplets) per
        // matrix after the first.
        let fold = |sys: &ParametricSystem| {
            let mut u = sys.g0.map(f64::abs);
            for m in std::iter::once(&sys.c0).chain(&sys.gi).chain(&sys.ci) {
                u = u.add_scaled(1.0, &m.map(f64::abs));
            }
            u
        };
        for sys in [
            tree(60),
            rc_random(&RcRandomConfig::default()).assemble(),
            rlc_bus(&RlcBusConfig::default()).assemble(),
            rc_mesh(&RcMeshConfig::default()).assemble(),
            power_grid(&PowerGridConfig {
                cols: 12,
                rows: 12,
                ..Default::default()
            })
            .assemble(),
        ] {
            let (got, want) = (union_pattern(&sys), fold(&sys));
            assert_eq!(got.row_ptr(), want.row_ptr());
            assert_eq!(got.col_indices(), want.col_indices());
            let bits =
                |m: &CsrMatrix<f64>| m.iter().map(|(_, _, v)| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want));
            assert_eq!(ordering::rcm(&got), ordering::rcm(&want));
            assert_eq!(ordering::amd(&got), ordering::amd(&want));
        }
    }

    fn tree(n: usize) -> ParametricSystem {
        clock_tree(&ClockTreeConfig {
            num_nodes: n,
            ..Default::default()
        })
        .assemble()
    }

    #[test]
    fn registry_round_trips_names() {
        for kind in ReducerKind::ALL {
            assert_eq!(ReducerKind::from_name(kind.name()), Some(kind));
            assert_eq!(
                ReducerKind::from_name(&kind.name().to_uppercase()),
                Some(kind)
            );
        }
        assert_eq!(ReducerKind::from_name("no-such-method"), None);
    }

    #[test]
    fn registry_builds_every_method_with_matching_name() {
        let sys = tree(20);
        for kind in ReducerKind::ALL {
            let reducer = kind.build(&sys);
            assert_eq!(reducer.name(), kind.name());
            let rom = reducer.reduce_once(&sys).unwrap();
            assert!(rom.size() >= 1, "{} produced an empty ROM", kind.name());
        }
        assert!(reducer_by_name("lowrank", &sys).is_some());
        assert!(reducer_by_name("bogus", &sys).is_none());
    }

    #[test]
    fn context_memoizes_g0_across_requests() {
        let sys = tree(25);
        let mut ctx = ReductionContext::new();
        let a = ctx.factor_g0(&sys).unwrap();
        let b = ctx.factor_g0(&sys).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(ctx.real_factorizations(), 1);
        assert_eq!(ctx.cache_hits(), 1);
    }

    #[test]
    fn context_distinguishes_parameter_points() {
        let sys = tree(25);
        let mut ctx = ReductionContext::new();
        ctx.factor_g0(&sys).unwrap();
        ctx.factor_g_at(&sys, &[0.2, 0.0, 0.0]).unwrap();
        ctx.factor_g_at(&sys, &[0.2, 0.0, 0.0]).unwrap();
        ctx.factor_g_at(&sys, &[0.0, 0.2, 0.0]).unwrap();
        assert_eq!(ctx.real_factorizations(), 3);
        assert_eq!(ctx.cache_hits(), 1);
    }

    #[test]
    fn factor_g_at_refuses_a_wrong_length_point() {
        let sys = tree(25);
        assert_eq!(sys.num_params(), 3);
        let mut ctx = ReductionContext::new();
        let err = ctx.factor_g_at(&sys, &[0.0; 2]).unwrap_err();
        assert!(matches!(err, crate::PmorError::Invalid(_)), "{err}");
        assert!(err.to_string().contains("parameters"), "{err}");
        assert_eq!(ctx.real_factorizations(), 0);
        assert_eq!(ctx.cache_hits(), 0);
    }

    #[test]
    fn default_context_behaves_like_new() {
        // Regression: a derived Default once disagreed with new() on the
        // ordering flag. Debug output carries the policy verbatim.
        let d = format!("{:?}", ReductionContext::default());
        let n = format!("{:?}", ReductionContext::new());
        assert_eq!(d, n);
        assert!(d.contains("ordering_choice: Rcm"), "{d}");
        assert!(d.contains("threads: 1"), "{d}");
    }

    #[test]
    fn ordering_knob_reports_provenance_and_preserves_solutions() {
        let sys = tree(30);
        let b: Vec<f64> = (0..sys.dim()).map(|i| (i as f64).sin()).collect();
        let mut reference: Option<Vec<f64>> = None;
        for choice in [
            OrderingChoice::Natural,
            OrderingChoice::Rcm,
            OrderingChoice::Amd,
            OrderingChoice::Auto,
        ] {
            let mut ctx = ReductionContext::with_ordering(choice);
            assert_eq!(ctx.ordering_choice(), choice);
            let lu = ctx.factor_g0(&sys).unwrap();
            let prov = ctx.provenance(&sys).unwrap();
            assert_eq!(prov.factor_nnz, lu.factor_nnz());
            assert!(prov.fill_ratio() >= 1.0);
            let expected: &[&str] = match choice {
                OrderingChoice::Natural => &["natural"],
                OrderingChoice::Rcm => &["rcm"],
                OrderingChoice::Amd => &["amd"],
                OrderingChoice::Auto => &["rcm", "amd"],
            };
            assert!(expected.contains(&prov.ordering), "{:?}", prov);
            assert_eq!(ctx.ordering_used(&sys), prov.ordering);
            // Solutions are ordering-independent.
            let x = lu.solve(&b).unwrap();
            match &reference {
                None => reference = Some(x),
                Some(r) => assert!(pmor_num::vecops::rel_err(r, &x) < 1e-9, "{choice:?}"),
            }
        }
    }

    #[test]
    fn context_factors_match_sparse_lu_factor_and_count_once() {
        // The context's factors must solve bit for bit like
        // `SparseLu::factor` of the same matrix under the context's shared
        // ordering, and the counters must read one factorization per
        // distinct matrix, serial or batched at any thread count.
        let sys = tree(35);
        let points: Vec<Vec<f64>> = vec![
            vec![0.0; 3],
            vec![0.1, 0.0, -0.1],
            vec![-0.2, 0.05, 0.0],
            vec![0.3, -0.3, 0.2],
        ];
        let b: Vec<f64> = (0..sys.dim()).map(|i| (i as f64).cos()).collect();
        let real_bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let scratch_real = |p: &[f64], ord: Option<&[usize]>| {
            real_bits(
                &SparseLu::factor(&sys.g_at(p), ord)
                    .unwrap()
                    .solve(&b)
                    .unwrap(),
            )
        };

        let mut ctx = ReductionContext::new();
        for p in &points {
            let x = ctx.factor_g_at(&sys, p).unwrap().solve(&b).unwrap();
            let ord = ctx
                .ordering
                .clone()
                .expect("the default context orders by RCM");
            assert_eq!(real_bits(&x), scratch_real(p, Some(&ord)), "p={p:?}");
        }
        assert_eq!(ctx.real_factorizations(), points.len());
        assert_eq!(ctx.cache_hits(), 0);

        for threads in [1usize, 0, 4] {
            let mut batch = ReductionContext::with_threads(threads);
            let factors = batch.prefactor_g_at(&sys, &points).unwrap();
            let ord = batch.ordering.clone().expect("RCM ordering resolved");
            for (p, lu) in points.iter().zip(&factors) {
                let x = lu.solve(&b).unwrap();
                assert_eq!(
                    real_bits(&x),
                    scratch_real(p, Some(&ord)),
                    "p={p:?}, {threads} threads"
                );
            }
            assert_eq!(
                batch.real_factorizations(),
                points.len(),
                "{threads} threads"
            );
            assert_eq!(batch.cache_hits(), 0, "{threads} threads");
        }
    }

    #[test]
    fn provenance_ready_never_touches_the_counters() {
        let sys = tree(35);
        let ctx = ReductionContext::new();
        // Cold context: nothing to report yet.
        assert_eq!(ctx.provenance_ready(&sys), None);

        let mut ctx = ReductionContext::new();
        ctx.factor_g0(&sys).unwrap();
        let stats = ctx.stats();
        let ready = ctx.provenance_ready(&sys).expect("G0 is cached");
        assert_eq!(ctx.stats(), stats, "peek must not count");
        assert_eq!(ready, ctx.provenance(&sys).unwrap());

        // A batch that never factors p = 0 still reports the fill of its
        // first factorization, at any thread count.
        let points = [vec![0.2, 0.0, 0.0], vec![-0.2, 0.0, 0.0]];
        for threads in [1usize, 0, 4] {
            let mut ctx = ReductionContext::with_threads(threads);
            let factors = ctx.prefactor_g_at(&sys, &points).unwrap();
            let stats = ctx.stats();
            let ready = ctx.provenance_ready(&sys).expect("fill recorded");
            assert_eq!(ctx.stats(), stats);
            assert_eq!(ready.ordering, "rcm");
            assert_eq!(ready.factor_nnz, factors[0].factor_nnz());
            assert!(ready.factor_nnz >= ready.matrix_nnz);
            // A later request does not move the first fill.
            ctx.factor_g_at(&sys, &[0.0, 0.3, 0.0]).unwrap();
            assert_eq!(ctx.provenance_ready(&sys), Some(ready));
            // A new ordering, or a new system, forgets it until
            // something is factored.
            ctx.set_ordering(OrderingChoice::Amd);
            assert_eq!(ctx.ordering_used(&sys), "amd");
            assert_eq!(ctx.provenance_ready(&sys), None);
            ctx.set_ordering(OrderingChoice::Rcm);
            ctx.prefactor_g_at(&sys, &points).unwrap();
            let other = tree(20);
            assert_eq!(ctx.ordering_used(&other), "rcm");
            assert_eq!(ctx.provenance_ready(&other), None);
        }
        let mut ctx = ReductionContext::new();
        ctx.prefactor_g_at(&sys, &points).unwrap();

        // A different system invalidates the report.
        assert_eq!(ctx.provenance_ready(&tree(20)), None);
    }

    #[test]
    fn sequentially_constructed_systems_never_see_stale_factors() {
        // Regression: an address-based identity fast path once served a
        // dropped system's factors to a new system allocated at the same
        // stack address. Identity must be judged by content.
        let mut ctx = ReductionContext::new();
        for n in [20usize, 35, 28] {
            let sys = tree(n);
            let lu = ctx.factor_g0(&sys).unwrap();
            assert_eq!(lu.dim(), sys.dim());
            // And the factors actually solve this system.
            let b: Vec<f64> = (0..sys.dim()).map(|i| (i as f64).cos()).collect();
            let x = lu.solve(&b).unwrap();
            let g = sys.g_at(&vec![0.0; sys.num_params()]);
            let r = pmor_num::vecops::sub(&g.mul_vec(&x), &b);
            assert!(pmor_num::vecops::norm2(&r) < 1e-9, "n={n}");
        }
        assert_eq!(ctx.real_factorizations(), 3);
    }

    #[test]
    fn context_resets_when_the_system_changes() {
        let sys_a = tree(20);
        let sys_b = tree(30);
        let mut ctx = ReductionContext::new();
        let lu_a = ctx.factor_g0(&sys_a).unwrap();
        assert_eq!(lu_a.dim(), sys_a.dim());
        // A different system must not be served sys_a's factors.
        let lu_b = ctx.factor_g0(&sys_b).unwrap();
        assert_eq!(lu_b.dim(), sys_b.dim());
        assert_eq!(ctx.real_factorizations(), 2);
        // Returning to sys_a refactors (the cache was cleared) — correct,
        // if not maximally economical; contexts are meant per pipeline.
        ctx.factor_g0(&sys_a).unwrap();
        assert_eq!(ctx.real_factorizations(), 3);
    }
}
