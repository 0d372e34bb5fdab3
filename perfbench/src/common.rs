//! What the three workloads share: the run context, seeded inputs, the
//! mesh systems, the two reduction paths, and the correctness checks.

use crate::calib::{self, Kernel};
use crate::measure::{median, p90, Metrics, Timing};
use crate::trace::Tracer;
use pmor::engine::EvalPoint;
use pmor::eval::FullModel;
use pmor::lowrank::{LowRankOptions, LowRankPmor};
use pmor::reduce::{fnv1a_words, registry_defaults as rd};
use pmor::{OrderingChoice, ParametricRom, ReducerKind, ReductionContext};
use pmor_circuits::generators::{rc_mesh, RcMeshConfig};
use pmor_circuits::ParametricSystem;
use pmor_num::{Complex64, Matrix};
use std::sync::Mutex;
use std::time::Instant;

/// Points per evaluation batch.
pub const BATCH_POINTS: usize = 64;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 15;
/// Parameter points are drawn uniformly from `[-P_RANGE, P_RANGE]` per
/// axis (the Monte-Carlo box the variation crate samples).
pub const P_RANGE: f64 = 0.3;
/// Frequency band of every batch, Hz (10 MHz – 10 GHz).
pub const F_LO_LOG10: f64 = 7.0;
pub const F_DECADES: f64 = 3.0;
/// A ROM whose worst relative |H| error exceeds this fails its check.
pub const MAX_ROM_ERR: f64 = 1e-4;

/// The run: its arguments, the tracer, and every calibration sample.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    calib: Mutex<Vec<(Kernel, f64)>>,
}

impl Run {
    pub fn new(seed: u64, seconds: f64, trace: bool) -> Run {
        Run {
            seed,
            seconds,
            tracer: Tracer::new(trace),
            calib: Mutex::new(Vec::new()),
        }
    }

    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }

    /// Runs `f` as one timed unit bracketed by `kernel`, records its
    /// timing into `into`, and returns `f`'s value and the host's slowdown
    /// against the kernel's reference.
    pub fn timed<T>(&self, kernel: Kernel, into: &mut Timing, f: impl FnOnce() -> T) -> (T, f64) {
        let (out, raw, local) = calib::bracket(kernel, f);
        let slowdown = self.note_calib(kernel, local);
        into.push(raw, slowdown);
        (out, slowdown)
    }

    /// Records a kernel time; returns the slowdown it implies.
    pub fn note_calib(&self, kernel: Kernel, local: f64) -> f64 {
        self.calib
            .lock()
            .expect("calibration list poisoned")
            .push((kernel, local));
        local / kernel.reference_s()
    }

    /// Every kernel time of the run for `kernel`, seconds.
    pub fn calib_samples(&self, kernel: Kernel) -> Vec<f64> {
        let samples = self.calib.lock().expect("calibration list poisoned");
        samples
            .iter()
            .filter(|(k, _)| *k == kernel)
            .map(|&(_, t)| t)
            .collect()
    }
}

/// Operations attempted and failed, for `ok_frac`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn ok_frac(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }
}

/// SplitMix64: every input of a run is drawn from it, seeded by `--seed`.
#[derive(Debug, Clone)]
pub struct SeedRng(u64);

impl SeedRng {
    pub fn new(seed: u64) -> SeedRng {
        SeedRng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn params(&mut self, n: usize) -> Vec<f64> {
        (0..n)
            .map(|_| P_RANGE * (2.0 * self.unit() - 1.0))
            .collect()
    }
}

fn jw_hz(f: f64) -> Complex64 {
    Complex64::jw(2.0 * std::f64::consts::PI * f)
}

/// One parameter point × `BATCH_POINTS` log-spaced frequencies over the
/// band, the grid shifted by a seeded fraction of a step: a frequency sweep.
pub fn sweep_batch(rng: &mut SeedRng, num_params: usize) -> Vec<EvalPoint> {
    let p = rng.params(num_params);
    let shift = rng.unit();
    (0..BATCH_POINTS)
        .map(|k| {
            let x = (k as f64 + shift) / BATCH_POINTS as f64;
            EvalPoint::new(p.clone(), jw_hz(10f64.powf(F_LO_LOG10 + F_DECADES * x)))
        })
        .collect()
}

/// `BATCH_POINTS` points, each with its own parameter point and
/// log-uniform frequency: the Monte-Carlo shape.
pub fn scatter_batch(rng: &mut SeedRng, num_params: usize) -> Vec<EvalPoint> {
    (0..BATCH_POINTS)
        .map(|_| {
            let p = rng.params(num_params);
            EvalPoint::new(p, jw_hz(10f64.powf(F_LO_LOG10 + F_DECADES * rng.unit())))
        })
        .collect()
}

/// The fixed verification set behind `rom_err_digits`: four parameter
/// points from a constant seed, at 10 MHz, 100 MHz, 1 GHz and 10 GHz. It
/// does not depend on `--seed`, so the metric repeats exactly.
pub fn verification_points(num_params: usize) -> Vec<EvalPoint> {
    let mut rng = SeedRng::new(0x5EED_F1ED);
    [1e7, 1e8, 1e9, 1e10]
        .iter()
        .map(|&f| EvalPoint::new(rng.params(num_params), jw_hz(f)))
        .collect()
}

/// Checks `rom` against the full model at the verification set: its worst
/// relative transfer error `max|H_full − H_rom| / max|H_full|` must be at
/// most `MAX_ROM_ERR`. Sets `rom_err_digits` and `rom_states`.
pub fn verify_accuracy(
    full: &FullModel,
    rom: &ParametricRom,
    m: &mut Metrics,
    tally: &mut Tally,
    notes: &mut Vec<String>,
) {
    let worst = verification_points(rom.num_params())
        .iter()
        .try_fold(0.0f64, |worst, pt| {
            let hf = full.transfer(&pt.params, pt.s)?;
            let hr = rom.transfer(&pt.params, pt.s)?;
            Ok::<_, pmor::PmorError>(
                worst.max(hf.sub_mat(&hr).max_abs() / hf.max_abs().max(1e-300)),
            )
        });
    match worst {
        Ok(err) => {
            tally.check(err <= MAX_ROM_ERR);
            m.set("rom_err_digits", -err.log10());
        }
        Err(e) => {
            notes.push(format!("verification against the full model failed: {e}"));
            tally.check(false);
        }
    }
    m.set("rom_states", rom.size() as f64);
}

/// Generates and assembles an RC mesh of the given side, the assembly
/// inside a `circuits.assemble` span. The circuit is the `rc_mesh`
/// scenarios' fixed one: default jitter seed, four regional parameters.
pub fn build_system(run: &Run, side: usize, req: u64, parent: Option<usize>) -> ParametricSystem {
    let net = rc_mesh(&RcMeshConfig {
        rows: side,
        cols: side,
        num_regions: 4,
        ..Default::default()
    });
    run.tracer
        .span("circuits.assemble", parent, req, || net.assemble())
}

/// The low-rank reducer with the registry's options, for the layer-by-layer
/// path (the traced run checks it reproduces the registry's ROM bit for
/// bit).
pub fn layered_reducer() -> LowRankPmor {
    LowRankPmor::new(LowRankOptions {
        s_order: rd::LOWRANK_S_ORDER,
        param_order: rd::LOWRANK_PARAM_ORDER,
        rank: rd::LOWRANK_RANK,
        ..Default::default()
    })
}

/// Counts reported by the reductions of a run (they repeat exactly).
#[derive(Debug, Default, Clone)]
pub struct ReduceCounts {
    pub factor_nnz: f64,
    pub fill_ratio: f64,
    pub real_factorizations: f64,
    pub v0_size: f64,
    pub param_size: f64,
}

impl ReduceCounts {
    pub fn report(&self, m: &mut Metrics) {
        m.set("sparse.factor_nnz", self.factor_nnz);
        m.set("sparse.fill_ratio", self.fill_ratio);
        m.set("sparse.real_factorizations", self.real_factorizations);
        m.set("lowrank.v0_size", self.v0_size);
        m.set("lowrank.param_size", self.param_size);
    }
}

/// One reduction from a fresh context. Untraced, it is the registry's
/// `Reducer::reduce`; layered, it is the same work called layer by layer
/// (`factor_g0`, `projection_with_stats` with `G0` cached,
/// `by_congruence`), each inside a span. Returns the ROM and the number of
/// real sparse factorizations performed.
pub fn reduce(
    run: &Run,
    sys: &ParametricSystem,
    ordering: OrderingChoice,
    layered: bool,
    req: u64,
    parent: Option<usize>,
    counts: &mut ReduceCounts,
) -> pmor::Result<(ParametricRom, usize)> {
    let mut ctx = ReductionContext::with_ordering(ordering);
    ctx.set_threads(1);
    let rom = if layered {
        let tr = &run.tracer;
        tr.span("sparse.factor_g0", parent, req, || ctx.factor_g0(sys))?;
        let (v, stats) = tr.span("lowrank.projection", parent, req, || {
            layered_reducer().projection_with_stats(sys, &mut ctx)
        })?;
        counts.v0_size = stats.v0_size as f64;
        counts.param_size = stats.param_size as f64;
        tr.span("rom.congruence", parent, req, || {
            ParametricRom::by_congruence(sys, &v)
        })
    } else {
        ReducerKind::LowRank.build(sys).reduce(sys, &mut ctx)?
    };
    if let Some(prov) = ctx.provenance_ready(sys) {
        counts.factor_nnz = prov.factor_nnz as f64;
        counts.fill_ratio = prov.fill_ratio();
    }
    let real = ctx.stats().real_factorizations;
    counts.real_factorizations = real as f64;
    Ok((rom, real))
}

/// Sets per-layer timing metrics from the trace: `(metric, span, unit,
/// self_only)`.
pub fn span_metrics(run: &Run, m: &mut Metrics, table: &[(&str, &str, &str, bool)]) {
    for &(metric, span, unit, self_only) in table {
        let t = run.tracer.timing(span, self_only);
        if t.len() > 0 {
            m.timing(metric, &t, unit);
        }
    }
}

/// Sets the `trace.*` metrics: the traced and untraced medians of the
/// unit, the tracing overhead (their difference), the sum of the median
/// self times along the unit's blocking path, and what that sum leaves
/// unexplained of the traced unit.
pub fn trace_metrics(m: &mut Metrics, traced: &Timing, untraced: &Timing, path: &[f64]) {
    let t = median(&traced.norm);
    let u = median(&untraced.norm);
    let sum: f64 = path.iter().sum();
    m.set("trace.unit_traced_s", t);
    m.set("trace.unit_untraced_s", u);
    m.set("trace.overhead_s", t - u);
    m.set("trace.path_sum_s", sum);
    m.set("trace.path_residual_s", t - sum);
    m.set("samples.traced_units", traced.len() as f64);
}

/// FNV-1a over the shape and value bits of a batch's transfer matrices.
/// Batches are checked through this hash, so a run keeps 8 bytes per
/// batch instead of its results and its memory does not grow with its
/// length.
pub fn batch_hash(h: &[Matrix<Complex64>]) -> u64 {
    fnv1a_words(h.iter().flat_map(|m| {
        [m.nrows() as u64, m.ncols() as u64].into_iter().chain(
            m.as_slice()
                .iter()
                .flat_map(|z| [z.re.to_bits(), z.im.to_bits()]),
        )
    }))
}

/// Checks recorded batch hashes (`None` for a batch that failed) against a
/// recomputation, on `threads` threads. `points` re-derives the batches'
/// points in order from the run's seed; `reference` evaluates one batch
/// independently of the timed path and hashes it. Returns one verdict per
/// recorded hash.
pub fn verify_hashes<G>(
    hashes: &[Option<u64>],
    points: G,
    reference: &(dyn Fn(&[EvalPoint]) -> Option<u64> + Sync),
    threads: usize,
) -> Vec<bool>
where
    G: FnMut() -> Vec<EvalPoint> + Clone + Send,
{
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let mut points = points.clone();
                s.spawn(move || {
                    let mut verdicts = Vec::new();
                    for (i, h) in hashes.iter().enumerate() {
                        let pts = points();
                        if let (true, Some(h)) = (i % threads == t, h) {
                            verdicts.push(reference(&pts) == Some(*h));
                        }
                    }
                    verdicts
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("verification thread panicked"))
            .collect()
    })
}

/// The reference for in-process batches: every point through the
/// allocation-per-call `ParametricRom::transfer`.
pub fn pointwise_hash(rom: &ParametricRom, points: &[EvalPoint]) -> Option<u64> {
    let h: pmor::Result<Vec<_>> = points
        .iter()
        .map(|pt| rom.transfer(&pt.params, pt.s))
        .collect();
    h.ok().map(|h| batch_hash(&h))
}

/// Sets the batch-latency metrics from per-batch timings.
/// `clients` is the number of concurrent closed-loop callers.
pub fn batch_metrics(m: &mut Metrics, t: &Timing, clients: usize) {
    let per_s =
        |xs: &[f64]| clients as f64 * (BATCH_POINTS * xs.len()) as f64 / xs.iter().sum::<f64>();
    m.set("batch_p50_ms", median(&t.norm) * 1e3);
    m.set("raw.batch_p50_ms", median(&t.raw) * 1e3);
    m.set("batch_p90_ms", p90(&t.norm) * 1e3);
    m.set("raw.batch_p90_ms", p90(&t.raw) * 1e3);
    m.set("evals_per_s", per_s(&t.norm));
    m.set("raw.evals_per_s", per_s(&t.raw));
}

/// Request ids of set-up iterations (unit ids count up from 0).
pub const SETUP_REQ: u64 = 1 << 40;

/// What a workload hands back to `main`.
pub struct Outcome {
    pub metrics: Metrics,
    pub tally: Tally,
    pub notes: Vec<String>,
}

/// Generates, assembles and reduces a mesh (the set-up of `rom_sweep` and
/// `serve_scatter`). Returns the system, the ROM, the real factorization
/// count and the raw seconds of the reduction.
pub fn build_rom(
    run: &Run,
    side: usize,
    layered: bool,
    req: u64,
    parent: Option<usize>,
    counts: &mut ReduceCounts,
) -> pmor::Result<(ParametricSystem, ParametricRom, usize, f64)> {
    let sys = build_system(run, side, req, parent);
    let t = Instant::now();
    let (rom, real) = reduce(run, &sys, OrderingChoice::Rcm, layered, req, parent, counts)?;
    Ok((sys, rom, real, t.elapsed().as_secs_f64()))
}
