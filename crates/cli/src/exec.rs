//! Scenario execution: reduce, analyze, report, persist.
//!
//! One [`run_scenario`] call is the CLI's whole pipeline: assemble the
//! workload, reduce it with every selected method over **one shared
//! [`ReductionContext`]** (so the paper's one-time `G0` factorization
//! spans the CLI boundary; the context's worker threads factor
//! independent expansion points concurrently, bitwise-identically to the
//! serial path), run the scenario's registered analysis — built by
//! [`pmor_variation::AnalysisKind::build`] once and executed through the
//! [`pmor::TransferModel`] trait on a batched [`pmor::EvalEngine`], with
//! independent method×analysis jobs sharing it concurrently — emit
//! machine-readable `BENCH_<tag>.json` records (stamped with the
//! analysis's provenance metrics), and optionally persist every reduced
//! model with [`pmor::rom::save`] for later `pmor eval` / `pmor mc` runs.
//!
//! Two caches cut repeated work: the in-process factor cache above, and
//! the on-disk content-addressed **ROM cache** ([`crate::cache`]) that
//! lets a repeated `pmor run` / `pmor bench` skip re-reduction entirely
//! when the (system, method, tuning) triple is unchanged.
//!
//! There is deliberately **no** per-analysis code here: the analysis
//! layer is registry-dispatched, so a new analysis registered in
//! `pmor_variation::analysis` is immediately runnable from scenarios
//! without touching this module.

use crate::cache::RomCache;
use crate::scenario::Scenario;
use crate::CliError;
use pmor::eval::FullModel;
use pmor::{EvalEngine, ParametricRom, ReducerKind, ReductionContext};
use pmor_bench::{format_csv, format_grid, timed, write_bench_json_in, BenchRecord};
use pmor_variation::{Analysis, AnalysisReport};
use std::fmt::Write as _;
use std::path::PathBuf;

/// What a scenario run produced.
#[derive(Debug)]
pub struct ExecReport {
    /// Scenario name.
    pub scenario: String,
    /// One record per (method × metric group), as written to the bench
    /// JSON file.
    pub records: Vec<BenchRecord>,
    /// Path of the emitted `BENCH_<tag>.json`.
    pub bench_path: PathBuf,
    /// Paths of persisted ROMs (empty unless `save_roms` / `pmor
    /// reduce`).
    pub rom_paths: Vec<PathBuf>,
    /// Real sparse factorizations performed across every method (the
    /// paper's headline count; 1 when all methods shared the nominal
    /// `G0`, 0 when every method came out of the ROM cache).
    pub real_factorizations: usize,
    /// Factor requests served from the shared cache.
    pub cache_hits: usize,
    /// Methods served from the on-disk ROM cache (no reduction ran).
    pub rom_cache_hits: usize,
}

/// One reduced method inside a run.
pub(crate) struct Reduced {
    pub(crate) name: String,
    pub(crate) rom: ParametricRom,
    pub(crate) seconds: f64,
    pub(crate) cached: bool,
    /// Convergence provenance when the method ran under the adaptive
    /// driver (`None` for fixed-order reductions and ROM-cache hits).
    pub(crate) adaptive: Option<pmor::AdaptiveReport>,
}

/// Executes a scenario end-to-end. See the module docs for the stages.
///
/// # Errors
///
/// Fails when the workload cannot be reduced or analyzed, or when an
/// output file cannot be written.
pub fn run_scenario(sc: &Scenario) -> Result<ExecReport, CliError> {
    run(sc, sc.output.save_roms, true)
}

/// Reduces and persists every method's ROM, skipping the analysis stage
/// — the `pmor reduce` subcommand. ROMs are always saved, regardless of
/// the scenario's `save_roms` flag.
///
/// # Errors
///
/// See [`run_scenario`].
pub fn reduce_scenario(sc: &Scenario) -> Result<ExecReport, CliError> {
    run(sc, true, false)
}

/// Registry lookup + tuned construction + timed reduction — the one
/// reduction call site shared by scenario execution and the `pmor bench`
/// entry runners. Under `adaptive = true` the error-controlled driver
/// runs instead of the fixed-order reducer and the third element carries
/// its convergence report (estimate, final order, expansion points).
pub(crate) fn reduce_timed(
    name: &str,
    sys: &pmor_circuits::ParametricSystem,
    tuning: &pmor::ReducerTuning,
    ctx: &mut ReductionContext,
) -> Result<(ParametricRom, f64, Option<pmor::AdaptiveReport>), CliError> {
    let kind = ReducerKind::from_name(name)
        .ok_or_else(|| CliError::Invalid(format!("unregistered method {name:?}")))?;
    if tuning.adaptive == Some(true) {
        // Same driver `ReducerKind::build_tuned` wraps; calling it
        // directly keeps the report instead of discarding it.
        let driver = pmor::AdaptiveDriver::from_tuning(tuning);
        let (out, seconds) = timed(|| driver.reduce_with_report(sys, ctx));
        let (rom, report) =
            out.map_err(|e| CliError::Pmor(format!("reducing with {name}: {e}")))?;
        return Ok((rom, seconds, Some(report)));
    }
    let reducer = kind.build_tuned(sys, tuning);
    let (rom, seconds) = timed(|| reducer.reduce(sys, ctx));
    let rom = rom.map_err(|e| CliError::Pmor(format!("reducing with {name}: {e}")))?;
    Ok((rom, seconds, None))
}

fn run(sc: &Scenario, save_roms: bool, analyze: bool) -> Result<ExecReport, CliError> {
    let sys = sc.system.assemble();
    let workload = sc.system.workload_label(&sys);
    outln!("# scenario {}: {}", sc.name, sc.description);
    outln!(
        "# system: {workload}, {} parameters, {} inputs, {} outputs",
        sys.num_params(),
        sys.num_inputs(),
        sys.num_outputs()
    );

    // --- Reduce every method over one shared context -----------------------
    // The ROM cache short-circuits whole reductions; the factor cache
    // inside the context shares factorizations between the methods that
    // do run.
    let rom_cache = sc
        .output
        .rom_cache
        .then(|| RomCache::new(sc.output.dir.join(".pmor_cache")));
    let fingerprint = pmor::system_fingerprint(&sys);
    let mut ctx = ReductionContext::with_ordering(sc.ordering);
    ctx.set_threads(sc.threads);
    let mut reduced = Vec::with_capacity(sc.methods.len());
    for name in &sc.methods {
        // Unregistered names fail loudly even when a stale cache entry
        // exists under them.
        ReducerKind::from_name(name)
            .ok_or_else(|| CliError::Invalid(format!("unregistered method {name:?}")))?;
        let key = RomCache::key(fingerprint, name, &sc.tuning);
        if let Some(cache) = &rom_cache {
            let (hit, seconds) = timed(|| cache.load(key, name));
            if let Some(rom) = hit {
                outln!(
                    "# {name}: {} states loaded from ROM cache in {seconds:.3}s (reduction skipped)",
                    rom.size()
                );
                reduced.push(Reduced {
                    name: name.clone(),
                    rom,
                    seconds,
                    cached: true,
                    adaptive: None,
                });
                continue;
            }
        }
        // Construction stays in the registry: unset tuning fields fall
        // back to exactly the registry's defaults.
        let (rom, seconds, adaptive) = reduce_timed(name, &sys, &sc.tuning, &mut ctx)?;
        outln!("# {name}: {} states in {seconds:.3}s", rom.size());
        if let Some(rep) = &adaptive {
            outln!(
                "# {name}: adaptive {} at order {} with {} expansion points \
                 (estimated error {:.3e}, tolerance {:.3e})",
                if rep.converged {
                    "converged"
                } else {
                    "hit its budget"
                },
                rep.final_order,
                rep.expansion_points_used,
                rep.estimated_error,
                pmor::AdaptiveDriver::from_tuning(&sc.tuning)
                    .options
                    .tolerance,
            );
        }
        if let Some(cache) = &rom_cache {
            let path = cache
                .store(key, name, &rom)
                .map_err(|e| CliError::Io(format!("storing cached ROM: {e}")))?;
            outln!("# {name}: cached ROM at {}", path.display());
        }
        reduced.push(Reduced {
            name: name.clone(),
            rom,
            seconds,
            cached: false,
            adaptive,
        });
    }
    let rom_cache_hits = reduced.iter().filter(|m| m.cached).count();

    // --- Analysis: registry dispatch over the TransferModel trait ----------
    // Method×analysis jobs are independent, so they run concurrently on
    // up to `[reduce] threads` workers (0 = available parallelism);
    // output is buffered per method and printed in method order, and
    // every job is deterministic, so concurrency never changes a byte.
    let mut records = Vec::new();
    if analyze {
        // One analysis, shared by every method's job: it is plain
        // configuration data.
        let analysis = sc
            .analysis
            .kind
            .build(&sc.analysis.config)
            .map_err(|e| CliError::Invalid(crate::analysis_build_error(&e)))?;
        let analysis = analysis.as_ref();
        // The full model factors under the same ordering policy the
        // reducers use, so large-scenario reference sweeps see the same
        // fill reduction.
        let full = FullModel::with_ordering(&sys, sc.ordering);
        let dim = sys.dim();
        // Worker count honors the `[reduce] threads` cap (`0` =
        // available parallelism, matching the knob's meaning everywhere
        // else).
        let jobs = EvalEngine::new(sc.threads);
        let workers = jobs.worker_count(reduced.len());
        // An auto engine (`[analysis] threads` unset or 0) divides the
        // machine across the concurrent jobs instead of multiplying with
        // them (jobs × all-cores would oversubscribe); an explicit value
        // is honored per job. Engine worker count never affects results,
        // only wall-clock (see pmor::engine).
        let engine = EvalEngine::new(match sc.analysis.config.threads {
            None | Some(0) => {
                let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
                (avail / workers).max(1)
            }
            Some(n) => n,
        });
        // The jobs run on an engine of their own: contiguous runs of the
        // method list, results back in method order. Each job's failure
        // travels in its own slot, so the runner itself cannot fail.
        let outputs = jobs
            .map(&reduced, |m, _ws| {
                Ok(analyze_one(analysis, &engine, &full, m, &workload, dim))
            })
            .map_err(|e| CliError::Pmor(e.to_string()))?;
        for out in outputs {
            let (text, rec) = out?;
            outln!("{}", text.strip_suffix('\n').unwrap_or(&text));
            records.push(rec);
        }
        // --- Judge: pick the winning method per system ------------------
        // Method-comparison scenarios no longer need a human to read the
        // error matrix: when at least two methods report a comparable
        // accuracy metric, the smallest error wins (ties break toward
        // the smaller model, then method order) and every record is
        // stamped with a `judge_winner` label.
        if let Some((winner, metric, err)) = judge(&records) {
            let size = records
                .iter()
                .find(|r| r.method == winner)
                .and_then(|r| lookup(r, "size"))
                .unwrap_or(f64::NAN);
            outln!("# judge: {winner} wins on {workload} ({metric} = {err:.3e} at size {size})");
            records = records
                .into_iter()
                .map(|r| r.label("judge_winner", winner.clone()))
                .collect();
        }
    } else {
        for m in &reduced {
            records.push(base_record(m, &workload, sys.dim()));
        }
    }
    // Factorization provenance (ordering policy + fill) when the context
    // actually factored something this run; omitted when every method
    // came out of the ROM cache and no nominal factorization exists.
    // `provenance_ready` never factors or bumps counters, so the counts
    // printed below stay exactly the reduction's own.
    let prov = ctx.provenance_ready(&sys);
    if let Some(prov) = &prov {
        let (factor, entries) = if prov.symmetric {
            ("L·D·Lᵀ", "entries of one triangle")
        } else {
            ("LU", "matrix entries")
        };
        outln!(
            "# ordering {}: {factor} factor nnz {} ({:.2}x fill over {} {entries})",
            prov.ordering,
            prov.factor_nnz,
            prov.fill_ratio(),
            prov.matrix_nnz
        );
    }
    let records: Vec<BenchRecord> = records
        .into_iter()
        .map(|r| stamp_provenance(r, prov.as_ref()))
        .collect();
    outln!(
        "# sparse factorizations across all methods: {} real, {} cache hits",
        ctx.real_factorizations(),
        ctx.cache_hits()
    );

    // --- Sinks -------------------------------------------------------------
    std::fs::create_dir_all(&sc.output.dir)
        .map_err(|e| CliError::Io(format!("creating {}: {e}", sc.output.dir.display())))?;
    let bench_path = write_bench_json_in(&sc.output.dir, &sc.output.bench_tag, &records)
        .map_err(|e| CliError::Io(format!("writing bench record: {e}")))?;
    outln!("# wrote {}", bench_path.display());
    let mut rom_paths = Vec::new();
    if save_roms {
        for m in &reduced {
            let path = sc.rom_path(&m.name);
            pmor::rom::save(&m.rom, &path).map_err(|e| CliError::Pmor(e.to_string()))?;
            outln!("# saved ROM {}", path.display());
            rom_paths.push(path);
        }
    }
    Ok(ExecReport {
        scenario: sc.name.clone(),
        records,
        bench_path,
        rom_paths,
        real_factorizations: ctx.real_factorizations(),
        cache_hits: ctx.cache_hits(),
        rom_cache_hits,
    })
}

/// The per-method record shared by the analyze and reduce-only paths
/// and the `pmor bench` entry runners. `wall_seconds` is `m.seconds`,
/// duplicated as the standardized `median_seconds` metric: a single
/// `pmor run` is one repeat, so the median is the observation itself
/// (the reduction or cache-load time), while [`crate::bench_cmd`] passes
/// its true median over repeats.
pub(crate) fn base_record(m: &Reduced, workload: &str, dim: usize) -> BenchRecord {
    let mut rec = BenchRecord::new(m.name.clone(), workload, m.seconds)
        .metric("median_seconds", m.seconds)
        .metric("dim", dim as f64)
        .metric("size", m.rom.size() as f64)
        .metric("rom_cached", if m.cached { 1.0 } else { 0.0 });
    // Adaptive provenance travels as the coherent metric set
    // `pmor_bench::report::ADAPTIVE_METRICS` validates.
    if let Some(rep) = &m.adaptive {
        rec = rec
            .metric("estimated_error", rep.estimated_error)
            .metric("final_order", rep.final_order as f64)
            .metric("expansion_points_used", rep.expansion_points_used as f64)
            .metric("adaptive_converged", if rep.converged { 1.0 } else { 0.0 });
    }
    rec
}

/// Stamps the ordering/fill provenance onto a record when the context
/// actually factored something (`None` means nothing real was factored,
/// e.g. a ROM-cache replay — then the fill metrics are honestly absent).
pub(crate) fn stamp_provenance(
    rec: BenchRecord,
    prov: Option<&pmor::FactorProvenance>,
) -> BenchRecord {
    match prov {
        None => rec,
        Some(p) => rec
            .metric("factor_nnz", p.factor_nnz as f64)
            .metric("fill_ratio", p.fill_ratio())
            .label("ordering", p.ordering),
    }
}

/// Runs one method's analysis, returning its buffered stdout block and
/// its bench record. Safe to call from concurrent workers: everything it
/// touches is shared immutably.
fn analyze_one(
    analysis: &dyn Analysis,
    engine: &EvalEngine,
    full: &FullModel<'_>,
    m: &Reduced,
    workload: &str,
    dim: usize,
) -> Result<(String, BenchRecord), CliError> {
    let report = analysis
        .run(engine, Some(full), &m.rom)
        .map_err(|e| CliError::Pmor(format!("{} {}: {e}", m.name, analysis.name())))?;
    let mut rec = base_record(m, workload, dim);
    rec.metrics.extend(report.metrics.iter().cloned());
    Ok((report_text(&report, Some(&m.name)), rec))
}

/// A report as text: its CSV block, grid, summary lines and provenance,
/// the comment lines labelled with `method` when one is given.
pub fn report_text(report: &AnalysisReport, method: Option<&str>) -> String {
    let label = method.map_or_else(String::new, |m| format!("{m}: "));
    let mut text = String::new();
    if let Some(csv) = &report.csv {
        let series: Vec<(&str, Vec<f64>)> = csv
            .series
            .iter()
            .map(|(l, values)| {
                // The analysis labels the reduced side generically;
                // the CLI knows which method it is.
                let l = match method {
                    Some(m) if l == "rom" => m,
                    _ => l.as_str(),
                };
                (l, values.clone())
            })
            .collect();
        text.push_str(&format_csv(&csv.x_label, &csv.x, &series));
    }
    if let Some(grid) = &report.grid {
        text.push_str(&format_grid(
            &format!("{label}{}", grid.title),
            "p_a \\ p_b",
            &grid.row_values,
            &grid.col_values,
            &grid.values,
        ));
    }
    for line in &report.lines {
        let _ = writeln!(text, "# {label}{line}");
    }
    let _ = writeln!(text, "# {label}{}", report.provenance);
    text
}

/// A record's first metric named `name`.
fn lookup(rec: &BenchRecord, name: &str) -> Option<f64> {
    rec.metrics.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
}

/// Accuracy metrics a judge can rank methods by, in preference order:
/// the Monte-Carlo worst-case transfer error, then the deterministic
/// frequency-sweep error against the full model.
const JUDGE_METRICS: [&str; 2] = ["worst_rel_transfer_err", "max_rel_err"];

/// Picks the winning method of a multi-method run: the first
/// [`JUDGE_METRICS`] entry at least two records report, ranked
/// ascending (ties break toward the smaller reduced model, then record
/// order, so the verdict is deterministic). Returns `(method, metric,
/// error)`; `None` when fewer than two records are comparable.
fn judge(records: &[BenchRecord]) -> Option<(String, &'static str, f64)> {
    let metric = JUDGE_METRICS.into_iter().find(|m| {
        records
            .iter()
            .filter(|r| lookup(r, m).is_some_and(f64::is_finite))
            .count()
            >= 2
    })?;
    let mut best: Option<(&BenchRecord, f64)> = None;
    for rec in records {
        let Some(err) = lookup(rec, metric).filter(|e| e.is_finite()) else {
            continue;
        };
        let better = match &best {
            None => true,
            Some((b, berr)) => {
                err < *berr
                    || (err == *berr
                        && lookup(rec, "size").unwrap_or(f64::INFINITY)
                            < lookup(b, "size").unwrap_or(f64::INFINITY))
            }
        };
        if better {
            best = Some((rec, err));
        }
    }
    best.map(|(rec, err)| (rec.method.clone(), metric, err))
}
