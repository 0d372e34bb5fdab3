//! The `pmor bench` subcommand: declarative performance suites.
//!
//! A suite file ([`pmor_bench::suite`]) names macro scenario runs
//! (reduce + analysis per method), serial-vs-parallel reduction
//! comparisons and `pmor serve` load tests; this module resolves and
//! executes them and emits one standardized `BENCH_<suite>_<tag>.json`
//! per entry
//! — every record carrying the required `method` / `median_seconds` /
//! `dim` fields ([`pmor_bench::report::REQUIRED_METRICS`]) so the CI
//! artifact gate ([`validate_bench_json`]) can reject malformed
//! trajectories.
//!
//! Timing discipline: `warmup` untimed runs, `repeats` timed runs, the
//! **median** is the headline number. Scenario entries time reduction
//! from a cold [`ReductionContext`] each repeat (that *is* the cost the
//! paper amortizes) and the analysis stage separately; compare entries
//! additionally assert that the serial (`threads = 1`) and parallel
//! (≥ 4 workers) reduction paths produce bitwise-identical transfer
//! values before recording the speedup; serve entries assert every
//! served response bitwise identical to an in-process engine and gate
//! on throughput.
//!
//! Scenario entries may carry an **accuracy gate** (`gate_metric` /
//! `gate_max`): the named analysis metric must stay at or under the
//! bound for every method, or the whole suite run fails. This is what
//! lets the `large` tier assert transfer accuracy while it measures
//! wall-clock and fill. Records from reductions that factored anything
//! carry the ordering/fill provenance (`factor_nnz`, `fill_ratio`, and
//! an `ordering` label) so trajectories across machines stay
//! attributable to the ordering policy that produced them.

use crate::exec::{base_record, stamp_provenance, Reduced};
use crate::scenario::Scenario;
use crate::CliError;
use pmor::eval::FullModel;
use pmor::{EvalEngine, ParametricRom, ReductionContext};
use pmor_bench::suite::{BenchSuite, SuiteEntryKind};
use pmor_bench::{timed, validate_bench_json, write_bench_json_in, BenchRecord};
use pmor_circuits::ParametricSystem;
use pmor_num::Complex64;
use pmor_variation::Summary;
use std::path::{Path, PathBuf};

/// Where `pmor bench --suite <name>` looks for shipped suites when the
/// argument is not a path to an existing file.
pub const SUITE_DIR: &str = "scenarios/suites";

/// Outcome of a suite run.
#[derive(Debug)]
pub struct BenchReport {
    /// The emitted `BENCH_*.json` files, one per suite entry.
    pub files: Vec<PathBuf>,
    /// Total records across all files.
    pub records: usize,
}

/// Resolves a `--suite` argument: an existing file path as-is, else
/// `scenarios/suites/<name>.toml` relative to the working directory.
///
/// # Errors
///
/// Fails when neither resolves, listing the shipped suites.
pub fn resolve_suite(arg: &str) -> Result<PathBuf, CliError> {
    let direct = PathBuf::from(arg);
    if direct.is_file() {
        return Ok(direct);
    }
    let shipped = Path::new(SUITE_DIR).join(format!("{arg}.toml"));
    if shipped.is_file() {
        return Ok(shipped);
    }
    let mut known: Vec<String> = std::fs::read_dir(SUITE_DIR)
        .map(|rd| {
            rd.filter_map(|e| {
                let p = e.ok()?.path();
                (p.extension()? == "toml").then(|| p.file_stem()?.to_str().map(String::from))?
            })
            .collect()
        })
        .unwrap_or_default();
    known.sort();
    Err(CliError::Usage(format!(
        "suite {arg:?} is neither a file nor a shipped suite{}",
        if known.is_empty() {
            format!(" (no {SUITE_DIR}/ here — run from the repository root or pass a path)")
        } else {
            format!("; shipped suites: {}", known.join(", "))
        }
    )))
}

/// Runs a suite, writing one `BENCH_<suite>_<tag>.json` per entry into
/// `out_dir`. Every emitted file is self-validated against the required
/// record fields before this returns. `only` restricts the run to the
/// entry with that tag (the `--entry` flag — CI runs the large tier's
/// cheapest entry this way). `serve_addr` (the `--serve-addr` flag)
/// points every `[serve-*]` entry at an externally started daemon
/// instead of the in-process one, overriding any `addr` in the suite.
///
/// # Errors
///
/// Fails on unresolvable scenario files, reduction/analysis failures, a
/// bitwise mismatch (serial-vs-parallel or served-vs-in-process), a
/// violated accuracy or throughput gate, an
/// unknown `only` tag, or unwritable output.
pub fn run_suite(
    suite: &BenchSuite,
    out_dir: &Path,
    only: Option<&str>,
    serve_addr: Option<&str>,
) -> Result<BenchReport, CliError> {
    let entries: Vec<_> = match only {
        None => suite.entries.iter().collect(),
        Some(tag) => {
            let picked: Vec<_> = suite.entries.iter().filter(|e| e.tag == tag).collect();
            if picked.is_empty() {
                let known: Vec<&str> = suite.entries.iter().map(|e| e.tag.as_str()).collect();
                return Err(CliError::Usage(format!(
                    "suite {} has no entry {tag:?}; entries: {}",
                    suite.name,
                    known.join(", ")
                )));
            }
            picked
        }
    };
    outln!(
        "# suite {}: {} (warmup {}, repeats {}, median reported)",
        suite.name,
        suite.description,
        suite.warmup,
        suite.repeats
    );
    std::fs::create_dir_all(out_dir)
        .map_err(|e| CliError::Io(format!("creating {}: {e}", out_dir.display())))?;
    let mut files = Vec::new();
    let mut total = 0;
    for entry in entries {
        outln!("# entry {}", entry.tag);
        let records = match &entry.kind {
            SuiteEntryKind::Scenario { file, gate } => {
                run_scenario_entry(file, gate.as_ref(), suite.warmup, suite.repeats)?
            }
            SuiteEntryKind::Compare { file, method } => {
                run_compare_entry(file, method, suite.warmup, suite.repeats)?
            }
            SuiteEntryKind::Serve {
                file,
                method,
                clients,
                batches,
                batch_points,
                min_evals_per_sec,
                addr,
            } => run_serve_entry(&ServeEntrySpec {
                file,
                method,
                clients: *clients,
                batches: *batches,
                batch_points: *batch_points,
                min_evals_per_sec: *min_evals_per_sec,
                addr: serve_addr.or(addr.as_deref()),
                warmup: suite.warmup,
                repeats: suite.repeats,
            })?,
        };
        let tag = format!("{}_{}", suite.name, entry.tag);
        let path = write_bench_json_in(out_dir, &tag, &records)
            .map_err(|e| CliError::Io(format!("writing BENCH_{tag}.json: {e}")))?;
        let text = std::fs::read_to_string(&path)
            .map_err(|e| CliError::Io(format!("re-reading {}: {e}", path.display())))?;
        validate_bench_json(&text)
            .map_err(|e| CliError::Check(format!("{} failed validation: {e}", path.display())))?;
        outln!("# wrote {} ({} records)", path.display(), records.len());
        total += records.len();
        files.push(path);
    }
    Ok(BenchReport {
        files,
        records: total,
    })
}

/// Loads the scenario a suite entry references.
fn load_entry_scenario(file: &Path) -> Result<(Scenario, ParametricSystem), CliError> {
    let sc = Scenario::load(file)?;
    let sys = sc.system.assemble();
    Ok((sc, sys))
}

/// Macro benchmark: per method, reduction from a cold context (median
/// over repeats) plus the scenario's analysis stage (median over
/// repeats). The ROM cache is deliberately bypassed — `pmor bench`
/// measures the work, not the cache. When the suite entry carries an
/// accuracy gate, the named analysis metric must stay at or under the
/// bound for every method that reports it (and at least one must).
fn run_scenario_entry(
    file: &Path,
    gate: Option<&(String, f64)>,
    warmup: usize,
    repeats: usize,
) -> Result<Vec<BenchRecord>, CliError> {
    let (sc, sys) = load_entry_scenario(file)?;
    let workload = sc.system.workload_label(&sys);
    let full = FullModel::with_ordering(&sys, sc.ordering);
    let engine = EvalEngine::new(sc.analysis.config.threads.unwrap_or(0));
    let analysis = sc
        .analysis
        .kind
        .build(&sc.analysis.config)
        .map_err(|e| CliError::Invalid(crate::analysis_build_error(&e)))?;
    let mut records = Vec::new();
    let mut gate_seen = false;
    for name in &sc.methods {
        let mut rom = None;
        let mut prov = None;
        let mut adaptive = None;
        let mut reduce_times = Vec::with_capacity(repeats);
        for i in 0..warmup + repeats {
            // Cold context each repeat: the measured number is the real
            // multi-shift reduction cost, not a cache replay.
            let mut ctx = ReductionContext::with_ordering(sc.ordering);
            ctx.set_threads(sc.threads);
            let (r, secs, rep) = crate::exec::reduce_timed(name, &sys, &sc.tuning, &mut ctx)?;
            if i >= warmup {
                reduce_times.push(secs);
            }
            prov = ctx.provenance_ready(&sys);
            rom = Some(r);
            adaptive = rep;
        }
        // pmor-lint: allow(panic-in-lib) reason="the repeat loop runs at least once (repeats is validated >= 1), so the final ROM is always present"
        let rom = rom.expect("at least one repeat");
        let mut analysis_times = Vec::with_capacity(repeats);
        let mut metrics = Vec::new();
        for i in 0..warmup + repeats {
            let (rep, secs) = timed(|| analysis.run(&engine, Some(&full), &rom));
            let rep =
                rep.map_err(|e| CliError::Pmor(format!("{name} {}: {e}", analysis.name())))?;
            if i >= warmup {
                analysis_times.push(secs);
            }
            // Analyses are deterministic, so every repeat reports the
            // same values; keep the last.
            metrics = rep.metrics;
        }
        if let Some((metric, max)) = gate {
            if let Some((_, value)) = metrics.iter().find(|(n, _)| n == metric) {
                gate_seen = true;
                if !(value.is_finite() && *value <= *max) {
                    return Err(CliError::Check(format!(
                        "accuracy gate failed for {name} on {}: {metric} = {value:.6e} \
                         exceeds gate_max = {max:.6e}",
                        file.display()
                    )));
                }
                outln!("#   {name}: gate {metric} = {value:.3e} <= {max:.3e}");
            }
        }
        let reduce_median = Summary::of(&reduce_times).median;
        let analysis_median = Summary::of(&analysis_times).median;
        let total = reduce_median + analysis_median;
        outln!(
            "#   {name}: reduce {reduce_median:.3}s + {} {analysis_median:.3}s (median of {repeats})",
            analysis.name()
        );
        let reduced = Reduced {
            name: name.clone(),
            rom,
            seconds: total,
            cached: false,
            adaptive,
        };
        let mut rec = base_record(&reduced, &workload, sys.dim())
            .metric("reduce_median_seconds", reduce_median)
            .metric("analysis_median_seconds", analysis_median)
            .metric("repeats", repeats as f64);
        rec.metrics.extend(metrics);
        records.push(stamp_provenance(rec, prov.as_ref()));
    }
    if let Some((metric, _)) = gate {
        if !gate_seen {
            return Err(CliError::Invalid(format!(
                "gate metric {metric:?} was not reported by any method's analysis in {} \
                 — the gate would silently pass; fix the metric name or the analysis",
                file.display()
            )));
        }
    }
    Ok(records)
}

/// Transfer probe points for the bitwise serial-vs-parallel check: the
/// nominal corner, a uniform shift, and an alternating-sign corner, each
/// at two frequencies.
fn probe_points(num_params: usize) -> Vec<(Vec<f64>, Complex64)> {
    let corners = [
        vec![0.0; num_params],
        vec![0.2; num_params],
        (0..num_params)
            .map(|i| if i % 2 == 0 { 0.15 } else { -0.15 })
            .collect(),
    ];
    let freqs = [1e8, 1e9];
    corners
        .iter()
        .flat_map(|p| {
            freqs
                .iter()
                .map(|f| (p.clone(), Complex64::jw(2.0 * std::f64::consts::PI * f)))
        })
        .collect()
}

/// Asserts two reduced models produce bitwise-identical transfer values
/// at the probe points. `what` names the two legs in the error.
fn assert_transfers_bitwise(
    first: &ParametricRom,
    second: &ParametricRom,
    num_params: usize,
    what: &str,
) -> Result<(), CliError> {
    for (p, s) in probe_points(num_params) {
        let ha = first
            .transfer(&p, s)
            .map_err(|e| CliError::Pmor(format!("{what} transfer: {e}")))?;
        let hb = second
            .transfer(&p, s)
            .map_err(|e| CliError::Pmor(format!("{what} transfer: {e}")))?;
        for r in 0..ha.nrows() {
            for c in 0..ha.ncols() {
                let (a, b) = (ha[(r, c)], hb[(r, c)]);
                if a.re.to_bits() != b.re.to_bits() || a.im.to_bits() != b.im.to_bits() {
                    return Err(CliError::Check(format!(
                        "{what} reductions disagree at p={p:?}, s={s:?}: \
                         {a:?} vs {b:?} — the two paths are not equivalent"
                    )));
                }
            }
        }
    }
    Ok(())
}

/// Serial (`threads = 1`) vs parallel (≥ 4 workers) reduction of the
/// scenario's system with one method: asserts bitwise-identical transfer
/// values at the probe points, then records both medians and the
/// speedup.
fn run_compare_entry(
    file: &Path,
    method: &str,
    warmup: usize,
    repeats: usize,
) -> Result<Vec<BenchRecord>, CliError> {
    let (sc, sys) = load_entry_scenario(file)?;
    let workload = sc.system.workload_label(&sys);
    // At least 4 workers on the parallel leg: on small CI boxes
    // `available_parallelism` can be 1, which would silently degrade the
    // determinism gate to serial-vs-serial. Oversubscription is harmless
    // — results are bitwise identical at any worker count.
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .max(4);
    let mut legs: Vec<Reduced> = Vec::with_capacity(2);
    let mut prov = None;
    for (label, threads) in [("serial", 1usize), ("parallel", workers)] {
        let mut times = Vec::with_capacity(repeats);
        let mut last = None;
        for i in 0..warmup + repeats {
            let mut ctx = ReductionContext::with_ordering(sc.ordering);
            ctx.set_threads(threads);
            let (rom, secs, adaptive) =
                crate::exec::reduce_timed(method, &sys, &sc.tuning, &mut ctx)?;
            if i >= warmup {
                times.push(secs);
            }
            if prov.is_none() {
                prov = ctx.provenance_ready(&sys);
            }
            last = Some((rom, adaptive));
        }
        // pmor-lint: allow(panic-in-lib) reason="the repeat loop runs at least once (repeats is validated >= 1), so the final ROM is always present"
        let (rom, adaptive) = last.expect("at least one repeat");
        legs.push(Reduced {
            name: format!("{method}_{label}"),
            rom,
            seconds: Summary::of(&times).median,
            cached: false,
            adaptive,
        });
    }
    // The determinism gate: parallel factorization must not change one
    // bit of the reduced model's behavior.
    let (serial, parallel) = (&legs[0], &legs[1]);
    assert_transfers_bitwise(
        &serial.rom,
        &parallel.rom,
        sys.num_params(),
        "serial/parallel",
    )?;
    let speedup = serial.seconds / parallel.seconds.max(1e-12);
    outln!(
        "#   {method}: serial {:.3}s, parallel {:.3}s on {workers} threads \
         (x{speedup:.2}), transfer bitwise identical",
        serial.seconds,
        parallel.seconds
    );
    let record = |leg: &Reduced| {
        stamp_provenance(
            base_record(leg, &workload, sys.dim()).metric("repeats", repeats as f64),
            prov.as_ref(),
        )
    };
    Ok(vec![
        record(serial).metric("threads", 1.0),
        record(parallel)
            .metric("threads", workers as f64)
            .metric("speedup", speedup),
    ])
}

/// Everything a `[serve-*]` entry run needs, bundled so the signature
/// stays readable.
struct ServeEntrySpec<'a> {
    file: &'a Path,
    method: &'a str,
    clients: usize,
    batches: usize,
    batch_points: usize,
    min_evals_per_sec: Option<f64>,
    /// External daemon address (CLI `--serve-addr` wins over the suite's
    /// `addr`); `None` hosts an in-process daemon on an ephemeral port.
    addr: Option<&'a str>,
    warmup: usize,
    repeats: usize,
}

/// Deterministic eval batches for the serve load test: parameter values
/// cycle a fixed residue pattern and frequencies sweep four decades, so
/// the workload (and therefore the expected bitwise results) is fully
/// reproducible across runs and machines.
fn serve_batches(
    num_params: usize,
    clients: usize,
    batches: usize,
    batch_points: usize,
) -> Vec<Vec<Vec<pmor::EvalPoint>>> {
    (0..clients)
        .map(|c| {
            (0..batches)
                .map(|b| {
                    (0..batch_points)
                        .map(|i| {
                            let params: Vec<f64> = (0..num_params)
                                .map(|k| {
                                    0.15 * ((((c * 31 + b * 7 + i * 13 + k * 5) % 11) as f64) / 5.0
                                        - 1.0)
                                })
                                .collect();
                            let f = 1e8 * (10f64).powf(((c + b + i) % 20) as f64 / 5.0);
                            pmor::EvalPoint::new(
                                params,
                                Complex64::jw(2.0 * std::f64::consts::PI * f),
                            )
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// The `[serve-*]` load test: reduce the scenario's system once, host
/// the ROM in a `pmor serve` daemon, hammer it from `clients` threads
/// issuing `batches` eval requests of `batch_points` points each, and
/// assert **every** served response bitwise identical to a serial
/// in-process [`EvalEngine`] over the same points (the engine's own
/// 1-vs-N invariant makes the serial leg the ground truth). The
/// recorded throughput is the median over the suite's repeats; the
/// entry fails when it stays under `min_evals_per_sec`.
fn run_serve_entry(spec: &ServeEntrySpec<'_>) -> Result<Vec<BenchRecord>, CliError> {
    use pmor_serve::{Client, ServeAddr, ServeConfig, Server};

    let (sc, sys) = load_entry_scenario(spec.file)?;
    let workload = sc.system.workload_label(&sys);
    let mut ctx = ReductionContext::with_ordering(sc.ordering);
    ctx.set_threads(sc.threads);
    let (rom, _, _) = crate::exec::reduce_timed(spec.method, &sys, &sc.tuning, &mut ctx)?;
    let fingerprint = pmor::rom::fingerprint(&rom);

    let all_batches = serve_batches(
        rom.num_params(),
        spec.clients,
        spec.batches,
        spec.batch_points,
    );
    let serial = EvalEngine::serial();
    let expected: Vec<Vec<Vec<pmor_num::Matrix<Complex64>>>> = all_batches
        .iter()
        .map(|per_client| {
            per_client
                .iter()
                .map(|pts| {
                    serial
                        .transfer_batch(&rom, pts)
                        .map_err(|e| CliError::Pmor(format!("in-process reference eval: {e}")))
                })
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<Vec<_>, _>>()?;

    // In-process daemon on an ephemeral port unless an external address
    // was given; either way the ROM is made resident before timing.
    let (target, handle, mode) = match spec.addr {
        Some(text) => {
            let addr = ServeAddr::parse(text)
                .map_err(|e| CliError::Usage(format!("serve address {text:?}: {e}")))?;
            let mut loader = Client::connect(&addr)
                .map_err(|e| CliError::Pmor(format!("connecting to daemon at {addr}: {e}")))?;
            let stamp = loader
                .load_rom(&rom)
                .map_err(|e| CliError::Pmor(format!("uploading rom to {addr}: {e}")))?;
            if stamp.fingerprint != fingerprint {
                return Err(CliError::Pmor(format!(
                    "daemon at {addr} stamped the rom {:016x}, expected {fingerprint:016x}",
                    stamp.fingerprint
                )));
            }
            (addr, None, "external")
        }
        None => {
            let handle = Server::start(ServeConfig::default())
                .map_err(|e| CliError::Pmor(format!("starting in-process daemon: {e}")))?;
            handle.preload(&rom);
            (handle.addr().clone(), Some(handle), "in-process")
        }
    };

    let mut times = Vec::with_capacity(spec.repeats);
    for i in 0..spec.warmup + spec.repeats {
        let (outcome, secs) = timed(|| {
            std::thread::scope(|scope| {
                let mut joins = Vec::with_capacity(spec.clients);
                for (c, (my_batches, my_expected)) in all_batches.iter().zip(&expected).enumerate()
                {
                    let target = &target;
                    joins.push(scope.spawn(move || -> Result<(), String> {
                        let mut client = Client::connect(target)
                            .map_err(|e| format!("client {c}: connect: {e}"))?;
                        for (b, (pts, want)) in my_batches.iter().zip(my_expected).enumerate() {
                            // Client::roundtrip already asserts the
                            // echoed request id — stable per-request
                            // ordering is part of every reply here.
                            let reply = client
                                .request_eval(fingerprint, pts)
                                .map_err(|e| format!("client {c} batch {b}: {e}"))?;
                            let p = &reply.provenance;
                            if p.rom_fingerprint != fingerprint
                                || p.eval_points as usize != pts.len()
                            {
                                return Err(format!(
                                    "client {c} batch {b}: provenance mismatch \
                                     (rom {:016x}, {} points)",
                                    p.rom_fingerprint, p.eval_points
                                ));
                            }
                            let got = reply.matrices();
                            if got.len() != want.len() {
                                return Err(format!(
                                    "client {c} batch {b}: {} matrices, expected {}",
                                    got.len(),
                                    want.len()
                                ));
                            }
                            for (a, g) in want.iter().zip(&got) {
                                for r in 0..a.nrows() {
                                    for col in 0..a.ncols() {
                                        let (x, y) = (a[(r, col)], g[(r, col)]);
                                        if x.re.to_bits() != y.re.to_bits()
                                            || x.im.to_bits() != y.im.to_bits()
                                        {
                                            return Err(format!(
                                                "client {c} batch {b}: served value \
                                                 differs bitwise from in-process \
                                                 ({x:?} vs {y:?})"
                                            ));
                                        }
                                    }
                                }
                            }
                        }
                        Ok(())
                    }));
                }
                let mut failures = Vec::new();
                for join in joins {
                    match join.join() {
                        Ok(Ok(())) => {}
                        Ok(Err(msg)) => failures.push(msg),
                        Err(_) => failures.push("client thread panicked".to_string()),
                    }
                }
                failures
            })
        });
        if let Some(first) = outcome.first() {
            return Err(CliError::Pmor(format!(
                "serve load test failed ({} clients): {first}",
                outcome.len()
            )));
        }
        if i >= spec.warmup {
            times.push(secs);
        }
    }
    if let Some(handle) = handle {
        handle
            .shutdown_and_join()
            .map_err(|e| CliError::Pmor(format!("in-process daemon shutdown: {e}")))?;
    }

    let median_s = Summary::of(&times).median;
    let total_evals = (spec.clients * spec.batches * spec.batch_points) as f64;
    let evals_per_sec = total_evals / median_s.max(1e-12);
    outln!(
        "#   serve_{}: {} clients x {} batches x {} points -> {evals_per_sec:.0} evals/s \
         (median {median_s:.4}s of {}, {mode} daemon, bitwise identical)",
        spec.method,
        spec.clients,
        spec.batches,
        spec.batch_points,
        spec.repeats
    );
    if let Some(min) = spec.min_evals_per_sec {
        if !(evals_per_sec >= min) {
            return Err(CliError::Check(format!(
                "serve throughput gate failed: {evals_per_sec:.0} evals/s under the \
                 required {min:.0} ({} clients, {mode} daemon)",
                spec.clients
            )));
        }
    }
    let transport = match &target {
        ServeAddr::Tcp(_) => "tcp",
        ServeAddr::Unix(_) => "unix",
    };
    Ok(vec![BenchRecord::new(
        format!("serve_{}", spec.method),
        workload,
        median_s,
    )
    .metric("median_seconds", median_s)
    .metric("dim", sys.dim() as f64)
    .metric("size", rom.size() as f64)
    .metric("evals_per_second", evals_per_sec)
    .metric("clients", spec.clients as f64)
    .metric("batches", spec.batches as f64)
    .metric("batch_points", spec.batch_points as f64)
    .metric("repeats", spec.repeats as f64)
    .label("transport", transport)
    .label("mode", mode)])
}

/// `pmor bench --check`: validates already-emitted record files.
///
/// # Errors
///
/// Fails when any file is unreadable or missing required fields. Every
/// file is checked before the verdict: the error names *all* invalid
/// files, not just the first, so one broken record cannot hide the rest
/// of a directory's failures.
pub fn check_files(paths: &[String]) -> Result<(), CliError> {
    if paths.is_empty() {
        return Err(CliError::Usage("--check needs at least one file".into()));
    }
    let mut failures = Vec::new();
    for path in paths {
        let verdict = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {path}: {e}"))
            .and_then(|text| {
                validate_bench_json(&text).map_err(|e| format!("{path} failed validation: {e}"))
            });
        match verdict {
            Ok(()) => outln!("# {path}: ok"),
            Err(msg) => {
                outln!("# {path}: INVALID");
                failures.push(msg);
            }
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(CliError::Check(format!(
            "{} of {} files failed validation:\n  {}",
            failures.len(),
            paths.len(),
            failures.join("\n  ")
        )))
    }
}
