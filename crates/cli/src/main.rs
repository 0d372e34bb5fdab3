//! The `pmor` binary: scenario-driven reduction, analysis, and ROM
//! persistence. `pmor help` prints the command reference; the library
//! crate (`pmor_cli`) holds all the logic so it stays testable.

use pmor_bench::suite::{check_runs, BenchSuite, SuiteEntryKind};
use pmor_cli::bench_cmd::{check_files, resolve_suite, run_suite, SUITE_DIR};
use pmor_cli::{errln, outln, reduce_scenario, run_scenario, CliError, Scenario};
use pmor_num::Complex64;
use pmor_variation::dist::ParameterDistribution;
use pmor_variation::stats::Summary;
use pmor_variation::sweep::logspace;
use pmor_variation::MonteCarlo;

const USAGE: &str = "\
pmor — parametric model order reduction, scenario-driven

USAGE:
  pmor run <scenario.toml>      reduce + analyze + write BENCH_<tag>.json
                                (+ ROM files when [output] save_roms = true)
  pmor reduce <scenario.toml>   reduce only; persist every method's ROM
  pmor eval <model.rom> [--params P1,P2,…] [--fmin HZ] [--fmax HZ] [--points N]
                                frequency sweep of a persisted ROM (CSV)
  pmor mc <model.rom> [--instances N] [--sigma S] [--seed N] [--min-pole RAD_S]
                                Monte-Carlo dominant-pole statistics (and
                                yield when --min-pole is given) on a ROM
  pmor info <model.rom>         describe a persisted ROM
  pmor bench --suite <name|path> [--entry TAG] [--repeats N] [--warmup N]
             [--out DIR] [--serve-addr ADDR]
                                run a benchmark suite (or just one entry);
                                one standardized BENCH_<suite>_<entry>.json
                                per entry (--serve-addr points [serve-*]
                                entries at an already-running daemon)
  pmor bench --check <file>...  validate BENCH_*.json required fields
  pmor serve --addr <host:port|unix:PATH> [--roms DIR] [--lru N]
             [--max-frame BYTES] [--max-batch N] [--timeout-ms MS]
             [--threads N]     long-running batched evaluation daemon
                                holding hot ROMs in an in-memory LRU
  pmor serve --ping ADDR        health-check a running daemon
  pmor serve --shutdown ADDR    ask a running daemon to drain and exit
  pmor lint [--check] [--json] [--out DIR] [root]
                                determinism & numeric-safety static analysis
                                over crates/*/src (--check: findings and
                                unused allows are fatal; --json: write
                                LINT_workspace.json)
  pmor lint --validate <file>...  validate LINT_*.json report files
  pmor vet [root]               parse-validate every scenario in scenarios/
                                and every suite in scenarios/suites/ (incl.
                                suite→scenario references and SPICE deck
                                paths) without executing anything
  pmor list [--benches|--lints] registered generators, methods, analyses
                                (--benches: shipped benchmark suites;
                                 --lints: registered lint rules)
  pmor help                     this text

Ready-made scenarios live in scenarios/, benchmark suites in
scenarios/suites/; both formats are documented in docs/GUIDE.md.";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => {}
        Err(CliError::Usage(msg)) => {
            errln!("error: {msg}\n\n{USAGE}");
            std::process::exit(2);
        }
        Err(e) => {
            errln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn dispatch(args: &[String]) -> Result<(), CliError> {
    let Some(cmd) = args.first() else {
        outln!("{USAGE}");
        return Ok(());
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "run" => {
            let sc = load_scenario(rest)?;
            run_scenario(&sc)?;
            Ok(())
        }
        "reduce" => {
            let sc = load_scenario(rest)?;
            reduce_scenario(&sc)?;
            Ok(())
        }
        "eval" => cmd_eval(rest),
        "mc" => cmd_mc(rest),
        "info" => cmd_info(rest),
        "bench" => cmd_bench(rest),
        "serve" => pmor_cli::serve_cmd::cmd_serve(rest),
        "lint" => cmd_lint(rest),
        "vet" => cmd_vet(rest),
        "list" => cmd_list(rest),
        "help" | "--help" | "-h" => {
            outln!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown subcommand {other:?}"))),
    }
}

fn load_scenario(args: &[String]) -> Result<Scenario, CliError> {
    match args {
        [path] => Scenario::load(path),
        _ => Err(CliError::Usage(
            "expected exactly one scenario file path".into(),
        )),
    }
}

/// Parses `--flag value` pairs after the positional ROM path.
fn rom_and_flags(args: &[String]) -> Result<(String, Vec<(String, String)>), CliError> {
    let Some((path, rest)) = args.split_first() else {
        return Err(CliError::Usage("expected a ROM file path".into()));
    };
    if path.starts_with("--") {
        return Err(CliError::Usage("the ROM file path must come first".into()));
    }
    let mut flags = Vec::new();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(CliError::Usage(format!("unexpected argument {flag:?}")));
        };
        let Some(value) = it.next() else {
            return Err(CliError::Usage(format!("--{name} needs a value")));
        };
        flags.push((name.to_string(), value.clone()));
    }
    Ok((path.clone(), flags))
}

fn flag_f64(flags: &[(String, String)], name: &str, default: f64) -> Result<f64, CliError> {
    match flags.iter().find(|(n, _)| n == name) {
        None => Ok(default),
        Some((_, v)) => v
            .parse::<f64>()
            .ok()
            .filter(|x| x.is_finite())
            .ok_or_else(|| CliError::Usage(format!("--{name}: invalid finite number {v:?}"))),
    }
}

fn flag_usize(flags: &[(String, String)], name: &str, default: usize) -> Result<usize, CliError> {
    match flags.iter().find(|(n, _)| n == name) {
        None => Ok(default),
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| CliError::Usage(format!("--{name}: invalid integer {v:?}"))),
    }
}

fn check_flags(flags: &[(String, String)], known: &[&str]) -> Result<(), CliError> {
    for (name, _) in flags {
        if !known.contains(&name.as_str()) {
            return Err(CliError::Usage(format!("unknown flag --{name}")));
        }
    }
    Ok(())
}

/// Reads a `.rom` file. One in another format version is refused with
/// its own message: the file, its version and how to rebuild it.
fn load_rom(path: &str) -> Result<pmor::ParametricRom, CliError> {
    use pmor::rom::{format_version, from_bytes, ROM_FORMAT_VERSION};
    let bytes = std::fs::read(path).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
    match format_version(&bytes) {
        Some(version) if version != ROM_FORMAT_VERSION => Err(CliError::Invalid(format!(
            "{path} is a .rom file of format version {version}, which this build \
             cannot read (it reads version {ROM_FORMAT_VERSION}); rebuild it with \
             `pmor reduce` on its scenario"
        ))),
        _ => from_bytes(&bytes).map_err(|e| CliError::Pmor(format!("{path}: {e}"))),
    }
}

fn cmd_eval(args: &[String]) -> Result<(), CliError> {
    let (path, flags) = rom_and_flags(args)?;
    check_flags(&flags, &["params", "fmin", "fmax", "points"])?;
    let rom = load_rom(&path)?;
    let p = match flags.iter().find(|(n, _)| n == "params") {
        None => vec![0.0; rom.num_params()],
        Some((_, v)) => {
            let p: Result<Vec<f64>, _> = v.split(',').map(|t| t.trim().parse::<f64>()).collect();
            let p = p
                .ok()
                .filter(|p| p.iter().all(|x| x.is_finite()))
                .ok_or_else(|| {
                    CliError::Usage(format!("--params: invalid finite number list {v:?}"))
                })?;
            if p.len() != rom.num_params() {
                return Err(CliError::Usage(format!(
                    "--params: ROM has {} parameters, got {}",
                    rom.num_params(),
                    p.len()
                )));
            }
            p
        }
    };
    let fmin = flag_f64(&flags, "fmin", 1e7)?;
    let fmax = flag_f64(&flags, "fmax", 1e10)?;
    let points = flag_usize(&flags, "points", 31)?;
    if !(fmin > 0.0 && fmax > fmin && points >= 2) {
        return Err(CliError::Usage(
            "need 0 < --fmin < --fmax and --points >= 2".into(),
        ));
    }
    outln!(
        "# {} — {} states, {} params, evaluated at p = {p:?}",
        path,
        rom.size(),
        rom.num_params()
    );
    outln!("freq_hz,re_h11,im_h11,abs_h11");
    for f in logspace(fmin, fmax, points) {
        let s = Complex64::jw(2.0 * std::f64::consts::PI * f);
        let h = rom
            .transfer(&p, s)
            .map_err(|e| CliError::Pmor(format!("transfer at {f:.3e} Hz: {e}")))?;
        let h11 = h[(0, 0)];
        outln!("{f:.6e},{:.6e},{:.6e},{:.6e}", h11.re, h11.im, h11.abs());
    }
    Ok(())
}

fn cmd_mc(args: &[String]) -> Result<(), CliError> {
    let (path, flags) = rom_and_flags(args)?;
    check_flags(&flags, &["instances", "sigma", "seed", "min-pole"])?;
    let rom = load_rom(&path)?;
    let instances = flag_usize(&flags, "instances", 1000)?.max(1);
    let sigma = flag_f64(&flags, "sigma", 0.1)?;
    if !(sigma > 0.0 && sigma.is_finite()) {
        return Err(CliError::Usage("--sigma must be positive".into()));
    }
    let seed = flag_usize(&flags, "seed", 0x3C0)? as u64;
    let mc = MonteCarlo {
        distributions: vec![ParameterDistribution::Normal3Sigma { sigma }; rom.num_params()],
        instances,
        seed,
    };
    // Reduced-model-only Monte Carlo: this is the flow the paper sells —
    // thousands of instances evaluated on the ROM alone, no full model in
    // sight.
    let mut pole_mags = Vec::with_capacity(instances);
    for p in mc.sample_points() {
        let poles = rom
            .dominant_poles(&p, 1)
            .map_err(|e| CliError::Pmor(format!("poles at {p:?}: {e}")))?;
        let Some(first) = poles.first() else {
            return Err(CliError::Pmor(format!("no finite poles at {p:?}")));
        };
        pole_mags.push(first.abs());
    }
    let s = Summary::of(&pole_mags);
    outln!(
        "# {} — {} states, {} params, {instances} instances, sigma {sigma}",
        path,
        rom.size(),
        rom.num_params()
    );
    outln!("# dominant pole magnitude |λ₁| (rad/s):");
    outln!(
        "#   min {:.6e}  median {:.6e}  mean {:.6e}  max {:.6e}  std {:.3e}",
        s.min,
        s.median,
        s.mean,
        s.max,
        s.std
    );
    if let Some((_, v)) = flags.iter().find(|(n, _)| n == "min-pole") {
        let min_rad_s = v
            .parse::<f64>()
            .ok()
            .filter(|m| *m > 0.0 && m.is_finite())
            .ok_or_else(|| {
                CliError::Usage(format!("--min-pole: expected a positive number, got {v:?}"))
            })?;
        // The spec reads the dominant-pole magnitudes already computed
        // above — don't re-run the eigensolves per instance.
        let pass = pole_mags.iter().filter(|&&m| m >= min_rad_s).count();
        let y = pass as f64 / instances as f64;
        let std_error = (y * (1.0 - y) / instances as f64).sqrt();
        outln!(
            "# yield(|λ₁| ≥ {min_rad_s:.3e}): {:.1}% ± {:.1}%",
            100.0 * y,
            100.0 * std_error
        );
    }
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), CliError> {
    let (path, flags) = rom_and_flags(args)?;
    check_flags(&flags, &[])?;
    let rom = load_rom(&path)?;
    outln!("{path}:");
    outln!("  states:       {}", rom.size());
    outln!("  parameters:   {}", rom.num_params());
    outln!("  inputs:       {}", rom.num_inputs());
    outln!("  outputs:      {}", rom.num_outputs());
    outln!("  full dim:     {}", rom.full_dim);
    let p0 = vec![0.0; rom.num_params()];
    if let Ok(poles) = rom.dominant_poles(&p0, 3) {
        outln!("  nominal dominant poles (rad/s):");
        for z in poles {
            outln!("    {:.6e} {:+.6e}j", z.re, z.im);
        }
    }
    match rom.is_passive_stamp(&p0) {
        Ok(passive) => outln!("  passivity stamp at p = 0: {passive}"),
        Err(e) => outln!("  passivity stamp at p = 0: check failed ({e})"),
    }
    Ok(())
}

/// `pmor bench`: run a suite or validate emitted record files.
fn cmd_bench(args: &[String]) -> Result<(), CliError> {
    if args.first().map(String::as_str) == Some("--check") {
        return check_files(&args[1..]);
    }
    let mut flags = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(CliError::Usage(format!("unexpected argument {flag:?}")));
        };
        let Some(value) = it.next() else {
            return Err(CliError::Usage(format!("--{name} needs a value")));
        };
        flags.push((name.to_string(), value.clone()));
    }
    check_flags(
        &flags,
        &["suite", "entry", "repeats", "warmup", "out", "serve-addr"],
    )?;
    let Some((_, suite_arg)) = flags.iter().find(|(n, _)| n == "suite") else {
        return Err(CliError::Usage(
            "bench needs --suite <name|path> (or --check <file>...)".into(),
        ));
    };
    let path = resolve_suite(suite_arg)?;
    let mut suite = BenchSuite::load(&path)
        .map_err(|e| CliError::Invalid(format!("{}: {e}", path.display())))?;
    for (name, count) in [
        ("repeats", &mut suite.repeats),
        ("warmup", &mut suite.warmup),
    ] {
        if let Some((_, v)) = flags.iter().find(|(n, _)| n == name) {
            *count = v
                .parse::<usize>()
                .map_err(|_| CliError::Usage(format!("--{name}: invalid integer {v:?}")))?;
        }
    }
    // The suite's own counts passed this check at load, so a failure
    // names a flag: the message starts with `repeats` or `warmup`.
    check_runs(suite.warmup, suite.repeats).map_err(|msg| CliError::Usage(format!("--{msg}")))?;
    let out = flags
        .iter()
        .find(|(n, _)| n == "out")
        .map_or_else(|| ".".to_string(), |(_, v)| v.clone());
    let only = flags
        .iter()
        .find(|(n, _)| n == "entry")
        .map(|(_, v)| v.as_str());
    let serve_addr = flags
        .iter()
        .find(|(n, _)| n == "serve-addr")
        .map(|(_, v)| v.as_str());
    let report = run_suite(&suite, std::path::Path::new(&out), only, serve_addr)?;
    outln!(
        "# suite {} done: {} files, {} records",
        suite.name,
        report.files.len(),
        report.records
    );
    Ok(())
}

/// `pmor lint`: the static-analysis pass (scan, or `--validate` for
/// already-emitted report files).
fn cmd_lint(args: &[String]) -> Result<(), CliError> {
    if args.first().map(String::as_str) == Some("--validate") {
        return pmor_cli::lint_cmd::validate_files(&args[1..]);
    }
    let mut check = false;
    let mut json = false;
    let mut out = ".".to_string();
    let mut root = ".".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--json" => json = true,
            "--out" => {
                let Some(dir) = it.next() else {
                    return Err(CliError::Usage("--out needs a directory".into()));
                };
                out = dir.clone();
            }
            flag if flag.starts_with("--") => {
                return Err(CliError::Usage(format!("unknown flag {flag}")));
            }
            positional => root = positional.to_string(),
        }
    }
    let out_dir = std::path::PathBuf::from(out);
    pmor_cli::lint_cmd::run_lint(
        std::path::Path::new(&root),
        json.then_some(out_dir.as_path()),
        check,
    )?;
    Ok(())
}

/// `pmor vet`: parse-validate every shipped scenario and suite.
fn cmd_vet(args: &[String]) -> Result<(), CliError> {
    let root = match args {
        [] => ".".to_string(),
        [root] if !root.starts_with("--") => root.clone(),
        _ => return Err(CliError::Usage("vet takes at most one root path".into())),
    };
    pmor_cli::vet_cmd::run_vet(std::path::Path::new(&root))?;
    Ok(())
}

fn cmd_list(args: &[String]) -> Result<(), CliError> {
    match args {
        [] => {
            list_registries();
            Ok(())
        }
        [flag] if flag == "--lints" => {
            list_lints();
            Ok(())
        }
        [flag] if flag == "--benches" => list_benches(std::path::Path::new(SUITE_DIR)),
        [flag, dir] if flag == "--benches" => list_benches(std::path::Path::new(dir)),
        _ => Err(CliError::Usage(
            "list takes no arguments, --lints, or --benches [suite-dir]".into(),
        )),
    }
}

/// `pmor list --lints`: the rule registry, derived from
/// `LintKind::ALL` so this list can never drift from what `pmor lint`
/// actually runs (the same pattern as `--benches` and the analyses).
/// Each description comes off the built `LintRule` trait object — the
/// same object the scan runs — not a parallel table.
fn list_lints() {
    outln!("lint rules (run: pmor lint [--check] [--json]):");
    for kind in pmor_lint::LintKind::ALL {
        let rule: Box<dyn pmor_lint::LintRule> = kind.build();
        outln!("  {:<28} {}", kind.name(), rule.describe());
    }
    outln!(
        "suppressions: // pmor-lint: allow(<rule>, …) reason=\"…\" \
         (own line covers the next line; trailing covers its line)"
    );
}

/// `pmor list --benches`: enumerate the suites in a directory with their
/// entries, so the suite surface is discoverable without opening files.
fn list_benches(dir: &std::path::Path) -> Result<(), CliError> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| CliError::Io(format!("reading {}: {e}", dir.display())))?
        .filter_map(|e| {
            let p = e.ok()?.path();
            (p.extension()? == "toml").then_some(p)
        })
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(CliError::Invalid(format!(
            "no suite files (*.toml) in {}",
            dir.display()
        )));
    }
    outln!(
        "benchmark suites in {} (run: pmor bench --suite <name>):",
        dir.display()
    );
    for path in paths {
        let suite = BenchSuite::load(&path)
            .map_err(|e| CliError::Invalid(format!("{}: {e}", path.display())))?;
        outln!(
            "  {:<10} {} (warmup {}, repeats {})",
            suite.name,
            suite.description,
            suite.warmup,
            suite.repeats
        );
        for entry in &suite.entries {
            let what = match &entry.kind {
                SuiteEntryKind::Scenario { file, gate } => match gate {
                    None => format!("scenario {}", file.display()),
                    Some((metric, max)) => {
                        format!("scenario {} (gate: {metric} <= {max:.3e})", file.display())
                    }
                },
                SuiteEntryKind::Compare { file, method } => format!(
                    "serial-vs-parallel {method} reduction of {}",
                    file.display()
                ),
                SuiteEntryKind::Serve {
                    file,
                    method,
                    clients,
                    ..
                } => format!(
                    "daemon eval throughput ({method} ROM of {}, {clients} clients)",
                    file.display()
                ),
            };
            outln!("    {:<22} {what}", entry.tag);
        }
    }
    Ok(())
}

fn list_registries() {
    outln!("generators ([system] generator = …):");
    outln!("  rc_random    §5.1 random RC network (default 767 unknowns, 2 sources)");
    outln!("  rlc_bus      §5.2 coupled multi-bit RLC bus (default 1086 MNA unknowns)");
    outln!("  clock_tree   §5.3 three-layer clock tree (RCNetA/B stand-ins)");
    outln!("  rc_mesh      power-grid style RC mesh with regional parameters");
    outln!("  power_grid   two-layer power grid (fine mesh + global straps), 16k-65k unknowns");
    outln!("  spice        a .sp netlist deck parsed via pmor_circuits::spice (path = …)");
    outln!("reduction methods ([reduce] methods = […]):");
    for kind in pmor::ReducerKind::ALL {
        outln!("  {}", kind.name());
    }
    // Derived from the analysis registry, so this list can never drift
    // from what `[analysis] kind = …` actually accepts.
    outln!("analyses ([analysis] kind = …):");
    for kind in pmor_variation::AnalysisKind::ALL {
        outln!("  {:<17} {}", kind.name(), kind.describe());
    }
}
