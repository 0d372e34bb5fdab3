//! End-to-end tests of the `pmor bench` subsystem and the ROM cache:
//! suite execution, record validation, serial-vs-parallel determinism,
//! and re-run reduction skipping.

use pmor_bench::suite::BenchSuite;
use pmor_bench::validate_bench_json;
use pmor_cli::bench_cmd::{check_files, run_suite};
use pmor_cli::{run_scenario, Scenario};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

#[path = "../../../tests/support/temp_dir.rs"]
mod temp_dir;
use temp_dir::TempDir;

/// A unique per-test directory under the system temp dir.
fn out_dir(tag: &str) -> TempDir {
    TempDir::new(&format!("bench_test_{tag}"))
}

/// Writes a small scenario + suite pair into `dir`, returning the suite
/// path. The scenario uses two multi-shift methods so both the parallel
/// reduction path and the concurrent analysis path are exercised.
fn write_suite(dir: &std::path::Path) -> PathBuf {
    let scenario = format!(
        r#"
[scenario]
name = "bench_e2e"
description = "bench test scenario"

[system]
generator = "clock_tree"
num_nodes = 30

[reduce]
methods = ["multipoint", "fit"]

[analysis]
kind = "frequency_sweep"
points = 4

[output]
dir = "{}"
"#,
        dir.display()
    );
    std::fs::write(dir.join("bench_e2e.toml"), scenario).unwrap();
    let suite = r#"
[suite]
name = "unit"
description = "test suite"
warmup = 0
repeats = 2

[scenario-e2e]
file = "bench_e2e.toml"

[compare-par]
file = "bench_e2e.toml"
method = "multipoint"
"#;
    let path = dir.join("unit.toml");
    std::fs::write(&path, suite).unwrap();
    path
}

#[test]
fn suite_runs_end_to_end_with_validated_records() {
    let dir = out_dir("suite");
    let suite = BenchSuite::load(write_suite(&dir)).unwrap();
    let report = run_suite(&suite, &dir, None, None).unwrap();
    // One BENCH file per entry: compare-par, scenario-e2e.
    assert_eq!(report.files.len(), 2);
    // 2 (compare) + 2 (methods) records.
    assert_eq!(report.records, 4);
    for path in &report.files {
        let name = path.file_name().unwrap().to_str().unwrap();
        assert!(name.starts_with("BENCH_unit_"), "{name}");
        let text = std::fs::read_to_string(path).unwrap();
        validate_bench_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
    // The compare entry recorded a speedup metric on the parallel leg.
    let compare = std::fs::read_to_string(&report.files[0]).unwrap();
    assert!(compare.contains("multipoint_serial"), "{compare}");
    assert!(compare.contains("multipoint_parallel"), "{compare}");
    assert!(compare.contains("\"speedup\""), "{compare}");
    // Every reduction record carries its ordering provenance.
    let scenario = std::fs::read_to_string(&report.files[1]).unwrap();
    assert!(scenario.contains("\"factor_nnz\""), "{scenario}");
    assert!(scenario.contains("\"ordering\": \"rcm\""), "{scenario}");
    // --check accepts what run_suite emitted.
    let paths: Vec<String> = report
        .files
        .iter()
        .map(|p| p.to_str().unwrap().to_string())
        .collect();
    check_files(&paths).unwrap();
    // --entry restricts the run to one tag; unknown tags fail loudly.
    let one = run_suite(&suite, &dir, Some("par"), None).unwrap();
    assert_eq!(one.files.len(), 1);
    assert_eq!(one.records, 2);
    let err = run_suite(&suite, &dir, Some("nope"), None).unwrap_err();
    assert!(err.to_string().contains("no entry"), "{err}");
}

#[test]
fn adaptive_entries_record_convergence_like_pmor_run() {
    let dir = out_dir("adaptive");
    let scenario = format!(
        r#"
[scenario]
name = "bench_adaptive"

[system]
generator = "clock_tree"
num_nodes = 30

[reduce]
methods = ["multipoint"]
adaptive = true
tolerance = 1e-4

[analysis]
kind = "frequency_sweep"
points = 3

[output]
dir = "{}"
"#,
        dir.display()
    );
    std::fs::write(dir.join("bench_adaptive.toml"), scenario).unwrap();
    let suite = r#"
[suite]
name = "adaptive"
description = "adaptive records"
warmup = 0
repeats = 1

[scenario-run]
file = "bench_adaptive.toml"

[compare-par]
file = "bench_adaptive.toml"
method = "multipoint"
"#;
    std::fs::write(dir.join("adaptive.toml"), suite).unwrap();
    let suite = BenchSuite::load(dir.join("adaptive.toml")).unwrap();
    let report = run_suite(&suite, &dir, None, None).unwrap();
    assert_eq!(report.files.len(), 2);
    for path in &report.files {
        let text = std::fs::read_to_string(path).unwrap();
        for metric in [
            "estimated_error",
            "expansion_points_used",
            "adaptive_converged",
        ] {
            assert!(text.contains(&format!("\"{metric}\"")), "{metric}: {text}");
        }
    }
}

#[test]
fn check_rejects_nonconforming_files() {
    let dir = out_dir("check");
    let bad = dir.join("BENCH_bad.json");
    std::fs::write(&bad, "{\n  \"tag\": \"bad\",\n  \"records\": [\n  ]\n}\n").unwrap();
    let err = check_files(&[bad.to_str().unwrap().to_string()]).unwrap_err();
    assert!(err.to_string().contains("no records"), "{err}");
    assert!(check_files(&[]).is_err());
    assert!(check_files(&["/definitely/missing.json".into()]).is_err());
}

#[test]
fn check_reports_every_invalid_file_not_just_the_first() {
    // A mixed directory: one valid record file sandwiched between two
    // broken ones. `pmor bench --check` must name BOTH failures in one
    // verdict instead of stopping at the first.
    let dir = out_dir("check_all");
    let bad_empty = dir.join("BENCH_a_empty.json");
    std::fs::write(
        &bad_empty,
        "{\n  \"tag\": \"a\",\n  \"records\": [\n  ]\n}\n",
    )
    .unwrap();
    let good = dir.join("BENCH_b_good.json");
    std::fs::write(
        &good,
        "{\n  \"tag\": \"b\",\n  \"records\": [\n    {\"method\": \"prima\", \
         \"workload\": \"w\", \"wall_seconds\": 0.1, \"metrics\": \
         {\"median_seconds\": 0.1, \"dim\": 10.0}}\n  ]\n}\n",
    )
    .unwrap();
    let bad_missing_metric = dir.join("BENCH_c_missing.json");
    std::fs::write(
        &bad_missing_metric,
        "{\n  \"tag\": \"c\",\n  \"records\": [\n    {\"method\": \"prima\", \
         \"workload\": \"w\", \"wall_seconds\": 0.1, \"metrics\": {}}\n  ]\n}\n",
    )
    .unwrap();
    let paths: Vec<String> = [&bad_empty, &good, &bad_missing_metric]
        .iter()
        .map(|p| p.to_str().unwrap().to_string())
        .collect();
    let err = check_files(&paths).unwrap_err().to_string();
    assert!(err.contains("2 of 3 files failed"), "{err}");
    assert!(err.contains("BENCH_a_empty.json"), "{err}");
    assert!(err.contains("BENCH_c_missing.json"), "{err}");
    assert!(err.contains("no records"), "{err}");
    assert!(err.contains("median_seconds"), "{err}");
    assert!(
        !err.contains("BENCH_b_good.json"),
        "valid file blamed: {err}"
    );
    // All-valid input still passes.
    check_files(&[good.to_str().unwrap().to_string()]).unwrap();
}

/// Writes a tiny compare-full scenario (reports `max_rel_err`) plus a
/// one-entry suite gating on `gate_metric`/`gate_max`, returning the
/// suite path.
fn write_gated_suite(dir: &std::path::Path, gate_metric: &str, gate_max: &str) -> PathBuf {
    let scenario = format!(
        r#"
[scenario]
name = "gated"

[system]
generator = "clock_tree"
num_nodes = 30

[reduce]
methods = ["multipoint"]

[analysis]
kind = "frequency_sweep"
points = 4

[output]
dir = "{}"
"#,
        dir.display()
    );
    std::fs::write(dir.join("gated.toml"), scenario).unwrap();
    let suite = format!(
        r#"
[suite]
name = "gated"
warmup = 0
repeats = 1

[scenario-gated]
file = "gated.toml"
gate_metric = "{gate_metric}"
gate_max = {gate_max}
"#
    );
    let path = dir.join("gated_suite.toml");
    std::fs::write(&path, suite).unwrap();
    path
}

#[test]
fn violated_suite_gate_fails_the_bench_run_loudly() {
    // An impossible bound (1e-300): no reduction meets it, so the run
    // must abort naming the method, file, metric, value and bound.
    let dir = out_dir("gate_violation");
    let suite = BenchSuite::load(write_gated_suite(&dir, "max_rel_err", "1e-300")).unwrap();
    let err = run_suite(&suite, &dir, None, None).unwrap_err().to_string();
    assert!(err.contains("accuracy gate failed"), "{err}");
    assert!(err.contains("multipoint"), "{err}");
    assert!(err.contains("max_rel_err"), "{err}");
    assert!(err.contains("gate_max"), "{err}");
    // A generous bound on the same suite passes (the gate mechanism,
    // not the scenario, caused the failure above).
    let dir_ok = out_dir("gate_ok");
    let suite = BenchSuite::load(write_gated_suite(&dir_ok, "max_rel_err", "1e3")).unwrap();
    run_suite(&suite, &dir_ok, None, None).unwrap();
}

#[test]
fn gate_on_an_unreported_metric_fails_instead_of_silently_passing() {
    let dir = out_dir("gate_unreported");
    let suite = BenchSuite::load(write_gated_suite(&dir, "no_such_metric", "1e-3")).unwrap();
    let err = run_suite(&suite, &dir, None, None).unwrap_err().to_string();
    assert!(err.contains("was not reported"), "{err}");
    assert!(err.contains("no_such_metric"), "{err}");
}

/// `pmor bench --suite <suite> --out <dir>` plus `flags`, through the
/// real binary.
fn bench_binary(suite: &Path, dir: &Path, flags: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pmor"))
        .arg("bench")
        .arg("--suite")
        .arg(suite)
        .arg("--out")
        .arg(dir)
        .args(flags)
        .output()
        .unwrap()
}

/// The `BENCH_*.json` files a run left in `dir`.
fn bench_files(dir: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .unwrap()
                .to_str()
                .unwrap()
                .starts_with("BENCH_")
        })
        .collect()
}

#[test]
fn out_of_range_repeat_flags_are_usage_errors_before_anything_runs() {
    // An unchecked count reaches `Vec::with_capacity` in the first
    // entry's timing loop, where `usize::MAX` aborts with a capacity
    // overflow; every count is checked before any entry runs.
    let dir = out_dir("run_bounds");
    let suite = write_suite(&dir);
    let huge = usize::MAX.to_string();
    for (flag, value) in [
        ("--repeats", huge.as_str()),
        ("--warmup", huge.as_str()),
        ("--repeats", "0"),
        ("--repeats", "10001"),
    ] {
        let out = bench_binary(&suite, &dir, &[flag, value]);
        // Exit code 2 is the CLI's usage-error status.
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("{flag} must be in")), "{stderr}");
        assert!(bench_files(&dir).is_empty(), "{flag} {value} ran entries");
    }
}

#[test]
fn suites_with_retired_sections_fail_loudly() {
    // A suite file still carrying a `[micro]` or `[refactor-*]` section
    // is refused by name instead of being half run.
    let dir = out_dir("retired_sections");
    let suite = write_suite(&dir);
    let text = std::fs::read_to_string(&suite).unwrap();
    for (i, old) in [
        "[micro]\nkernels = [\"csr_mul\"]\n",
        "[refactor-reuse]\nfile = \"bench_e2e.toml\"\n",
    ]
    .iter()
    .enumerate()
    {
        let path = dir.join(format!("retired_{i}.toml"));
        std::fs::write(&path, format!("{text}\n{old}")).unwrap();
        let section = old.lines().next().unwrap();
        let err = BenchSuite::load(&path).unwrap_err().to_string();
        assert!(err.contains(&format!("unknown section {section}")), "{err}");
        let out = bench_binary(&path, &dir, &[]);
        assert_eq!(out.status.code(), Some(1), "{section}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown section {section}")),
            "{stderr}"
        );
        assert!(bench_files(&dir).is_empty(), "{section} ran entries");
    }
}

#[test]
fn rom_cache_skips_reduction_on_the_second_run_with_identical_numbers() {
    let dir = out_dir("romcache");
    let text = format!(
        r#"
[scenario]
name = "cachetest"

[system]
generator = "clock_tree"
num_nodes = 30

[reduce]
methods = ["multipoint"]

[analysis]
kind = "frequency_sweep"
points = 5

[output]
dir = "{}"
"#,
        dir.display()
    );
    let sc = Scenario::parse(&text).unwrap();
    assert!(sc.output.rom_cache, "cache must default on");
    let first = run_scenario(&sc).unwrap();
    assert_eq!(first.rom_cache_hits, 0);
    assert!(first.real_factorizations > 0);
    let second = run_scenario(&sc).unwrap();
    assert_eq!(second.rom_cache_hits, 1, "second run must hit the cache");
    assert_eq!(
        second.real_factorizations, 0,
        "cached run must not factor anything"
    );
    // The analysis numbers are bitwise identical: a cached ROM is the
    // same model.
    let metrics = |r: &pmor_cli::ExecReport| -> Vec<(String, f64)> {
        r.records[0]
            .metrics
            .iter()
            .filter(|(n, _)| {
                // Wall-clock (`*_seconds`) and cache/factorization
                // provenance metrics legitimately differ (a fully
                // ROM-cached run factors nothing, so it has no fill to
                // report); everything numeric must not.
                n != "rom_cached"
                    && n != "factor_nnz"
                    && n != "fill_ratio"
                    && !n.ends_with("_seconds")
            })
            .cloned()
            .collect()
    };
    let (a, b) = (metrics(&first), metrics(&second));
    assert_eq!(a.len(), b.len());
    for ((na, va), (nb, vb)) in a.iter().zip(&b) {
        assert_eq!(na, nb);
        assert_eq!(va.to_bits(), vb.to_bits(), "{na} drifted across cache");
    }
    // Opting out re-reduces.
    let mut no_cache = sc.clone();
    no_cache.output.rom_cache = false;
    let third = run_scenario(&no_cache).unwrap();
    assert_eq!(third.rom_cache_hits, 0);
    assert!(third.real_factorizations > 0);
}

#[test]
fn concurrent_method_analyses_match_the_serial_path() {
    let make = |threads: usize, dir: &std::path::Path| {
        let text = format!(
            r#"
[scenario]
name = "conc"

[system]
generator = "clock_tree"
num_nodes = 30

[reduce]
methods = ["prima", "multipoint", "lowrank"]
threads = {threads}

[analysis]
kind = "montecarlo"
instances = 6
num_poles = 2

[output]
dir = "{}"
rom_cache = false
"#,
            dir.display()
        );
        Scenario::parse(&text).unwrap()
    };
    let dir_s = out_dir("conc_serial");
    let dir_p = out_dir("conc_parallel");
    let serial = run_scenario(&make(1, &dir_s)).unwrap();
    // Explicit worker count: `threads = 0` resolves to available
    // parallelism, which is 1 on small CI boxes and would degrade this
    // to serial-vs-serial; 3 workers = one per method everywhere.
    let parallel = run_scenario(&make(3, &dir_p)).unwrap();
    assert_eq!(serial.records.len(), parallel.records.len());
    for (a, b) in serial.records.iter().zip(&parallel.records) {
        assert_eq!(a.method, b.method, "record order must stay method order");
        for ((na, va), (nb, vb)) in a.metrics.iter().zip(&b.metrics) {
            assert_eq!(na, nb);
            if na.ends_with("_seconds") || na == "threads" {
                // Wall-clock, and the engine worker count (the auto
                // engine divides cores across concurrent jobs) — both
                // legitimately differ; every error metric must not.
                continue;
            }
            assert_eq!(
                va.to_bits(),
                vb.to_bits(),
                "{}/{na} differs between serial and concurrent analysis",
                a.method
            );
        }
    }
}

/// Writes a small scenario + one-entry `[serve-*]` suite, returning the
/// suite path. `extra` is appended inside the serve section verbatim.
fn write_serve_suite(dir: &std::path::Path, extra: &str) -> PathBuf {
    let scenario = format!(
        r#"
[scenario]
name = "serve_e2e"

[system]
generator = "clock_tree"
num_nodes = 30

[reduce]
methods = ["lowrank"]

[analysis]
kind = "frequency_sweep"
points = 4

[output]
dir = "{}"
"#,
        dir.display()
    );
    std::fs::write(dir.join("serve_e2e.toml"), scenario).unwrap();
    let suite = format!(
        r#"
[suite]
name = "servetest"
warmup = 0
repeats = 2

[serve-daemon]
file = "serve_e2e.toml"
method = "lowrank"
clients = 2
batches = 2
batch_points = 8
{extra}
"#
    );
    let path = dir.join("serve_suite.toml");
    std::fs::write(&path, suite).unwrap();
    path
}

#[test]
fn serve_entry_load_tests_an_in_process_daemon_bitwise() {
    let dir = out_dir("serve_entry");
    let suite = BenchSuite::load(write_serve_suite(&dir, "")).unwrap();
    let report = run_suite(&suite, &dir, None, None).unwrap();
    assert_eq!(report.files.len(), 1);
    assert_eq!(report.records, 1);
    let text = std::fs::read_to_string(&report.files[0]).unwrap();
    validate_bench_json(&text).unwrap();
    assert!(text.contains("\"serve_lowrank\""), "{text}");
    assert!(text.contains("\"evals_per_second\""), "{text}");
    assert!(text.contains("\"mode\": \"in-process\""), "{text}");
    assert!(text.contains("\"transport\": \"tcp\""), "{text}");
}

#[test]
fn serve_entry_throughput_gate_fails_loudly_when_unmeetable() {
    // No machine serves 1e15 evals/sec; the gate must abort the run
    // naming the measured and required rates.
    let dir = out_dir("serve_gate");
    let suite = BenchSuite::load(write_serve_suite(&dir, "min_evals_per_sec = 1e15")).unwrap();
    let err = run_suite(&suite, &dir, None, None).unwrap_err().to_string();
    assert!(err.contains("serve throughput gate failed"), "{err}");
    assert!(err.contains("1000000000000000"), "{err}");
}

#[test]
fn serve_entry_runs_against_an_external_daemon_via_serve_addr() {
    // Host the daemon ourselves and point the suite at it through the
    // `--serve-addr` override — the path CI's serve-smoke job uses. The
    // entry uploads the ROM, load-tests over real TCP, and must leave
    // the daemon running (external daemons are not ours to stop).
    use pmor_serve::{Client, ServeConfig, Server};
    let dir = out_dir("serve_external");
    let suite = BenchSuite::load(write_serve_suite(&dir, "")).unwrap();
    let handle = Server::start(ServeConfig::default()).unwrap();
    let addr_text = handle.addr().to_string();
    let report = run_suite(&suite, &dir, None, Some(&addr_text)).unwrap();
    assert_eq!(report.records, 1);
    let text = std::fs::read_to_string(&report.files[0]).unwrap();
    assert!(text.contains("\"mode\": \"external\""), "{text}");
    // Still alive, and the uploaded ROM is resident.
    let mut probe = Client::connect(handle.addr()).unwrap();
    probe.ping().unwrap();
    assert_eq!(probe.server_info().unwrap().roms.len(), 1);
    drop(probe);
    handle.shutdown_and_join().unwrap();
}
