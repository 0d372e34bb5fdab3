//! End-to-end tests of the scenario pipeline: parse → reduce → analyze →
//! BENCH record → ROM persistence → reload.

use pmor::OrderingChoice;
use pmor_cli::{reduce_scenario, run_scenario, Scenario};
use pmor_num::Complex64;
use pmor_sparse::{CsrMatrix, RealFactor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

#[path = "../../../tests/support/temp_dir.rs"]
mod temp_dir;
use temp_dir::TempDir;

/// A unique per-test output directory under the system temp dir.
fn out_dir(tag: &str) -> TempDir {
    TempDir::new(&format!("cli_test_{tag}"))
}

/// A small clock-tree scenario writing all outputs into `dir`.
fn tiny_scenario(name: &str, dir: &std::path::Path, analysis: &str, methods: &str) -> Scenario {
    let text = format!(
        r#"
[scenario]
name = "{name}"
description = "test scenario"

[system]
generator = "clock_tree"
num_nodes = 30

[reduce]
methods = [{methods}]

{analysis}

[output]
dir = "{}"
save_roms = true
"#,
        dir.display()
    );
    Scenario::parse(&text).unwrap()
}

#[test]
fn frequency_sweep_runs_end_to_end_and_roms_round_trip() {
    let dir = out_dir("sweep");
    let sc = tiny_scenario(
        "sweep",
        &dir,
        "[analysis]\nkind = \"frequency_sweep\"\npoints = 5\nparameters = [0.1, -0.1, 0.2]",
        "\"prima\", \"lowrank\"",
    );
    let report = run_scenario(&sc).unwrap();

    // BENCH record written, one entry per method with an error metric.
    assert!(report.bench_path.ends_with("BENCH_sweep.json"));
    let json = std::fs::read_to_string(&report.bench_path).unwrap();
    assert!(json.contains("\"method\": \"prima\""), "{json}");
    assert!(json.contains("\"method\": \"lowrank\""), "{json}");
    assert!(json.contains("max_rel_err"), "{json}");
    // (The tiny tree gains a layer-coverage fixup node, so don't pin the
    // exact dimension — just the workload family.)
    assert!(json.contains("\"workload\": \"clock_tree("), "{json}");

    // Both methods shared the one-time nominal G0 factorization even with
    // the full-model comparison riding on the same context.
    assert_eq!(report.real_factorizations, 1);
    assert!(report.cache_hits >= 1);

    // Persisted ROMs reload bitwise-identical to the models that were
    // saved: the whole pipeline is deterministic, so re-reducing each
    // method in memory reproduces exactly what run_scenario persisted.
    assert_eq!(report.rom_paths.len(), 2);
    let sys = sc.system.assemble();
    let mut rng = StdRng::seed_from_u64(7);
    for (path, method) in report.rom_paths.iter().zip(&sc.methods) {
        let reloaded = pmor::rom::load(path).unwrap();
        let fresh = pmor::reducer_by_name(method, &sys)
            .unwrap()
            .reduce_once(&sys)
            .unwrap();
        for _ in 0..10 {
            let p: Vec<f64> = (0..fresh.num_params())
                .map(|_| rng.gen_range(-0.3..0.3))
                .collect();
            let f = 10f64.powf(rng.gen_range(7.0..10.0));
            let s = Complex64::jw(2.0 * std::f64::consts::PI * f);
            let h1 = fresh.transfer(&p, s).unwrap();
            let h2 = reloaded.transfer(&p, s).unwrap();
            for r in 0..h1.nrows() {
                for c in 0..h1.ncols() {
                    assert_eq!(h1[(r, c)].re.to_bits(), h2[(r, c)].re.to_bits(), "{method}");
                    assert_eq!(h1[(r, c)].im.to_bits(), h2[(r, c)].im.to_bits(), "{method}");
                }
            }
        }
    }
}

#[test]
fn saved_rom_matches_in_memory_rom_bitwise() {
    // The stronger round-trip property: the reloaded ROM reproduces the
    // *in-memory* model that was saved, not just itself.
    let dir = out_dir("bitwise");
    let sc = tiny_scenario(
        "bitwise",
        &dir,
        "[analysis]\nkind = \"frequency_sweep\"\npoints = 3",
        "\"lowrank\"",
    );
    let report = run_scenario(&sc).unwrap();
    let reloaded = pmor::rom::load(&report.rom_paths[0]).unwrap();

    // Rebuild the identical ROM in memory (deterministic pipeline).
    let sys = sc.system.assemble();
    let reducer = pmor::reducer_by_name("lowrank", &sys).unwrap();
    let fresh = reducer.reduce_once(&sys).unwrap();

    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..20 {
        let p: Vec<f64> = (0..fresh.num_params())
            .map(|_| rng.gen_range(-0.3..0.3))
            .collect();
        let f = 10f64.powf(rng.gen_range(6.0..10.5));
        let s = Complex64::jw(2.0 * std::f64::consts::PI * f);
        let a = fresh.transfer(&p, s).unwrap();
        let b = reloaded.transfer(&p, s).unwrap();
        assert_eq!(a[(0, 0)].re.to_bits(), b[(0, 0)].re.to_bits());
        assert_eq!(a[(0, 0)].im.to_bits(), b[(0, 0)].im.to_bits());
    }
}

#[test]
fn montecarlo_poles_analysis_runs() {
    let dir = out_dir("mc");
    let sc = tiny_scenario(
        "mc",
        &dir,
        "[analysis]\nkind = \"montecarlo\"\nmetric = \"poles\"\nnum_poles = 2\ninstances = 5",
        "\"lowrank\"",
    );
    let report = run_scenario(&sc).unwrap();
    let json = std::fs::read_to_string(&report.bench_path).unwrap();
    assert!(json.contains("max_pole_err_percent"), "{json}");
}

#[test]
fn montecarlo_transfer_analysis_runs() {
    let dir = out_dir("mct");
    let sc = tiny_scenario(
        "mct",
        &dir,
        "[analysis]\nkind = \"montecarlo\"\nmetric = \"transfer\"\nfreqs_hz = [1e8, 1e9]\ninstances = 4",
        "\"lowrank\"",
    );
    let report = run_scenario(&sc).unwrap();
    let json = std::fs::read_to_string(&report.bench_path).unwrap();
    assert!(json.contains("worst_rel_transfer_err"), "{json}");
}

#[test]
fn corner_sweep_analysis_runs() {
    let dir = out_dir("corner");
    let sc = tiny_scenario(
        "corner",
        &dir,
        "[analysis]\nkind = \"corner_sweep\"\nparam_a = 0\nparam_b = 2\npoints_per_axis = 3",
        "\"lowrank\"",
    );
    let report = run_scenario(&sc).unwrap();
    let json = std::fs::read_to_string(&report.bench_path).unwrap();
    assert!(json.contains("worst_pole_err_percent"), "{json}");
    assert!(json.contains("\"grid_points\": 9.0"), "{json}");
}

#[test]
fn yield_analysis_runs() {
    let dir = out_dir("yield");
    let sc = tiny_scenario(
        "yield",
        &dir,
        "[analysis]\nkind = \"yield\"\ninstances = 40\nmargin = 0.5",
        "\"lowrank\"",
    );
    let report = run_scenario(&sc).unwrap();
    let json = std::fs::read_to_string(&report.bench_path).unwrap();
    assert!(json.contains("yield_fraction"), "{json}");
    // A 50 % bandwidth margin passes essentially every ±30 % instance.
    let rec = &report.records[0];
    let y = rec
        .metrics
        .iter()
        .find(|(n, _)| n == "yield_fraction")
        .unwrap()
        .1;
    assert!(y > 0.9, "yield {y}");
}

#[test]
fn transient_analysis_runs_end_to_end() {
    let dir = out_dir("transient");
    let sc = tiny_scenario(
        "transient",
        &dir,
        "[analysis]\nkind = \"transient\"\ninstances = 3\nsteps = 120\nintegrator = \"trapezoidal\"",
        "\"lowrank\"",
    );
    let report = run_scenario(&sc).unwrap();
    let json = std::fs::read_to_string(&report.bench_path).unwrap();
    assert!(json.contains("max_delay_err_percent"), "{json}");
    assert!(json.contains("mean_full_delay_s"), "{json}");
    // Provenance metrics stamp transient records like every other kind.
    for want in ["eval_points", "threads", "analysis_seconds", "t_stop_s"] {
        assert!(json.contains(want), "missing {want}: {json}");
    }
    // A lowrank ROM of a 30-node tree tracks the delay to well under 1%.
    let rec = &report.records[0];
    let worst = rec
        .metrics
        .iter()
        .find(|(n, _)| n == "max_delay_err_percent")
        .unwrap()
        .1;
    assert!(worst < 1.0, "delay err {worst}%");
}

/// Writes a deck + scenario pair into `dir` and returns the scenario path.
fn write_spice_scenario(dir: &std::path::Path, deck: &str) -> PathBuf {
    std::fs::create_dir_all(dir.join("decks")).unwrap();
    std::fs::write(dir.join("decks/net.sp"), deck).unwrap();
    let toml = format!(
        r#"
[scenario]
name = "spice_e2e"

[system]
generator = "spice"
path = "decks/net.sp"

[reduce]
methods = ["lowrank"]

[analysis]
kind = "frequency_sweep"
points = 4
f_max_hz = 5e9

[output]
dir = "{}"
"#,
        dir.display()
    );
    let path = dir.join("spice_e2e.toml");
    std::fs::write(&path, toml).unwrap();
    path
}

const TEST_DECK: &str = "\
* tiny parametric RC
Rdrv in 0 50
R1 in out 100
C1 out 0 40f
*SENS R1 0 0.5
*SENS C1 0 0.5
*PORT in
*OUTPUT out
.END
";

#[test]
fn spice_scenario_resolves_deck_relative_to_the_scenario_file() {
    let dir = out_dir("spice");
    let path = write_spice_scenario(&dir, TEST_DECK);
    // Load from a different working directory than the scenario's: the
    // deck must resolve against the scenario file, not the cwd.
    let sc = Scenario::load(&path).unwrap();
    assert_eq!(sc.system.generator_name(), "spice");
    let sys = sc.system.assemble();
    assert_eq!(sys.num_params(), 1);
    assert_eq!(sys.num_inputs(), 1);
    let report = run_scenario(&sc).unwrap();
    let json = std::fs::read_to_string(&report.bench_path).unwrap();
    assert!(json.contains("\"workload\": \"spice("), "{json}");
    assert!(json.contains("max_rel_err"), "{json}");
}

#[test]
fn spice_scenario_errors_are_loud() {
    let dir = out_dir("spicebad");
    // Missing deck file: the error names the resolved path.
    let path = write_spice_scenario(&dir, TEST_DECK);
    std::fs::remove_file(dir.join("decks/net.sp")).unwrap();
    let err = Scenario::load(&path).unwrap_err();
    assert!(err.to_string().contains("net.sp"), "{err}");

    // A deck with no port cards is rejected at parse time.
    let portless = "R1 a 0 50\nC1 a 0 1f\n.END\n";
    let path = write_spice_scenario(&dir, portless);
    let err = Scenario::load(&path).unwrap_err();
    assert!(err.to_string().contains("no ports"), "{err}");

    // Deck parse errors surface with the spice parser's line numbers.
    let broken = "R1 in 0 50\nX2 in 0 5\n*PORT in\n";
    let path = write_spice_scenario(&dir, broken);
    let err = Scenario::load(&path).unwrap_err();
    assert!(err.to_string().contains("line 2"), "{err}");

    // Generator-specific keys are still checked for spice.
    let toml = "\n[scenario]\nname = \"x\"\n\n[system]\ngenerator = \"spice\"\nnum_nodes = 5\n\n[reduce]\nmethods = [\"prima\"]\n";
    let err = Scenario::parse(toml).unwrap_err();
    assert!(err.to_string().contains("unknown key"), "{err}");
}

#[test]
fn reduce_scenario_persists_roms_without_analysis() {
    let dir = out_dir("reduce");
    let mut sc = tiny_scenario(
        "reduceonly",
        &dir,
        "[analysis]\nkind = \"frequency_sweep\"",
        "\"prima\", \"lowrank\"",
    );
    // `pmor reduce` saves even when the scenario says not to.
    sc.output.save_roms = false;
    let report = reduce_scenario(&sc).unwrap();
    assert_eq!(report.rom_paths.len(), 2);
    for path in &report.rom_paths {
        assert!(path.exists(), "{}", path.display());
        let rom = pmor::rom::load(path).unwrap();
        assert!(rom.size() >= 1);
    }
    // Reduction-only records still carry size + wall time.
    let json = std::fs::read_to_string(&report.bench_path).unwrap();
    assert!(json.contains("\"size\""), "{json}");
}

#[test]
fn multipoint_record_carries_the_fill_of_its_first_sample() {
    // A pure 2-per-axis multipoint grid never factors p = 0, so the
    // record's fill provenance is that of the first sample's `G(p)`.
    let dir = out_dir("mp_fill");
    let text = format!(
        r#"
[scenario]
name = "mp_fill"
description = "test scenario"

[system]
generator = "rc_mesh"
rows = 10
cols = 10

[reduce]
methods = ["multipoint"]
ordering = "amd"
samples_per_axis = 2

[analysis]
kind = "frequency_sweep"
points = 3

[output]
dir = "{}"
rom_cache = false
"#,
        dir.display()
    );
    let sc = Scenario::parse(&text).unwrap();
    let report = run_scenario(&sc).unwrap();
    let sys = sc.system.assemble();
    let np = sys.num_params();
    assert_eq!(report.real_factorizations, 1 << np, "one per grid sample");

    let union = CsrMatrix::abs_sum(
        &[&sys.g0, &sys.c0]
            .into_iter()
            .chain(&sys.gi)
            .chain(&sys.ci)
            .collect::<Vec<_>>(),
    );
    let order = OrderingChoice::Amd.resolve(&union);
    let first = vec![-0.3; np];
    let g_first = sys.g_at(&first);
    let factor = RealFactor::factor(&g_first, Some(&order)).unwrap();
    assert!(factor.is_symmetric(), "an RC G(p) takes the L·D·Lᵀ factor");
    let want = factor.factor_nnz();

    let json = std::fs::read_to_string(&report.bench_path).unwrap();
    let doc = pmor_json::parse_json(&json).unwrap();
    let records = doc.get("records").unwrap().items();
    assert_eq!(records.len(), 1);
    let metric = |key: &str| match records[0].get("metrics").and_then(|m| m.get(key)) {
        Some(pmor_json::Json::Num(v)) => *v,
        other => panic!("metric {key}: {other:?}\n{json}"),
    };
    assert_eq!(metric("factor_nnz"), want as f64, "{json}");
    // The symmetric factor stores one triangle, so its fill is over the
    // matrix's stored triangle (diagonal included).
    let triangle = g_first.iter().filter(|&(r, c, _)| c <= r).count();
    assert_eq!(
        metric("fill_ratio"),
        want as f64 / triangle as f64,
        "{json}"
    );
    let ordering = records[0].get("labels").and_then(|l| l.get("ordering"));
    assert_eq!(ordering.map(|o| o.text()), Some("amd"), "{json}");
}

#[test]
fn wrong_parameter_count_is_rejected_at_exec_time() {
    let dir = out_dir("badp");
    let sc = tiny_scenario(
        "badp",
        &dir,
        "[analysis]\nkind = \"frequency_sweep\"\nparameters = [0.1]\npoints = 3",
        "\"prima\"",
    );
    let err = run_scenario(&sc).unwrap_err();
    assert!(err.to_string().contains("parameters"), "{err}");
}

#[test]
fn corner_sweep_validates_parameter_indices() {
    let dir = out_dir("badidx");
    let sc = tiny_scenario(
        "badidx",
        &dir,
        "[analysis]\nkind = \"corner_sweep\"\nparam_a = 0\nparam_b = 9",
        "\"prima\"",
    );
    let err = run_scenario(&sc).unwrap_err();
    assert!(err.to_string().contains("parameter indices"), "{err}");
}

#[test]
fn all_shipped_scenarios_parse() {
    // Guard: every file under scenarios/ must stay loadable.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "toml") {
            let sc = Scenario::load(&path)
                .unwrap_or_else(|e| panic!("{} failed to parse: {e}", path.display()));
            assert!(!sc.methods.is_empty());
            seen += 1;
        }
    }
    assert!(
        seen >= 9,
        "expected at least 9 shipped scenarios, found {seen}"
    );
}
