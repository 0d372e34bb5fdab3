//! `pmor eval` and `pmor mc` driven through the real binary. The sweep's
//! CSV rows are the ROM's own `H11` at each frequency, and `mc` prints
//! the statistics and yield of a plain serial loop over the sampled
//! instances. A non-finite or wrong-length parameter list, a non-finite
//! frequency and a zero count are usage errors with a non-zero exit,
//! never a CSV of `NaN`/`inf` rows, and a reader that stops early ends
//! the sweep cleanly. A `.rom` of an older format version is refused by
//! `pmor info`, `eval` and `mc` with a message that names the file, its
//! version and the rebuild.

use pmor::ParametricRom;
use pmor_circuits::generators::{clock_tree, ClockTreeConfig};
use pmor_num::Complex64;
use pmor_variation::dist::ParameterDistribution;
use pmor_variation::stats::Summary;
use pmor_variation::sweep::logspace;
use pmor_variation::MonteCarlo;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

#[path = "../../../tests/support/temp_dir.rs"]
mod temp_dir;
use temp_dir::TempDir;

/// A small lowrank ROM saved as `net.rom` in a per-test directory under
/// the system temp dir (one per test, so parallel tests never share
/// one); the directory goes when the returned guard drops.
fn rom_file(tag: &str) -> (TempDir, PathBuf) {
    let dir = TempDir::new(&format!("eval_test_{tag}"));
    let sys = clock_tree(&ClockTreeConfig {
        num_nodes: 20,
        ..Default::default()
    })
    .assemble();
    let rom = pmor::reducer_by_name("lowrank", &sys)
        .unwrap()
        .reduce_once(&sys)
        .unwrap();
    let path = dir.join("net.rom");
    pmor::rom::save(&rom, &path).unwrap();
    (dir, path)
}

fn pmor(cmd: &str, rom: &PathBuf, flags: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pmor"))
        .arg(cmd)
        .arg(rom)
        .args(flags)
        .output()
        .unwrap()
}

fn eval(rom: &PathBuf, flags: &[&str]) -> Output {
    pmor("eval", rom, flags)
}

fn stdout_of(out: &Output) -> String {
    assert!(out.status.success(), "{out:?}");
    String::from_utf8(out.stdout.clone()).unwrap()
}

#[test]
fn eval_rows_are_the_rom_transfer_at_each_frequency() {
    let (_dir, path) = rom_file("rows");
    let rom = pmor::rom::load(&path).unwrap();
    let p = [0.1, -0.05, 0.02];
    let stdout = stdout_of(&eval(
        &path,
        &[
            "--params",
            "0.1,-0.05,0.02",
            "--fmin",
            "1e6",
            "--fmax",
            "1e11",
            "--points",
            "7",
        ],
    ));
    let mut lines = stdout.lines();
    assert_eq!(
        lines.next().unwrap(),
        format!(
            "# {} — {} states, 3 params, evaluated at p = {p:?}",
            path.display(),
            rom.size()
        )
    );
    assert_eq!(lines.next().unwrap(), "freq_hz,re_h11,im_h11,abs_h11");
    // Comment lines after the rows carry run provenance, not data.
    let rows: Vec<&str> = lines.filter(|l| !l.starts_with('#')).collect();
    let want: Vec<String> = logspace(1e6, 1e11, 7)
        .into_iter()
        .map(|f| {
            let s = Complex64::jw(2.0 * std::f64::consts::PI * f);
            let h11 = rom.transfer(&p, s).unwrap()[(0, 0)];
            format!("{f:.6e},{:.6e},{:.6e},{:.6e}", h11.re, h11.im, h11.abs())
        })
        .collect();
    assert_eq!(rows, want);
}

/// The dominant-pole magnitude `|λ₁|` of every sampled instance, drawn
/// and evaluated one by one: the serial loop `pmor mc` ran before it
/// went through the yield analysis, kept here as its oracle.
fn reference_pole_magnitudes(
    rom: &ParametricRom,
    instances: usize,
    sigma: f64,
    seed: u64,
) -> Vec<f64> {
    let mc = MonteCarlo {
        distributions: vec![ParameterDistribution::Normal3Sigma { sigma }; rom.num_params()],
        instances,
        seed,
    };
    mc.sample_points()
        .iter()
        .map(|p| rom.dominant_poles(p, 1).unwrap()[0].abs())
        .collect()
}

#[test]
fn mc_prints_the_reference_loop_statistics_and_yield() {
    let (_dir, path) = rom_file("mc_stats");
    let rom = pmor::rom::load(&path).unwrap();
    let mags = reference_pole_magnitudes(&rom, 60, 0.1, 7);
    let s = Summary::of(&mags);
    // A floor at the median, so the yield is strictly between 0 and 1.
    let min_pole = format!("{:e}", s.median);
    let floor: f64 = min_pole.parse().unwrap();
    let pass = mags.iter().filter(|&&m| m >= floor).count();
    let y = pass as f64 / mags.len() as f64;
    let std_error = (y * (1.0 - y) / mags.len() as f64).sqrt();
    assert!(y > 0.0 && y < 1.0, "yield {y}");

    let stdout = stdout_of(&pmor(
        "mc",
        &path,
        &[
            "--instances",
            "60",
            "--sigma",
            "0.1",
            "--seed",
            "7",
            "--min-pole",
            &min_pole,
        ],
    ));
    assert_eq!(
        stdout.lines().next().unwrap(),
        format!(
            "# {} — {} states, 3 params, 60 instances, sigma 0.1",
            path.display(),
            rom.size()
        )
    );
    let stats = format!(
        "min {:.6e}  median {:.6e}  mean {:.6e}  max {:.6e}  std {:.3e}",
        s.min, s.median, s.mean, s.max, s.std
    );
    let yield_pct = format!("{:.1}% ± {:.1}%", 100.0 * y, 100.0 * std_error);
    for want in [&stats, &yield_pct] {
        assert!(stdout.contains(want.as_str()), "no {want:?} in\n{stdout}");
    }
}

#[test]
fn mc_refuses_a_zero_count_and_a_non_positive_sigma() {
    let (_dir, rom) = rom_file("mc_zero");
    for (flags, needle) in [
        (&["--instances", "0"][..], "instances"),
        (&["--sigma", "0"], "sigma"),
        (&["--min-pole", "-1e9"], "min_pole"),
    ] {
        let out = pmor("mc", &rom, flags);
        // Exit code 2 is the CLI's usage-error status.
        assert_eq!(out.status.code(), Some(2), "{flags:?} accepted: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{flags:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{flags:?} printed statistics");
    }
}

#[test]
fn eval_refuses_a_parameter_list_of_the_wrong_length() {
    let (_dir, rom) = rom_file("params_len");
    for params in ["0.1,0", "0.1,0,0,0"] {
        let out = eval(&rom, &["--params", params]);
        assert_eq!(out.status.code(), Some(2), "{params}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("3 parameters"), "{params}: {stderr}");
        assert!(out.stdout.is_empty(), "{params} printed rows");
    }
}

#[test]
fn eval_rejects_non_finite_inputs() {
    let (_dir, rom) = rom_file("non_finite");
    let ok = eval(&rom, &["--params", "0.1,0,0", "--points", "3"]);
    assert!(ok.status.success(), "{ok:?}");

    for flags in [
        &["--params", "nan,0,0"][..],
        &["--params", "0,inf,0"],
        &["--fmax", "inf"],
        &["--fmin", "NaN"],
    ] {
        let out = eval(&rom, flags);
        // Exit code 2 is the CLI's usage-error status.
        assert_eq!(out.status.code(), Some(2), "{flags:?} accepted: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("finite"), "{flags:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{flags:?} printed rows");
    }
}

#[test]
fn eval_exits_cleanly_when_the_reader_closes_the_pipe() {
    // `pmor eval … | head -1`: about 2.2 MB of CSV against a reader that
    // takes one line and goes. The closed pipe is a normal end, not a
    // panic.
    let (_dir, rom) = rom_file("closed_pipe");
    let mut child = Command::new(env!("CARGO_BIN_EXE_pmor"))
        .arg("eval")
        .arg(&rom)
        .args(["--points", "50000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert!(first.starts_with("# "), "{first}");
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn an_old_format_rom_is_refused_by_name_with_the_rebuild() {
    let (dir, rom) = rom_file("old_format");
    // A version-1 file: the current bytes with the header's version word
    // set to 1 (the format check comes before anything else is read).
    let mut bytes = std::fs::read(&rom).unwrap();
    assert_eq!(pmor::rom::format_version(&bytes), Some(2));
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    let old = dir.join("old.rom");
    std::fs::write(&old, &bytes).unwrap();
    for cmd in ["info", "eval", "mc"] {
        let out = Command::new(env!("CARGO_BIN_EXE_pmor"))
            .arg(cmd)
            .arg(&old)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{cmd}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        for needle in [
            old.to_str().unwrap(),
            "format version 1",
            "reads version 2",
            "pmor reduce",
        ] {
            assert!(stderr.contains(needle), "{cmd}: no {needle:?} in {stderr}");
        }
        assert!(!stderr.contains("computation failed"), "{cmd}: {stderr}");
        assert!(out.stdout.is_empty(), "{cmd} printed output");
    }
}
