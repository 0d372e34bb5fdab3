//! `pmor eval` driven through the real binary: a non-finite parameter or
//! frequency is a usage error with a non-zero exit, never a CSV of
//! `NaN`/`inf` rows, and a reader that stops early ends the sweep cleanly.

use pmor_circuits::generators::{clock_tree, ClockTreeConfig};
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

fn eval(rom: &PathBuf, flags: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pmor"))
        .arg("eval")
        .arg(rom)
        .args(flags)
        .output()
        .unwrap()
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
