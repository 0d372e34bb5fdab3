//! `pmor eval` input validation, driven through the real binary: a
//! non-finite parameter or frequency is a usage error with a non-zero
//! exit, never a CSV of `NaN`/`inf` rows.

use pmor_circuits::generators::{clock_tree, ClockTreeConfig};
use std::path::PathBuf;
use std::process::{Command, Output};

/// A small lowrank ROM saved under the system temp dir.
fn rom_file() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pmor_eval_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sys = clock_tree(&ClockTreeConfig {
        num_nodes: 20,
        ..Default::default()
    })
    .assemble();
    let rom = pmor::reducer_by_name("lowrank", &sys)
        .unwrap()
        .reduce_once(&sys)
        .unwrap();
    let path = dir.join("tree.rom");
    pmor::rom::save(&rom, &path).unwrap();
    path
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
    let rom = rom_file();
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
    let _ = std::fs::remove_file(&rom);
}
