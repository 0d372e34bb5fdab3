//! End-to-end tests for `pmor lint`: the workspace scan through the CLI
//! layer, the emitted `LINT_*.json` report, and the `--validate`
//! checker's all-invalid-files reporting and exit status.

use pmor_cli::lint_cmd::{run_lint, validate_files};
use pmor_lint::{validate_lint_json, write_lint_json_in, LintReport};
use std::path::PathBuf;
use std::process::Command;

#[path = "../../../tests/support/temp_dir.rs"]
mod temp_dir;
use temp_dir::TempDir;

/// A unique per-test directory under the system temp dir.
fn out_dir(tag: &str) -> TempDir {
    TempDir::new(&format!("lint_test_{tag}"))
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn lint_check_passes_on_the_workspace_and_writes_valid_json() {
    let dir = out_dir("workspace");
    // --check mode: the audited workspace must come back clean.
    let report = run_lint(&repo_root(), Some(&dir), true).unwrap();
    assert!(report.clean());
    assert!(
        report.allows_used() > 0,
        "the audit ledger should be in use"
    );
    // The emitted report validates and names the workspace tag.
    let path = dir.join("LINT_workspace.json");
    let text = std::fs::read_to_string(&path).unwrap();
    validate_lint_json(&text).unwrap();
    assert!(text.contains("\"tag\": \"workspace\""), "{text}");
    assert!(text.contains("\"files_scanned\""), "{text}");
    // The written report goes through the --validate front door.
    validate_files(&[path.to_str().unwrap().to_string()]).unwrap();
}

#[test]
fn validate_reports_all_invalid_files_not_just_the_first() {
    let dir = out_dir("mixed");
    // One genuinely valid report…
    let good = write_lint_json_in(&dir, "good", &LintReport::default()).unwrap();
    // …and two broken ones: truncated JSON and an unregistered rule id.
    let trunc = dir.join("LINT_trunc.json");
    std::fs::write(&trunc, "{\n  \"tag\": \"trunc\"\n").unwrap();
    let bogus = dir.join("LINT_bogus.json");
    let mut text = std::fs::read_to_string(&good).unwrap();
    text = text.replace(
        "\"findings\": [\n",
        "\"findings\": [\n    {\"rule\": \"not-a-rule\", \"file\": \"x.rs\", \"line\": 1, \"message\": \"m\"}\n",
    );
    std::fs::write(&bogus, text).unwrap();

    let paths: Vec<String> = [&good, &trunc, &bogus]
        .iter()
        .map(|p| p.to_str().unwrap().to_string())
        .collect();
    let err = validate_files(&paths).unwrap_err().to_string();
    // Both failures are named; the valid file is not.
    assert!(err.contains("LINT_trunc.json"), "{err}");
    assert!(err.contains("LINT_bogus.json"), "{err}");
    assert!(err.contains("2 of 3"), "{err}");
    assert!(!err.contains("LINT_good.json"), "{err}");

    // All-valid input passes; empty input is a usage error.
    validate_files(&[good.to_str().unwrap().to_string()]).unwrap();
    assert!(validate_files(&[]).is_err());
    assert!(validate_files(&["/definitely/missing.json".into()]).is_err());
}

#[test]
fn validate_failure_exits_1_as_a_failed_check() {
    // A report cut short is a check that ran and failed: exit status 1,
    // reported as such rather than as a bad scenario.
    let dir = out_dir("cut");
    let path = write_lint_json_in(&dir, "cut", &LintReport::default()).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &text[..text.len() - 2]).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_pmor"))
        .args(["lint", "--validate"])
        .arg(&path)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("check failed"), "{stderr}");
    assert!(!stderr.contains("scenario"), "{stderr}");
}
