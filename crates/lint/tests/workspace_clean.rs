//! The workspace audit gate: the real repository must lint clean —
//! zero findings, zero unused allows, zero malformed directives — and
//! every suppression must carry a reason. This is the same invariant
//! `pmor lint --check` enforces in CI, asserted here so `cargo test`
//! alone catches a regression.

use pmor_lint::lint_workspace;
use std::path::PathBuf;

fn repo_root() -> PathBuf {
    // This test lives in crates/lint, two levels down.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn the_workspace_lints_clean() {
    let report = lint_workspace(&repo_root()).expect("workspace scan");
    assert!(report.files_scanned > 50, "scan looks truncated");
    let findings: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
    assert!(
        findings.is_empty(),
        "lint findings:\n{}",
        findings.join("\n")
    );
    let unused: Vec<String> = report
        .allows
        .iter()
        .filter(|a| !a.used)
        .map(|a| format!("{}:{}: {}", a.file, a.line, a.rule.name()))
        .collect();
    assert!(unused.is_empty(), "unused allows:\n{}", unused.join("\n"));
    assert!(report.bad_allows.is_empty(), "{:?}", report.bad_allows);
    assert!(report.clean());
}

#[test]
fn every_suppression_carries_a_reason() {
    let report = lint_workspace(&repo_root()).expect("workspace scan");
    for a in &report.allows {
        assert!(
            !a.reason.trim().is_empty(),
            "{}:{}: allow({}) without a reason",
            a.file,
            a.line,
            a.rule.name()
        );
    }
}
