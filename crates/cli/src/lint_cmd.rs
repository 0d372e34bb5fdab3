//! The `pmor lint` subcommand: workspace-wide determinism &
//! numeric-safety static analysis.
//!
//! ```text
//! pmor lint [--check] [--json] [--out DIR] [root]   scan crates/*/src
//! pmor lint --validate <LINT_*.json>...             validate emitted reports
//! ```
//!
//! The scan prints findings as `file:line: rule: message`, plus every
//! unused or malformed suppression (both are errors — the allow ledger
//! never rots). `--json` writes a validated `LINT_workspace.json`
//! (into `--out`, default the working directory) in the same
//! line-per-record house format as `BENCH_*.json`; `--check` makes a
//! non-clean report a hard failure, which is what CI gates on.

use crate::CliError;
use pmor_lint::{lint_workspace, validate_lint_json, write_lint_json_in, LintReport};
use std::path::Path;

/// Runs the workspace scan rooted at `root`.
///
/// # Errors
///
/// Fails on filesystem errors, on an unwritable `--json` output, and —
/// when `check` is set — on any finding, unused allow, or malformed
/// directive.
pub fn run_lint(root: &Path, json_out: Option<&Path>, check: bool) -> Result<LintReport, CliError> {
    let report = lint_workspace(root).map_err(|e| CliError::Io(e.to_string()))?;
    for f in &report.findings {
        outln!("{f}");
    }
    for a in report.allows.iter().filter(|a| !a.used) {
        outln!(
            "{}:{}: unused allow: `{}` suppresses nothing here (reason was: {})",
            a.file,
            a.line,
            a.rule.name(),
            a.reason
        );
    }
    for b in &report.bad_allows {
        outln!("{}:{}: bad allow directive: {}", b.file, b.line, b.message);
    }
    outln!(
        "# lint: {} files scanned, {} findings, {} allows used, {} unused, {} malformed",
        report.files_scanned,
        report.findings.len(),
        report.allows_used(),
        report.allows_unused(),
        report.bad_allows.len()
    );
    if let Some(dir) = json_out {
        std::fs::create_dir_all(dir)
            .map_err(|e| CliError::Io(format!("creating {}: {e}", dir.display())))?;
        let path = write_lint_json_in(dir, "workspace", &report)
            .map_err(|e| CliError::Io(format!("writing LINT_workspace.json: {e}")))?;
        let text = std::fs::read_to_string(&path)
            .map_err(|e| CliError::Io(format!("re-reading {}: {e}", path.display())))?;
        validate_lint_json(&text)
            .map_err(|e| CliError::Check(format!("{} failed validation: {e}", path.display())))?;
        outln!("# wrote {}", path.display());
    }
    if check && !report.clean() {
        return Err(CliError::Check(format!(
            "lint: {} findings, {} unused allows, {} malformed directives",
            report.findings.len(),
            report.allows_unused(),
            report.bad_allows.len()
        )));
    }
    Ok(report)
}

/// `pmor lint --validate`: validates already-emitted `LINT_*.json`
/// files against the report schema.
///
/// # Errors
///
/// Fails when any file is unreadable or structurally invalid. Every
/// file is checked before the verdict — the error names *all* invalid
/// files, mirroring `pmor bench --check`.
pub fn validate_files(paths: &[String]) -> Result<(), CliError> {
    if paths.is_empty() {
        return Err(CliError::Usage("--validate needs at least one file".into()));
    }
    let mut failures = Vec::new();
    for path in paths {
        let verdict = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {path}: {e}"))
            .and_then(|text| {
                validate_lint_json(&text).map_err(|e| format!("{path} failed validation: {e}"))
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
