//! The `pmor lint` subcommand: workspace-wide determinism &
//! numeric-safety static analysis.
//!
//! ```text
//! pmor lint [--check] [--json] [--graph] [--out DIR] [root]   scan crates/*/src
//! pmor lint --validate <LINT_*.json|CALLGRAPH_*.json>...      validate reports
//! ```
//!
//! The scan prints findings as `file:line: rule: message`, plus every
//! unused or malformed suppression (both are errors — the allow ledger
//! never rots). `--json` writes a validated `LINT_workspace.json`
//! (into `--out`, default the working directory) in the same
//! line-per-record house format as `BENCH_*.json`; `--graph`
//! additionally writes `CALLGRAPH_workspace.json` — the workspace call
//! graph with kernel roots, panic sinks, and the witness path behind
//! every `panic-reachable-hot` finding, pre-suppression; `--check` makes a
//! non-clean report a hard failure, which is what CI gates on.

use crate::CliError;
use pmor_lint::{
    analyze_workspace, validate_callgraph_json, validate_lint_json, write_callgraph_json_in,
    write_lint_json_in, LintReport,
};
use std::path::Path;

/// Runs the workspace scan rooted at `root`.
///
/// # Errors
///
/// Fails on filesystem errors, on an unwritable `--json`/`--graph`
/// output, and — when `check` is set — on any finding, unused allow, or
/// malformed directive.
pub fn run_lint(
    root: &Path,
    json_out: Option<&Path>,
    graph_out: Option<&Path>,
    check: bool,
) -> Result<LintReport, CliError> {
    let analysis = analyze_workspace(root).map_err(|e| CliError::Io(e.to_string()))?;
    let report = analysis.report;
    for f in &report.findings {
        println!("{f}");
    }
    for a in report.allows.iter().filter(|a| !a.used) {
        println!(
            "{}:{}: unused allow: `{}` suppresses nothing here (reason was: {})",
            a.file,
            a.line,
            a.rule.name(),
            a.reason
        );
    }
    for b in &report.bad_allows {
        println!("{}:{}: bad allow directive: {}", b.file, b.line, b.message);
    }
    println!(
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
            .map_err(|e| CliError::Invalid(format!("{} failed validation: {e}", path.display())))?;
        println!("# wrote {}", path.display());
    }
    if let Some(dir) = graph_out {
        std::fs::create_dir_all(dir)
            .map_err(|e| CliError::Io(format!("creating {}: {e}", dir.display())))?;
        let path = write_callgraph_json_in(dir, "workspace", &analysis.graph, &analysis.transitive)
            .map_err(|e| CliError::Io(format!("writing CALLGRAPH_workspace.json: {e}")))?;
        let text = std::fs::read_to_string(&path)
            .map_err(|e| CliError::Io(format!("re-reading {}: {e}", path.display())))?;
        validate_callgraph_json(&text)
            .map_err(|e| CliError::Invalid(format!("{} failed validation: {e}", path.display())))?;
        println!(
            "# wrote {} ({} nodes, {} edges, {} witness paths)",
            path.display(),
            analysis.graph.nodes.len(),
            analysis.graph.edges.len(),
            analysis.transitive.len()
        );
    }
    if check && !report.clean() {
        return Err(CliError::Invalid(format!(
            "lint check failed: {} findings, {} unused allows, {} malformed directives",
            report.findings.len(),
            report.allows_unused(),
            report.bad_allows.len()
        )));
    }
    Ok(report)
}

/// `pmor lint --validate`: validates already-emitted `LINT_*.json` and
/// `CALLGRAPH_*.json` files against their schemas (picked by file
/// name — a `CALLGRAPH_` basename gets the call-graph validator).
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
        let is_graph = Path::new(path)
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with("CALLGRAPH_"));
        let verdict = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {path}: {e}"))
            .and_then(|text| {
                let checked = if is_graph {
                    validate_callgraph_json(&text)
                } else {
                    validate_lint_json(&text)
                };
                checked.map_err(|e| format!("{path} failed validation: {e}"))
            });
        match verdict {
            Ok(()) => println!("# {path}: ok"),
            Err(msg) => {
                println!("# {path}: INVALID");
                failures.push(msg);
            }
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(CliError::Invalid(format!(
            "{} of {} files failed validation:\n  {}",
            failures.len(),
            paths.len(),
            failures.join("\n  ")
        )))
    }
}
