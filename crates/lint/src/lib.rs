#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! `pmor-lint`: workspace-wide determinism & numeric-safety static
//! analysis.
//!
//! The workspace's headline guarantees — threads 1 vs N bitwise
//! identical, zero hidden factorizations, allocation-free eval kernels,
//! loud typed errors — are enforced at runtime by the conformance
//! tests, but a runtime test catches a violation only on the inputs it
//! runs. In the spirit of proof-carrying numeric claims, this crate
//! checks the invariants *statically* on every source line: a
//! hand-rolled scanner ([`scan`]) feeds a registry of
//! rules ([`rules::LintKind`], symmetric to `ReducerKind` /
//! `AnalysisKind`) and the results land in validated `LINT_*.json`
//! reports ([`report`]) next to the `BENCH_*.json` machinery.
//!
//! Every rule reads one file at a time; nothing here resolves calls
//! across files. Claims about what a call chain does are proven at
//! runtime instead: the allocation-free eval kernels by the counting
//! allocator in `tests/eval_allocations.rs` (`alloc-in-kernel` stays
//! here as the per-file early warning for new `_into` kernels), and the
//! ROM decoder's handling of outside input by the resealed-payload
//! cases in `tests/rom_serialization.rs`.
//!
//! Suppressions are scoped comments that **must** carry a reason:
//!
//! ```text
//! // pmor-lint: allow(panic-in-lib) reason="mutex poisoning requires a prior worker panic"
//! let slot = queue.lock().unwrap();
//! ```
//!
//! An own-line directive covers the next code line; a trailing one
//! covers its own line; several rules may be listed with commas. An
//! allow that suppresses nothing is itself an error, as is one without
//! a reason — the workspace's suppression set is a permanent,
//! reviewable ledger, never a graveyard.
//!
//! Run it as `pmor lint [--json] [--check]`; `cargo test -p pmor-lint`
//! additionally gates the workspace through
//! `tests/workspace_clean.rs`.

pub mod report;
pub mod rules;
pub mod scan;

pub use report::{
    validate_lint_json, write_lint_json_in, BadAllowEntry, Finding, LedgerEntry, LintReport,
};
pub use rules::{LintKind, LintRule};
pub use scan::SourceFile;

use std::fmt;
use std::path::{Path, PathBuf};

/// A lint-run failure (not a finding: findings live in [`LintReport`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LintError {
    /// Filesystem failure while walking or reading sources.
    Io(String),
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for LintError {}

/// Runs the per-file rules and applies each file's suppressions over
/// an already-scanned file set.
pub fn analyze_sources(files: &[SourceFile]) -> LintReport {
    let mut report = LintReport {
        files_scanned: files.len(),
        ..LintReport::default()
    };
    for file in files {
        let (findings, ledger, bad) = apply_allows(file, rules::check_file(file));
        report.findings.extend(findings);
        report.allows.extend(ledger);
        report.bad_allows.extend(bad);
    }
    report
}

/// Lints one file's contents under a workspace-relative `path` label.
/// Returns the surviving findings plus the ledger entries and
/// malformed directives the file contributes. This is the unit the
/// fixture tests drive.
pub fn lint_text(path: &str, text: &str) -> (Vec<Finding>, Vec<LedgerEntry>, Vec<BadAllowEntry>) {
    let report = analyze_sources(&[SourceFile::parse(path, text)]);
    (report.findings, report.allows, report.bad_allows)
}

/// Applies a file's suppression directives to its raw findings: a
/// finding whose line is an allow's target and whose rule is listed is
/// suppressed; each (directive × rule) pair becomes a ledger entry,
/// `used` when it suppressed at least one finding.
fn apply_allows(
    file: &SourceFile,
    raw: Vec<Finding>,
) -> (Vec<Finding>, Vec<LedgerEntry>, Vec<BadAllowEntry>) {
    let mut used = vec![false; file.allows.iter().map(|a| a.rules.len()).sum()];
    // Flat (directive, rule) pairs in file order.
    let pairs: Vec<(usize, &scan::AllowSite, LintKind)> = {
        let mut v = Vec::new();
        let mut idx = 0usize;
        for site in &file.allows {
            for &rule in &site.rules {
                v.push((idx, site, rule));
                idx += 1;
            }
        }
        v
    };
    let mut findings = Vec::new();
    for f in raw {
        let suppressed = pairs
            .iter()
            .find(|(_, site, rule)| *rule == f.rule && site.target_line == f.line);
        match suppressed {
            Some((idx, _, _)) => used[*idx] = true,
            None => findings.push(f),
        }
    }
    let ledger = pairs
        .iter()
        .map(|(idx, site, rule)| LedgerEntry {
            rule: *rule,
            file: file.path.clone(),
            line: site.line,
            reason: site.reason.clone(),
            used: used[*idx],
        })
        .collect();
    let bad = file
        .bad_allows
        .iter()
        .map(|b| BadAllowEntry {
            file: file.path.clone(),
            line: b.line,
            message: b.message.clone(),
        })
        .collect();
    (findings, ledger, bad)
}

/// Every `.rs` file under `crates/*/src/`, workspace-relative with `/`
/// separators, sorted — the scan set of `pmor lint` and of the
/// workspace-clean test. Root `tests/`, `examples/`, crate `tests/`
/// and fixtures are runtime-test territory and deliberately out of
/// scope.
///
/// # Errors
///
/// Fails when `root` has no `crates/` directory or a listing fails.
pub fn workspace_sources(root: &Path) -> Result<Vec<PathBuf>, LintError> {
    let crates = root.join("crates");
    let mut members: Vec<PathBuf> = std::fs::read_dir(&crates)
        .map_err(|e| LintError::Io(format!("reading {}: {e}", crates.display())))?
        .filter_map(|e| {
            let p = e.ok()?.path();
            p.is_dir().then_some(p)
        })
        .collect();
    members.sort();
    let mut out = Vec::new();
    for member in members {
        let src = member.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut stack = vec![src];
        let mut files = Vec::new();
        while let Some(dir) = stack.pop() {
            let entries = std::fs::read_dir(&dir)
                .map_err(|e| LintError::Io(format!("reading {}: {e}", dir.display())))?;
            for entry in entries {
                let path = entry
                    .map_err(|e| LintError::Io(format!("reading {}: {e}", dir.display())))?
                    .path();
                if path.is_dir() {
                    stack.push(path);
                } else if path.extension().is_some_and(|e| e == "rs") {
                    files.push(path);
                }
            }
        }
        files.sort();
        out.extend(files);
    }
    Ok(out)
}

/// Scans and lints every workspace source under `root` (see
/// [`workspace_sources`]) and aggregates the report.
///
/// # Errors
///
/// Fails on walk or read errors; findings are *not* errors — inspect
/// [`LintReport::clean`].
pub fn lint_workspace(root: &Path) -> Result<LintReport, LintError> {
    let paths = workspace_sources(root)?;
    let mut files = Vec::with_capacity(paths.len());
    for path in &paths {
        let text = std::fs::read_to_string(path)
            .map_err(|e| LintError::Io(format!("reading {}: {e}", path.display())))?;
        files.push(SourceFile::parse(&relative_label(root, path), &text));
    }
    Ok(analyze_sources(&files))
}

/// `path` relative to `root` with `/` separators, for stable report
/// labels across platforms.
fn relative_label(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allows_suppress_and_ledger_tracks_usage() {
        let src = "\
// pmor-lint: allow(det-wallclock) reason=\"provenance stamp only\"
let t = Instant::now();
let u = Instant::now();
";
        let (findings, ledger, bad) = lint_text("crates/core/src/x.rs", src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 3);
        assert_eq!(ledger.len(), 1);
        assert!(ledger[0].used);
        assert!(bad.is_empty());
    }

    #[test]
    fn unused_allows_surface_in_the_ledger() {
        let src = "// pmor-lint: allow(det-wallclock) reason=\"stale\"\nlet x = 1;\n";
        let (findings, ledger, _) = lint_text("crates/core/src/x.rs", src);
        assert!(findings.is_empty());
        assert_eq!(ledger.len(), 1);
        assert!(!ledger[0].used);
        let report = LintReport {
            files_scanned: 1,
            findings,
            allows: ledger,
            bad_allows: Vec::new(),
        };
        assert_eq!(report.allows_unused(), 1);
        assert!(!report.clean());
    }
}
