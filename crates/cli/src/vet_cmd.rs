//! The `pmor vet` subcommand: eager validation of every shipped
//! scenario and benchmark suite, without executing any of them.
//!
//! ```text
//! pmor vet [root]      parse-check scenarios/ and scenarios/suites/
//! ```
//!
//! `pmor run` validates one file at a time, so a broken scenario or a
//! suite pointing at a renamed scenario only surfaces when someone runs
//! it. `vet` front-loads that: every `*.toml` under `scenarios/` goes
//! through [`Scenario::load`] (which also resolves and parses SPICE
//! deck paths), every suite under `scenarios/suites/` through
//! [`BenchSuite::load`], and every scenario a suite entry references is
//! loaded too — reference integrity, not just syntax. Nothing is
//! reduced or simulated; the whole pass is I/O plus parsing. Every
//! file is checked before the verdict, and the error names *all*
//! invalid files, mirroring `pmor bench --check` and `pmor lint
//! --validate`.

use crate::{CliError, Scenario};
use pmor_bench::suite::{BenchSuite, SuiteEntryKind};
use std::path::{Path, PathBuf};

/// What a vet pass covered (all parse-validated, nothing executed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VetReport {
    /// Scenario files under `scenarios/` that parsed cleanly.
    pub scenarios: usize,
    /// Suite files under `scenarios/suites/` that parsed cleanly.
    pub suites: usize,
    /// Scenario references inside suite entries that resolved and
    /// parsed (an already-vetted scenario counts again here — the
    /// reference itself is what's being checked).
    pub references: usize,
}

/// Vets every scenario and suite under `<root>/scenarios`.
///
/// # Errors
///
/// Fails when the scenario directory is missing or unreadable, or when
/// any scenario, suite, or suite→scenario reference fails to parse.
pub fn run_vet(root: &Path) -> Result<VetReport, CliError> {
    let scen_dir = root.join("scenarios");
    if !scen_dir.is_dir() {
        return Err(CliError::Invalid(format!(
            "{} is not a directory — run vet from the workspace root (or pass it)",
            scen_dir.display()
        )));
    }
    let mut report = VetReport::default();
    let mut failures = Vec::new();

    for path in toml_files(&scen_dir)? {
        match Scenario::load(&path) {
            Ok(_) => {
                report.scenarios += 1;
                outln!("# {}: ok", path.display());
            }
            Err(e) => {
                outln!("# {}: INVALID", path.display());
                failures.push(format!("{}: {e}", path.display()));
            }
        }
    }

    let suite_dir = scen_dir.join("suites");
    if suite_dir.is_dir() {
        for path in toml_files(&suite_dir)? {
            let suite = match BenchSuite::load(&path) {
                Ok(suite) => suite,
                Err(e) => {
                    outln!("# {}: INVALID", path.display());
                    failures.push(format!("{}: {e}", path.display()));
                    continue;
                }
            };
            let mut broken = 0usize;
            for entry in &suite.entries {
                let file = entry_scenario(&entry.kind);
                match Scenario::load(file) {
                    Ok(_) => report.references += 1,
                    Err(e) => {
                        broken += 1;
                        failures.push(format!(
                            "{} entry {:?}: referenced scenario {}: {e}",
                            path.display(),
                            entry.tag,
                            file.display()
                        ));
                    }
                }
            }
            if broken == 0 {
                report.suites += 1;
                outln!("# {}: ok", path.display());
            } else {
                outln!(
                    "# {}: INVALID ({broken} broken scenario references)",
                    path.display()
                );
            }
        }
    }

    outln!(
        "# vet: {} scenarios, {} suites, {} suite references validated, {} failures",
        report.scenarios,
        report.suites,
        report.references,
        failures.len()
    );
    if failures.is_empty() {
        Ok(report)
    } else {
        Err(CliError::Check(format!(
            "vet:\n  {}",
            failures.join("\n  ")
        )))
    }
}

/// The scenario file a suite entry references (every kind has one).
fn entry_scenario(kind: &SuiteEntryKind) -> &PathBuf {
    match kind {
        SuiteEntryKind::Scenario { file, .. }
        | SuiteEntryKind::Compare { file, .. }
        | SuiteEntryKind::Serve { file, .. } => file,
    }
}

/// Sorted `*.toml` files directly under `dir` (subdirectories like
/// `scenarios/decks` and `scenarios/suites` are handled separately).
fn toml_files(dir: &Path) -> Result<Vec<PathBuf>, CliError> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| CliError::Io(format!("reading {}: {e}", dir.display())))?
        .filter_map(|e| {
            let p = e.ok()?.path();
            (p.is_file() && p.extension().is_some_and(|x| x == "toml")).then_some(p)
        })
        .collect();
    paths.sort();
    Ok(paths)
}
