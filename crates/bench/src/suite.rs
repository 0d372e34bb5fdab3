//! Declarative benchmark suites: the `pmor bench` file format.
//!
//! A suite is a TOML file (same hand-rolled [`crate::toml`] subset as
//! scenario files) describing what to measure and how hard:
//!
//! ```toml
//! [suite]
//! name = "default"
//! warmup = 1
//! repeats = 5
//!
//! [scenario-rc_mesh_stress]      # macro: reduce + analysis per method
//! file = "../rc_mesh_stress.toml"
//!
//! [compare-rc_mesh_parallel]     # serial vs parallel reduction
//! file = "../rc_mesh_stress.toml"
//! method = "multipoint"
//! ```
//!
//! Entry sections are `[scenario-<tag>]`, `[compare-<tag>]` and
//! `[serve-<tag>]` ([`SECTION_KINDS`]); the section-name suffix becomes
//! the entry's **tag**, and each entry emits one
//! `BENCH_<suite>_<tag>.json` record file. Entries run in section-name
//! order (the parser stores sections sorted), so a suite's output set
//! is deterministic.
//!
//! Every entry is a gate as well as a timing. Scenario entries can
//! **gate accuracy**: `gate_metric = "max_rel_err"` with
//! `gate_max = 1e-3` makes the run fail loudly when the named analysis
//! metric exceeds the bound — the large-tier suite uses this so a
//! 65k-unknown mesh is not just timed but also provably accurate.
//! Compare entries assert serial and parallel reductions bitwise
//! identical, and serve entries assert served responses bitwise
//! identical to the in-process engine and gate on throughput.
//!
//! This module owns the schema; every entry references a scenario file,
//! which the `pmor` CLI layer knows how to load and run.

use crate::toml::{self, Document, TomlError};
use std::path::{Path, PathBuf};

/// The entry-section kinds a suite accepts: `[<kind>-<tag>]`.
pub const SECTION_KINDS: [&str; 3] = ["scenario", "compare", "serve"];

/// Ceiling on a suite's `warmup` and `repeats` counts, and on the
/// `pmor bench` flags that override them. Every timing loop
/// preallocates one sample per repeat, so a larger count is refused
/// before anything runs.
pub const MAX_RUNS: usize = 10_000;

/// Checks a warm-up/repeat pair against [`MAX_RUNS`]: `repeats` must lie
/// in `1..=MAX_RUNS` and `warmup` in `0..=MAX_RUNS`.
///
/// # Errors
///
/// Names the offending count and the allowed range.
pub fn check_runs(warmup: usize, repeats: usize) -> Result<(), String> {
    if repeats == 0 || repeats > MAX_RUNS {
        return Err(format!("repeats must be in 1..={MAX_RUNS}, got {repeats}"));
    }
    if warmup > MAX_RUNS {
        return Err(format!("warmup must be in 0..={MAX_RUNS}, got {warmup}"));
    }
    Ok(())
}

/// A parsed benchmark suite.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSuite {
    /// Suite name: part of every emitted `BENCH_<name>_<tag>.json`.
    pub name: String,
    /// Free-form description (printed in the run banner).
    pub description: String,
    /// Untimed warm-up runs before the timed repeats.
    pub warmup: usize,
    /// Timed repeats per measurement; the recorded number is the median.
    pub repeats: usize,
    /// The measurements, in deterministic (section-name) order.
    pub entries: Vec<SuiteEntry>,
}

/// One measurement of a suite.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteEntry {
    /// Entry tag: the `BENCH_<suite>_<tag>.json` suffix.
    pub tag: String,
    /// What to measure.
    pub kind: SuiteEntryKind,
}

/// The kinds of suite entries.
#[derive(Debug, Clone, PartialEq)]
pub enum SuiteEntryKind {
    /// A scenario file run end-to-end (reduce + analysis per method),
    /// timed as a whole. Executed by the CLI layer.
    Scenario {
        /// Scenario path, resolved against the suite file's directory.
        file: PathBuf,
        /// Optional accuracy gate: the named analysis metric must stay
        /// at or below the bound in **every** emitted record that
        /// carries it (at least one must), or the entry fails loudly.
        gate: Option<(String, f64)>,
    },
    /// Serial (threads = 1) vs parallel (at least 4 workers, more when
    /// the machine has them) reduction of a scenario's system with one
    /// method, with a bitwise-equality check of the two ROMs' transfer
    /// values. Executed by the CLI layer.
    Compare {
        /// Scenario path providing the system, resolved like `Scenario`.
        file: PathBuf,
        /// Reduction method (registry name); multi-shift methods
        /// (`multipoint`, `fit`) are the ones with a parallel path.
        method: String,
    },
    /// A load test of the `pmor serve` daemon: reduce the scenario's
    /// system once, host the ROM in a daemon (in-process by default, or
    /// an externally started one via `addr` / `--serve-addr`), hammer
    /// it from concurrent client threads, assert every served response
    /// bitwise identical to an in-process engine, and gate on sustained
    /// throughput. Executed by the CLI layer.
    Serve {
        /// Scenario path providing the system, resolved like `Scenario`.
        file: PathBuf,
        /// Reduction method (registry name) producing the hosted ROM.
        method: String,
        /// Concurrent client threads (each with its own connection).
        clients: usize,
        /// Eval requests per client per timed run.
        batches: usize,
        /// Points per eval request.
        batch_points: usize,
        /// Throughput gate: the run fails unless the measured sustained
        /// rate reaches this many point evaluations per second.
        min_evals_per_sec: Option<f64>,
        /// Address of an externally started daemon to test instead of
        /// the in-process one (`host:port` or `unix:<path>`); the CLI's
        /// `--serve-addr` flag overrides this.
        addr: Option<String>,
    },
}

fn fail<T>(msg: impl Into<String>) -> Result<T, TomlError> {
    Err(TomlError {
        line: 0,
        msg: msg.into(),
    })
}

impl BenchSuite {
    /// Loads and validates a suite from a TOML file; relative scenario
    /// paths inside it resolve against the suite file's directory.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, TOML parse errors, and schema violations
    /// (unknown section kind, missing `file`, out-of-range counts, …).
    pub fn load(path: impl AsRef<Path>) -> Result<BenchSuite, TomlError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| TomlError {
            line: 0,
            msg: format!("reading {}: {e}", path.display()),
        })?;
        BenchSuite::parse_at(&text, path.parent())
    }

    /// Parses a suite from TOML text, resolving relative scenario paths
    /// against `base`.
    ///
    /// # Errors
    ///
    /// See [`BenchSuite::load`].
    pub fn parse_at(text: &str, base: Option<&Path>) -> Result<BenchSuite, TomlError> {
        let doc = toml::parse(text)?;
        let name = doc.str_req("suite", "name")?.to_string();
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return fail(format!(
                "[suite] name {name:?} must be nonempty and filename-safe ([A-Za-z0-9_-])"
            ));
        }
        let description = doc
            .str_opt("suite", "description")?
            .unwrap_or("")
            .to_string();
        let warmup = doc.usize_or("suite", "warmup", 1)?;
        let repeats = doc.usize_or("suite", "repeats", 5)?;
        check_runs(warmup, repeats).or_else(|msg| fail(format!("[suite] {msg}")))?;
        for key in doc
            .section("suite")
            .map(|t| t.keys().cloned().collect::<Vec<_>>())
            .unwrap_or_default()
        {
            if !["name", "description", "warmup", "repeats"].contains(&key.as_str()) {
                return fail(format!("[suite]: unknown key `{key}`"));
            }
        }
        let mut entries = Vec::new();
        for section in doc.section_names() {
            match section {
                "" | "suite" => continue,
                s if s.starts_with("scenario-") => {
                    let tag = s["scenario-".len()..].to_string();
                    let file = parse_file(&doc, s, base, &["file", "gate_metric", "gate_max"])?;
                    let gate = match (doc.str_opt(s, "gate_metric")?, doc.f64_opt(s, "gate_max")?) {
                        (None, None) => None,
                        (Some(metric), Some(max)) => {
                            if metric.is_empty() || !max.is_finite() || max < 0.0 {
                                return fail(format!(
                                    "[{s}]: gate_metric must be nonempty and gate_max a \
                                     finite nonnegative number"
                                ));
                            }
                            Some((metric.to_string(), max))
                        }
                        _ => {
                            return fail(format!(
                                "[{s}]: gate_metric and gate_max must be given together"
                            ))
                        }
                    };
                    entries.push(SuiteEntry {
                        tag,
                        kind: SuiteEntryKind::Scenario { file, gate },
                    });
                }
                s if s.starts_with("compare-") => {
                    let tag = s["compare-".len()..].to_string();
                    let file = parse_file(&doc, s, base, &["file", "method"])?;
                    let method = doc
                        .str_opt(s, "method")?
                        .unwrap_or("multipoint")
                        .to_string();
                    entries.push(SuiteEntry {
                        tag,
                        kind: SuiteEntryKind::Compare { file, method },
                    });
                }
                s if s.starts_with("serve-") => {
                    let tag = s["serve-".len()..].to_string();
                    let file = parse_file(
                        &doc,
                        s,
                        base,
                        &[
                            "file",
                            "method",
                            "clients",
                            "batches",
                            "batch_points",
                            "min_evals_per_sec",
                            "addr",
                        ],
                    )?;
                    let method = doc.str_opt(s, "method")?.unwrap_or("lowrank").to_string();
                    let clients = doc.usize_or(s, "clients", 4)?;
                    if clients == 0 || clients > 64 {
                        return fail(format!("[{s}]: clients must be in 1..=64, got {clients}"));
                    }
                    let batches = doc.usize_or(s, "batches", 4)?;
                    if batches == 0 {
                        return fail(format!("[{s}]: batches must be at least 1"));
                    }
                    let batch_points = doc.usize_or(s, "batch_points", 64)?;
                    if batch_points == 0 || batch_points > 65_536 {
                        return fail(format!(
                            "[{s}]: batch_points must be in 1..=65536, got {batch_points}"
                        ));
                    }
                    let min_evals_per_sec = match doc.f64_opt(s, "min_evals_per_sec")? {
                        None => None,
                        Some(v) => {
                            if !v.is_finite() || v <= 0.0 {
                                return fail(format!(
                                    "[{s}]: min_evals_per_sec must be a finite positive \
                                     number, got {v}"
                                ));
                            }
                            Some(v)
                        }
                    };
                    let addr = doc.str_opt(s, "addr")?.map(str::to_string);
                    if let Some(a) = &addr {
                        if a.is_empty() {
                            return fail(format!("[{s}]: addr must not be empty"));
                        }
                    }
                    entries.push(SuiteEntry {
                        tag,
                        kind: SuiteEntryKind::Serve {
                            file,
                            method,
                            clients,
                            batches,
                            batch_points,
                            min_evals_per_sec,
                            addr,
                        },
                    });
                }
                other => {
                    let kinds: Vec<String> = SECTION_KINDS
                        .iter()
                        .map(|k| format!("[{k}-<tag>]"))
                        .collect();
                    return fail(format!(
                        "unknown section [{other}]; entry sections are {}",
                        kinds.join(", ")
                    ));
                }
            }
        }
        if entries.is_empty() {
            return fail("suite has no entries");
        }
        // Tags name the output files (`BENCH_<suite>_<tag>.json`), so an
        // empty tag ([scenario-]) or a collision ([scenario-mesh] +
        // [compare-mesh]) would produce a nameless file or silently
        // clobber one entry's records with the other's.
        for (i, entry) in entries.iter().enumerate() {
            if entry.tag.is_empty() {
                return fail("entry section needs a tag after the dash (e.g. [scenario-mesh])");
            }
            if entries[..i].iter().any(|e| e.tag == entry.tag) {
                return fail(format!(
                    "duplicate entry tag {:?}: two sections would both write \
                     BENCH_{name}_{}.json",
                    entry.tag, entry.tag
                ));
            }
        }
        Ok(BenchSuite {
            name,
            description,
            warmup,
            repeats,
            entries,
        })
    }
}

/// Parses the `file` key of an entry section, checking the
/// section's key set against `allowed`.
fn parse_file(
    doc: &Document,
    sec: &str,
    base: Option<&Path>,
    allowed: &[&str],
) -> Result<PathBuf, TomlError> {
    for key in doc
        .section(sec)
        .map(|t| t.keys().cloned().collect::<Vec<_>>())
        .unwrap_or_default()
    {
        if !allowed.contains(&key.as_str()) {
            return fail(format!("[{sec}]: unknown key `{key}`"));
        }
    }
    let rel = doc.str_req(sec, "file")?;
    Ok(match base {
        Some(base) => base.join(rel),
        None => PathBuf::from(rel),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SUITE: &str = r#"
[suite]
name = "unit"
description = "suite schema test"
repeats = 2

[scenario-stress]
file = "sub/stress.toml"
gate_metric = "max_rel_err"
gate_max = 1e-3

[compare-par]
file = "sub/stress.toml"
method = "fit"

[serve-daemon]
file = "sub/stress.toml"
method = "lowrank"
clients = 4
batches = 3
batch_points = 32
min_evals_per_sec = 1000.0
"#;

    #[test]
    fn parses_every_entry_kind_with_resolved_paths() {
        let suite = BenchSuite::parse_at(SUITE, Some(Path::new("/base"))).unwrap();
        assert_eq!(suite.name, "unit");
        assert_eq!(suite.warmup, 1);
        assert_eq!(suite.repeats, 2);
        assert_eq!(suite.entries.len(), SECTION_KINDS.len());
        // Section-name order: compare-par < scenario-stress < serve-daemon.
        assert_eq!(suite.entries[0].tag, "par");
        assert_eq!(suite.entries[1].tag, "stress");
        assert_eq!(suite.entries[2].tag, "daemon");
        match &suite.entries[0].kind {
            SuiteEntryKind::Compare { file, method } => {
                assert_eq!(file, &PathBuf::from("/base/sub/stress.toml"));
                assert_eq!(method, "fit");
            }
            other => panic!("wrong kind: {other:?}"),
        }
        match &suite.entries[1].kind {
            SuiteEntryKind::Scenario { file, gate } => {
                assert_eq!(file, &PathBuf::from("/base/sub/stress.toml"));
                assert_eq!(gate, &Some(("max_rel_err".to_string(), 1e-3)));
            }
            other => panic!("wrong kind: {other:?}"),
        }
        match &suite.entries[2].kind {
            SuiteEntryKind::Serve {
                file,
                method,
                clients,
                batches,
                batch_points,
                min_evals_per_sec,
                addr,
            } => {
                assert_eq!(file, &PathBuf::from("/base/sub/stress.toml"));
                assert_eq!(method, "lowrank");
                assert_eq!((*clients, *batches, *batch_points), (4, 3, 32));
                assert_eq!(min_evals_per_sec, &Some(1000.0));
                assert_eq!(addr, &None);
            }
            other => panic!("wrong kind: {other:?}"),
        }
        // A compare entry defaults to the multipoint method.
        let text = SUITE.replace("method = \"fit\"\n", "");
        match &BenchSuite::parse_at(&text, None).unwrap().entries[0].kind {
            SuiteEntryKind::Compare { method, .. } => assert_eq!(method, "multipoint"),
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn serve_entry_defaults_and_addr_parse() {
        let text =
            "[suite]\nname = \"s\"\n\n[serve-d]\nfile = \"x.toml\"\naddr = \"127.0.0.1:7878\"\n";
        let suite = BenchSuite::parse_at(text, None).unwrap();
        match &suite.entries[0].kind {
            SuiteEntryKind::Serve {
                method,
                clients,
                batches,
                batch_points,
                min_evals_per_sec,
                addr,
                ..
            } => {
                assert_eq!(method, "lowrank");
                assert_eq!((*clients, *batches, *batch_points), (4, 4, 64));
                assert_eq!(min_evals_per_sec, &None);
                assert_eq!(addr.as_deref(), Some("127.0.0.1:7878"));
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn rejects_schema_violations() {
        for (mutation, what) in [
            (
                SUITE.replace("[compare-par]", "[bogus-par]"),
                "unknown section",
            ),
            (SUITE.replace("repeats = 2", "repeats = 0"), "zero repeats"),
            (
                SUITE.replace(
                    "file = \"sub/stress.toml\"\nmethod = \"fit\"",
                    "method = \"fit\"",
                ),
                "missing file",
            ),
            (
                SUITE.replace("name = \"unit\"", "name = \"a b\""),
                "unsafe name",
            ),
            (
                SUITE.replace("repeats = 2", "repeatz = 2"),
                "typoed suite key",
            ),
            (
                SUITE.replace("[scenario-stress]", "[scenario-par]"),
                "duplicate entry tag (would clobber BENCH output)",
            ),
            (
                SUITE.replace("[scenario-stress]", "[scenario-]"),
                "empty entry tag (nameless BENCH file)",
            ),
            (
                SUITE.replace("gate_max = 1e-3", ""),
                "gate_metric without gate_max",
            ),
            (
                SUITE.replace("gate_max = 1e-3", "gate_max = -1.0"),
                "negative gate bound",
            ),
            (
                SUITE.replace("method = \"fit\"", "methud = \"fit\""),
                "typoed compare key",
            ),
            (SUITE.replace("clients = 4", "clients = 0"), "zero clients"),
            (
                SUITE.replace("clients = 4", "clients = 65"),
                "too many clients",
            ),
            (
                SUITE.replace("batch_points = 32", "batch_points = 0"),
                "zero batch points",
            ),
            (
                SUITE.replace("min_evals_per_sec = 1000.0", "min_evals_per_sec = -1.0"),
                "negative throughput gate",
            ),
            (
                SUITE.replace("batches = 3", "batchez = 3"),
                "typoed serve key",
            ),
        ] {
            assert!(
                BenchSuite::parse_at(&mutation, None).is_err(),
                "{what} accepted"
            );
        }
        let empty = "[suite]\nname = \"x\"\n";
        assert!(BenchSuite::parse_at(empty, None)
            .unwrap_err()
            .to_string()
            .contains("no entries"));
        // `[micro]` and `[refactor-*]` sections fail loudly, naming only
        // the kinds a suite accepts.
        for old in [
            "[micro]\nsides = [4]\n",
            "[micro-k]\nsides = [4]\n",
            "[refactor-x]\nfile = \"sub/stress.toml\"\n",
        ] {
            let err = BenchSuite::parse_at(&format!("{SUITE}\n{old}"), None)
                .unwrap_err()
                .to_string();
            assert!(err.contains("unknown section"), "{err}");
            assert!(
                err.ends_with(
                    "entry sections are [scenario-<tag>], [compare-<tag>], [serve-<tag>]"
                ),
                "{err}"
            );
        }
    }

    #[test]
    fn warmup_and_repeats_are_bounded() {
        assert_eq!(check_runs(0, 1), Ok(()));
        assert_eq!(check_runs(MAX_RUNS, MAX_RUNS), Ok(()));
        assert!(check_runs(0, 0).unwrap_err().contains("repeats"));
        assert!(check_runs(0, MAX_RUNS + 1).unwrap_err().contains("repeats"));
        assert!(check_runs(MAX_RUNS + 1, 1).unwrap_err().contains("warmup"));
        assert!(check_runs(0, usize::MAX).is_err());
        // The suite keys go through the same check: 4e9 is a valid TOML
        // integer but would preallocate 32 GB of timing samples.
        for (from, to, key) in [
            ("repeats = 2", "repeats = 4000000000", "repeats"),
            ("repeats = 2", "repeats = 10001", "repeats"),
            ("repeats = 2", "repeats = 2\nwarmup = 10001", "warmup"),
        ] {
            let err = BenchSuite::parse_at(&SUITE.replace(from, to), None)
                .unwrap_err()
                .to_string();
            assert!(err.contains(&format!("[suite] {key} must be in")), "{err}");
        }
        let at_ceiling = SUITE.replace("repeats = 2", "repeats = 10000\nwarmup = 10000");
        let suite = BenchSuite::parse_at(&at_ceiling, None).unwrap();
        assert_eq!((suite.warmup, suite.repeats), (MAX_RUNS, MAX_RUNS));
    }
}
