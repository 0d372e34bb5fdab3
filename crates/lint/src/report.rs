//! Machine-readable lint reports: `LINT_<tag>.json`.
//!
//! The format mirrors the `BENCH_*.json` discipline from `pmor-bench`:
//! a flat, line-per-record layout written with the shared `pmor-json`
//! primitives, and a validator ([`validate_lint_json`]) that parses the
//! file and checks its schema, run by the CI artifact gate — so a lint trajectory can be
//! diffed across PRs exactly like the bench trajectory. On top of the
//! findings, the report carries the full **allow ledger**: every
//! suppression in the workspace, with its reason and whether it still
//! suppresses anything (an unused allow is itself an error — the
//! ledger never rots).

use crate::rules::LintKind;
use pmor_json::{parse_json, push_string, Json, Kind};
use std::io::Write;
use std::path::PathBuf;

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The violated rule.
    pub rule: LintKind,
    /// Workspace-relative file path (`/` separators).
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// What is wrong and what to do about it.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file,
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

/// One ledger entry: a suppression directive and its standing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerEntry {
    /// The rule the directive suppresses.
    pub rule: LintKind,
    /// File of the directive.
    pub file: String,
    /// 1-based line of the directive.
    pub line: usize,
    /// The mandatory justification.
    pub reason: String,
    /// Whether the directive suppressed at least one finding.
    pub used: bool,
}

/// A malformed directive, anchored to its file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadAllowEntry {
    /// File of the directive.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// What is wrong with it.
    pub message: String,
}

/// Outcome of a lint run over a file set.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Files scanned.
    pub files_scanned: usize,
    /// Violations that survived suppression, in (file, line) order.
    pub findings: Vec<Finding>,
    /// The complete allow ledger (used and unused entries).
    pub allows: Vec<LedgerEntry>,
    /// Malformed directives.
    pub bad_allows: Vec<BadAllowEntry>,
}

impl LintReport {
    /// Ledger entries that suppressed at least one finding.
    pub fn allows_used(&self) -> usize {
        self.allows.iter().filter(|a| a.used).count()
    }

    /// Ledger entries that suppress nothing (errors).
    pub fn allows_unused(&self) -> usize {
        self.allows.len() - self.allows_used()
    }

    /// Whether the run is clean: no findings, no unused allows, no
    /// malformed directives. This is what `pmor lint --check` gates on.
    pub fn clean(&self) -> bool {
        self.findings.is_empty() && self.allows_unused() == 0 && self.bad_allows.is_empty()
    }
}

/// Serializes a report to `LINT_<tag>.json` in `dir` and returns the
/// path written. One record line per finding and per ledger entry, in
/// the `BENCH_*.json` house layout.
///
/// # Errors
///
/// Propagates file-creation and write failures.
pub fn write_lint_json_in(
    dir: &std::path::Path,
    tag: &str,
    report: &LintReport,
) -> std::io::Result<PathBuf> {
    let path = dir.join(format!("LINT_{tag}.json"));
    let mut out = String::from("{\n  \"tag\": ");
    push_string(&mut out, tag);
    out.push_str(",\n  \"findings\": [\n");
    for (i, f) in report.findings.iter().enumerate() {
        push_site(&mut out, f.rule, &f.file, f.line);
        out.push_str(", \"message\": ");
        push_string(&mut out, &f.message);
        out.push_str(record_end(i, report.findings.len()));
    }
    out.push_str("  ],\n  \"allows\": [\n");
    for (i, a) in report.allows.iter().enumerate() {
        push_site(&mut out, a.rule, &a.file, a.line);
        out.push_str(&format!(", \"used\": {}, \"reason\": ", a.used));
        push_string(&mut out, &a.reason);
        out.push_str(record_end(i, report.allows.len()));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"summary\": {{\"files_scanned\": {}, \"findings\": {}, \"allows_used\": {}, \
         \"allows_unused\": {}, \"bad_allows\": {}}}\n",
        report.files_scanned,
        report.findings.len(),
        report.allows_used(),
        report.allows_unused(),
        report.bad_allows.len()
    ));
    out.push_str("}\n");
    let mut f = std::fs::File::create(&path)?;
    f.write_all(out.as_bytes())?;
    Ok(path)
}

/// Checks that `text` is a `LINT_*.json` file produced by
/// [`write_lint_json_in`]: it must parse as JSON and carry a file-level
/// `tag`, a `findings` array whose every record carries a **registered**
/// rule id, a file and a line, an `allows` array whose every record
/// carries rule/file/line/used/reason, and a `summary` with the
/// allow-ledger counts — each field with its type. Like
/// `validate_bench_json` the checks run on the parsed tree, so
/// truncated or mistyped files fail too.
///
/// # Errors
///
/// Returns a message naming the first missing or malformed field.
pub fn validate_lint_json(text: &str) -> Result<(), String> {
    let doc = parse_json(text)?;
    doc.field("tag", Kind::Str)?;
    let findings = doc.field("findings", Kind::Arr)?.items();
    let allows = doc.field("allows", Kind::Arr)?.items();
    let summary = doc.field("summary", Kind::Obj)?;
    check_records(findings, "finding", &SITE)?;
    let allow = [&SITE[..], &[("used", Kind::Bool), ("reason", Kind::Str)]].concat();
    check_records(allows, "allow", &allow)?;
    let counts = [
        "files_scanned",
        "findings",
        "allows_used",
        "allows_unused",
        "bad_allows",
    ];
    summary
        .check(&counts.map(|c| (c, Kind::Count)))
        .map_err(|e| format!("summary: {e}"))
}

/// The `rule`/`file`/`line` fields that open every finding and allow
/// record.
const SITE: [(&str, Kind); 3] = [
    ("rule", Kind::Str),
    ("file", Kind::Str),
    ("line", Kind::Count),
];

/// Writes the [`SITE`] fields that open a finding or allow record line.
fn push_site(out: &mut String, rule: LintKind, file: &str, line: usize) {
    out.push_str("    {\"rule\": ");
    push_string(out, rule.name());
    out.push_str(", \"file\": ");
    push_string(out, file);
    out.push_str(&format!(", \"line\": {line}"));
}

/// Checks every record of a report array against `schema` and any
/// `rule` id it carries against the registry. Messages name the record
/// by its array index, as `<what> <n>`.
fn check_records(records: &[Json], what: &str, schema: &[(&str, Kind)]) -> Result<(), String> {
    for (n, rec) in records.iter().enumerate() {
        rec.check(schema).map_err(|e| format!("{what} {n}: {e}"))?;
        let rule = rec.get("rule").map(Json::text);
        if rule.is_some_and(|r| LintKind::from_name(r).is_none()) {
            return Err(format!(
                "{what} {n}: unregistered rule id {:?}",
                rule.unwrap_or_default()
            ));
        }
    }
    Ok(())
}

/// The close of a line-per-record entry: a trailing comma on all but
/// the last of `len` records.
fn record_end(i: usize, len: usize) -> &'static str {
    if i + 1 < len {
        "},\n"
    } else {
        "}\n"
    }
}

#[cfg(test)]
#[path = "../../../tests/support/temp_dir.rs"]
mod temp_dir;

#[cfg(test)]
mod tests {
    use super::temp_dir::TempDir;
    use super::*;

    fn sample() -> LintReport {
        LintReport {
            files_scanned: 2,
            findings: vec![Finding {
                rule: LintKind::PanicInLib,
                file: "crates/core/src/rom.rs".into(),
                line: 12,
                message: "`unwrap()` in library code".into(),
            }],
            allows: vec![LedgerEntry {
                rule: LintKind::DetWallclock,
                file: "crates/variation/src/analysis.rs".into(),
                line: 30,
                reason: "provenance-only timing".into(),
                used: true,
            }],
            bad_allows: Vec::new(),
        }
    }

    #[test]
    fn written_reports_validate() {
        let dir = TempDir::new("lint_json_test");
        let path = write_lint_json_in(&dir, "unit", &sample()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"tag\": \"unit\""));
        assert!(text.contains("\"rule\": \"panic-in-lib\""));
        assert!(text.contains("\"used\": true"));
        assert!(text.contains("\"allows_unused\": 0"));
        validate_lint_json(&text).unwrap();
        // The exact bytes are pinned: the layout is part of the contract.
        assert_eq!(
            text,
            "{\n  \"tag\": \"unit\",\n  \"findings\": [\n    \
             {\"rule\": \"panic-in-lib\", \"file\": \"crates/core/src/rom.rs\", \"line\": 12, \
             \"message\": \"`unwrap()` in library code\"}\n  ],\n  \"allows\": [\n    \
             {\"rule\": \"det-wallclock\", \"file\": \"crates/variation/src/analysis.rs\", \
             \"line\": 30, \"used\": true, \"reason\": \"provenance-only timing\"}\n  ],\n  \
             \"summary\": {\"files_scanned\": 2, \"findings\": 1, \"allows_used\": 1, \
             \"allows_unused\": 0, \"bad_allows\": 0}\n}\n"
        );

        // An empty report is still a valid file (zero findings is the
        // desired steady state, unlike bench's "no records" rejection).
        let path = write_lint_json_in(&dir, "empty", &LintReport::default()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        validate_lint_json(&text).unwrap();
        assert_eq!(
            text,
            "{\n  \"tag\": \"empty\",\n  \"findings\": [\n  ],\n  \"allows\": [\n  ],\n  \
             \"summary\": {\"files_scanned\": 0, \"findings\": 0, \"allows_used\": 0, \
             \"allows_unused\": 0, \"bad_allows\": 0}\n}\n"
        );
    }

    #[test]
    fn validator_rejects_structural_damage() {
        let dir = TempDir::new("lint_json_validator_test");
        let path = write_lint_json_in(&dir, "v", &sample()).unwrap();
        let good = std::fs::read_to_string(&path).unwrap();

        assert!(validate_lint_json("{}").is_err());
        let no_tag = good.replace("\"tag\"", "\"gat\"");
        assert!(validate_lint_json(&no_tag).unwrap_err().contains("tag"));
        let bad_rule = good.replace("panic-in-lib", "made-up-rule");
        assert!(validate_lint_json(&bad_rule)
            .unwrap_err()
            .contains("unregistered rule"));
        let no_line = good.replace("\"line\": 12, \"message\"", "\"message\"");
        assert!(validate_lint_json(&no_line).unwrap_err().contains("line"));
        let no_summary = good.replace("allows_unused", "x");
        assert!(validate_lint_json(&no_summary)
            .unwrap_err()
            .contains("allows_unused"));

        // Damage a substring probe cannot see: a file cut before its
        // closing `]` or `}`, and wrong-typed fields.
        for cut in [good.rfind(']').unwrap(), good.rfind('}').unwrap()] {
            assert!(validate_lint_json(&good[..cut]).is_err());
        }
        for (from, to, needle) in [
            ("\"line\": 12", "\"line\": \"x\"", "line"),
            ("\"used\": true", "\"used\": 1", "used"),
            (
                "\"files_scanned\": 2",
                "\"files_scanned\": -2",
                "files_scanned",
            ),
        ] {
            let err = validate_lint_json(&good.replace(from, to)).unwrap_err();
            assert!(err.contains(needle), "{err}");
        }
    }
}
