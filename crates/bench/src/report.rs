//! Machine-readable experiment records.
//!
//! `pmor run` and `pmor bench` emit, next to their human-oriented
//! stdout, a `BENCH_<tag>.json` file in their output directory so the
//! performance and accuracy trajectory of the workspace can be tracked
//! across changes without parsing log text. The format is deliberately
//! flat: one record per (method × workload) with wall-clock seconds and a
//! free-form metric map, written line-per-record with the shared
//! `pmor-json` primitives and validated by parsing the file and then
//! checking its schema.

use pmor_json::{parse_json, push_number, push_string, Kind};
use std::io::Write;
use std::path::PathBuf;

/// One measured (method × workload) data point.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Reduction method (registry name, or a harness-specific label).
    pub method: String,
    /// Workload / circuit the method ran on.
    pub workload: String,
    /// Wall-clock seconds of the measured step.
    pub wall_seconds: f64,
    /// Named scalar metrics (model size, error norms, counters, …).
    pub metrics: Vec<(String, f64)>,
    /// Named string annotations (provenance that is not a number, e.g.
    /// the resolved fill-reducing ordering). Emitted as a `"labels"`
    /// object after the metrics; omitted entirely when empty, so
    /// records without labels serialize exactly as before.
    pub labels: Vec<(String, String)>,
}

impl BenchRecord {
    /// Creates a record with empty metric and label maps.
    pub fn new(method: impl Into<String>, workload: impl Into<String>, wall_seconds: f64) -> Self {
        BenchRecord {
            method: method.into(),
            workload: workload.into(),
            wall_seconds,
            metrics: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// Adds one named metric (builder-style).
    #[must_use]
    pub fn metric(mut self, name: impl Into<String>, value: f64) -> Self {
        self.metrics.push((name.into(), value));
        self
    }

    /// Adds one named string label (builder-style).
    #[must_use]
    pub fn label(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.labels.push((name.into(), value.into()));
        self
    }
}

/// Serializes `records` to `BENCH_<tag>.json` in `dir` and returns the
/// path written.
///
/// # Errors
///
/// Propagates file-creation and write failures.
pub fn write_bench_json_in(
    dir: &std::path::Path,
    tag: &str,
    records: &[BenchRecord],
) -> std::io::Result<PathBuf> {
    let path = dir.join(format!("BENCH_{tag}.json"));
    let mut out = String::from("{\n  \"tag\": ");
    push_string(&mut out, tag);
    out.push_str(",\n  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str("    {\"method\": ");
        push_string(&mut out, &r.method);
        out.push_str(", \"workload\": ");
        push_string(&mut out, &r.workload);
        out.push_str(", \"wall_seconds\": ");
        push_number(&mut out, r.wall_seconds);
        out.push_str(", \"metrics\": {");
        for (j, (name, value)) in r.metrics.iter().enumerate() {
            out.push_str(if j == 0 { "" } else { ", " });
            push_string(&mut out, name);
            out.push_str(": ");
            push_number(&mut out, *value);
        }
        out.push('}');
        if !r.labels.is_empty() {
            out.push_str(", \"labels\": {");
            for (j, (name, value)) in r.labels.iter().enumerate() {
                out.push_str(if j == 0 { "" } else { ", " });
                push_string(&mut out, name);
                out.push_str(": ");
                push_string(&mut out, value);
            }
            out.push('}');
        }
        out.push_str(if i + 1 < records.len() { "},\n" } else { "}\n" });
    }
    out.push_str("  ]\n}\n");
    let mut f = std::fs::File::create(&path)?;
    f.write_all(out.as_bytes())?;
    Ok(path)
}

/// Metric names every standardized `BENCH_*.json` record must carry (on
/// top of the structural `tag`/`method`/`wall_seconds` fields):
/// `median_seconds` (the headline timing, median over the repeats) and
/// `dim` (the full-system dimension the workload ran at). The CI
/// bench-smoke job rejects records without them via
/// [`validate_bench_json`].
pub const REQUIRED_METRICS: [&str; 2] = ["median_seconds", "dim"];

/// Optional per-record metrics the validator knows how to sanity-check
/// when present: `factor_nnz` (stored nonzeros of the `L + U` factors)
/// and `fill_ratio` (`factor_nnz / matrix nnz`) record ordering quality
/// so fill regressions show up in the bench trajectory. Records that
/// carry one of the pair must carry both, and records that carry them
/// must name the ordering that produced the fill in an `"ordering"`
/// label.
pub const FILL_METRICS: [&str; 2] = ["factor_nnz", "fill_ratio"];

/// Optional per-record metrics stamped by error-controlled adaptive
/// runs: `estimated_error` (the a-posteriori estimator's verdict on the
/// final model), `final_order` (the reduced dimension the driver
/// stopped at) and `expansion_points_used` (distinct parameter-space
/// expansion points). Like [`FILL_METRICS`] they are validated as a
/// coherent set: a record carrying any of them must carry all three, so
/// adaptive provenance can never arrive half-stamped.
pub const ADAPTIVE_METRICS: [&str; 3] = ["estimated_error", "final_order", "expansion_points_used"];

/// Checks that `text` is a `BENCH_*.json` file produced by
/// [`write_bench_json_in`]: it must parse as JSON, carry a file-level
/// `tag`, and hold at least one record, each with a string `method` and
/// `workload`, a numeric `wall_seconds`, and a `metrics` object of
/// numbers that includes the [`REQUIRED_METRICS`] (`median_seconds`,
/// `dim`). The optional [`FILL_METRICS`] and [`ADAPTIVE_METRICS`] are
/// all-or-nothing sets, and fill metrics need an `"ordering"` label.
/// The checks run on the parsed tree, so truncated or mistyped files
/// are rejected too — exactly what the CI artifact gate needs.
///
/// # Errors
///
/// Returns a message naming the first missing or malformed field or
/// record.
pub fn validate_bench_json(text: &str) -> Result<(), String> {
    let doc = parse_json(text)?;
    doc.field("tag", Kind::Str)?;
    let records = doc.field("records", Kind::Arr)?.items();
    for (i, rec) in records.iter().enumerate() {
        let n = i + 1;
        let schema = [
            ("method", Kind::Str),
            ("workload", Kind::Str),
            ("wall_seconds", Kind::Num),
            ("metrics", Kind::Obj),
        ];
        rec.check(&schema).map_err(|e| format!("record {n}: {e}"))?;
        for (key, kind) in [("metrics", Kind::Num), ("labels", Kind::Str)] {
            let Some(map) = rec.get(key) else { continue };
            if !Kind::Obj.admits(map) || map.entries().iter().any(|(_, v)| !kind.admits(v)) {
                return Err(format!(
                    "record {n}: \"{key}\" must map names to {}s",
                    kind.name()
                ));
            }
        }
        let has = |metric: &str| rec.get("metrics").and_then(|m| m.get(metric)).is_some();
        if let Some(metric) = REQUIRED_METRICS.iter().find(|m| !has(m)) {
            return Err(format!("record {n}: missing metric \"{metric}\""));
        }
        // The optional sets are all-or-nothing: a record reporting an
        // estimated error must also say what order and how many
        // expansion points bought it, and fill metrics arrive as both
        // numbers plus the ordering label that produced the fill.
        for (set, what) in [
            (&FILL_METRICS[..], "fill"),
            (&ADAPTIVE_METRICS[..], "adaptive"),
        ] {
            if set.iter().any(|m| has(m)) {
                if let Some(metric) = set.iter().find(|m| !has(m)) {
                    return Err(format!(
                        "record {n}: has {what} metrics but misses \"{metric}\""
                    ));
                }
            }
        }
        let ordering = rec.get("labels").and_then(|l| l.get("ordering"));
        if FILL_METRICS.iter().any(|m| has(m)) && ordering.is_none() {
            return Err(format!(
                "record {n}: fill metrics need an \"ordering\" label"
            ));
        }
    }
    if records.is_empty() {
        return Err("no records".into());
    }
    Ok(())
}

#[cfg(test)]
#[path = "../../../tests/support/temp_dir.rs"]
mod temp_dir;

#[cfg(test)]
mod tests {
    use super::temp_dir::TempDir;
    use super::*;

    #[test]
    fn json_escaping_and_numbers() {
        // Names are escaped and non-finite numbers written as null, and
        // the result still validates.
        let dir = TempDir::new("bench_escape_test");
        let rec = BenchRecord::new("a\"b\\c\n", "w", f64::NAN)
            .metric("median_seconds", 1.5)
            .metric("dim", 3.0)
            .metric("err", f64::INFINITY);
        let path = write_bench_json_in(&dir, "esc", &[rec]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let line = r#"{"method": "a\"b\\c\n", "workload": "w", "wall_seconds": null, "metrics": {"median_seconds": 1.5, "dim": 3.0, "err": null}}"#;
        assert!(text.contains(line), "{text}");
        validate_bench_json(&text).unwrap();
    }

    #[test]
    fn validates_required_fields() {
        let good = vec![BenchRecord::new("lowrank", "rc_mesh(1089)", 0.5)
            .metric("median_seconds", 0.5)
            .metric("dim", 1089.0)];
        let dir = TempDir::new("bench_validate_test");
        let path = write_bench_json_in(&dir, "v", &good).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        validate_bench_json(&text).unwrap();

        // Records without the standardized metrics are rejected.
        let bad = vec![BenchRecord::new("lowrank", "rc_mesh(1089)", 0.5)];
        let path = write_bench_json_in(&dir, "v2", &bad).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let err = validate_bench_json(&text).unwrap_err();
        assert!(err.contains("median_seconds"), "{err}");

        // Fill metrics must arrive as a coherent set with their
        // ordering label; records with the full set validate.
        let fill = |rec: BenchRecord| vec![rec];
        let complete = fill(
            BenchRecord::new("lowrank", "rc_mesh(16384)", 0.5)
                .metric("median_seconds", 0.5)
                .metric("dim", 16384.0)
                .metric("factor_nnz", 1.0e6)
                .metric("fill_ratio", 12.5)
                .label("ordering", "amd"),
        );
        let path = write_bench_json_in(&dir, "v4", &complete).unwrap();
        validate_bench_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        for (strip_metric, needle) in [("fill_ratio", "fill_ratio"), ("", "ordering")] {
            let mut rec = complete[0].clone();
            rec.metrics.retain(|(n, _)| n != strip_metric);
            if strip_metric.is_empty() {
                rec.labels.clear();
            }
            let path = write_bench_json_in(&dir, "v5", &[rec]).unwrap();
            let err = validate_bench_json(&std::fs::read_to_string(&path).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{err}");
        }

        // Adaptive metrics are likewise all-or-nothing: a full set
        // validates, any partial set is rejected by name.
        let adaptive = BenchRecord::new("multipoint", "rc_mesh(144)", 0.5)
            .metric("median_seconds", 0.5)
            .metric("dim", 144.0)
            .metric("estimated_error", 3.2e-7)
            .metric("final_order", 24.0)
            .metric("expansion_points_used", 3.0);
        let path = write_bench_json_in(&dir, "v6", std::slice::from_ref(&adaptive)).unwrap();
        validate_bench_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        for strip in ADAPTIVE_METRICS {
            let mut rec = adaptive.clone();
            rec.metrics.retain(|(n, _)| n != strip);
            let path = write_bench_json_in(&dir, "v7", &[rec]).unwrap();
            let err = validate_bench_json(&std::fs::read_to_string(&path).unwrap()).unwrap_err();
            assert!(err.contains(strip), "{err}");
        }

        // Empty files and non-bench JSON are rejected.
        let path = write_bench_json_in(&dir, "v3", &[]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(validate_bench_json(&text)
            .unwrap_err()
            .contains("no records"));
        assert!(validate_bench_json("{}").is_err());

        // Damage a substring probe cannot see: a file cut before its
        // closing `]` or `}`, and wrong-typed fields.
        let path = write_bench_json_in(&dir, "v8", &good).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        for cut in [text.rfind(']').unwrap(), text.rfind('}').unwrap()] {
            assert!(
                validate_bench_json(&text[..cut]).is_err(),
                "{}",
                &text[..cut]
            );
        }
        for (from, to, needle) in [
            (
                "\"wall_seconds\": 0.5",
                "\"wall_seconds\": \"oops\"",
                "wall_seconds",
            ),
            ("\"dim\": 1089.0", "\"dim\": \"1089\"", "metrics"),
            ("\"method\": \"lowrank\"", "\"method\": 7", "method"),
        ] {
            let err = validate_bench_json(&text.replace(from, to)).unwrap_err();
            assert!(err.contains(needle), "{err}");
        }
    }

    #[test]
    fn writes_wellformed_file() {
        let dir = TempDir::new("bench_json_test");
        let records = vec![
            BenchRecord::new("lowrank", "rc_random(767)", 0.25)
                .metric("size", 37.0)
                .metric("worst_err", 1.5e-3),
            BenchRecord::new("multipoint", "rc_random(767)", 1.0),
        ];
        let path = write_bench_json_in(&dir, "unit_test", &records).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"tag\": \"unit_test\""));
        assert!(text.contains("\"method\": \"lowrank\""));
        assert!(text.contains("\"worst_err\": 0.0015"));
        assert!(text.starts_with('{') && text.trim_end().ends_with('}'));
        // No labels on these records — the object must be omitted.
        assert!(!text.contains("\"labels\""));
        // The exact bytes are pinned: the layout is part of the contract.
        assert_eq!(
            text,
            "{\n  \"tag\": \"unit_test\",\n  \"records\": [\n    \
             {\"method\": \"lowrank\", \"workload\": \"rc_random(767)\", \"wall_seconds\": 0.25, \
             \"metrics\": {\"size\": 37.0, \"worst_err\": 0.0015}},\n    \
             {\"method\": \"multipoint\", \"workload\": \"rc_random(767)\", \"wall_seconds\": 1.0, \
             \"metrics\": {}}\n  ]\n}\n"
        );

        let labeled = vec![BenchRecord::new("lowrank", "rc_mesh(65536)", 0.25)
            .metric("dim", 65536.0)
            .label("ordering", "amd")];
        let path = write_bench_json_in(&dir, "unit_test_labels", &labeled).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.contains("\"labels\": {\"ordering\": \"amd\"}"),
            "{text}"
        );
        assert_eq!(
            text,
            "{\n  \"tag\": \"unit_test_labels\",\n  \"records\": [\n    \
             {\"method\": \"lowrank\", \"workload\": \"rc_mesh(65536)\", \"wall_seconds\": 0.25, \
             \"metrics\": {\"dim\": 65536.0}, \"labels\": {\"ordering\": \"amd\"}}\n  ]\n}\n"
        );
    }
}
