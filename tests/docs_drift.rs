//! Docs drift guard: the GUIDE must reference every shipped scenario
//! file, every SPICE deck, every benchmark suite and every suite entry
//! tag — in the same spirit as the README snippets being `include_str!`
//! doctests. Adding a scenario or a suite entry without documenting it
//! fails CI here.

use pmor_bench::suite::{BenchSuite, SECTION_KINDS};
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    // This test is registered by crates/bench, two levels down.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every file (recursively) under `dir` with one of `exts`.
fn files_under(dir: &Path, exts: &[&str]) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap_or_else(|e| panic!("{}: {e}", d.display())) {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else if path
                .extension()
                .and_then(|e| e.to_str())
                .is_some_and(|e| exts.contains(&e))
            {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

#[test]
fn guide_references_every_scenario_deck_and_suite() {
    let root = repo_root();
    let guide = std::fs::read_to_string(root.join("docs/GUIDE.md")).expect("docs/GUIDE.md");

    let files = files_under(&root.join("scenarios"), &["toml", "sp"]);
    assert!(
        files.len() >= 12,
        "expected the shipped scenario set, found {}",
        files.len()
    );
    for path in &files {
        let name = path.file_name().unwrap().to_str().unwrap();
        assert!(
            guide.contains(name),
            "docs/GUIDE.md does not mention {name} — document it (scenario table, \
             suite section, or deck reference)"
        );
    }

    // Suite *entry tags* must be documented too: the BENCH_<suite>_<tag>
    // output names are part of the CLI's contract.
    for suite_path in files_under(&root.join("scenarios/suites"), &["toml"]) {
        let suite = BenchSuite::load(&suite_path)
            .unwrap_or_else(|e| panic!("{}: {e}", suite_path.display()));
        assert!(
            guide.contains(&suite.name),
            "docs/GUIDE.md does not mention suite {:?}",
            suite.name
        );
        for entry in &suite.entries {
            let bench_name = format!("BENCH_{}_{}.json", suite.name, entry.tag);
            assert!(
                guide.contains(&entry.tag) || guide.contains(&bench_name),
                "docs/GUIDE.md mentions neither suite entry tag {:?} nor {bench_name}",
                entry.tag
            );
        }
    }
}

#[test]
fn guide_suite_table_names_exactly_the_accepted_section_kinds() {
    // The §6 "Suite files" table has one row per entry-section kind,
    // each starting "| `[<kind>-<tag>]`". Every documented kind must
    // parse in a minimal suite, and every kind the parser accepts must
    // have a row, so a retired kind cannot linger in the docs.
    let guide = std::fs::read_to_string(repo_root().join("docs/GUIDE.md")).expect("docs/GUIDE.md");
    let section = guide
        .split("### Suite files")
        .nth(1)
        .and_then(|rest| rest.split("\n### ").next())
        .expect("docs/GUIDE.md has a \"### Suite files\" subsection");
    let documented: Vec<&str> = section
        .lines()
        .filter_map(|line| line.strip_prefix("| `["))
        .map(|row| {
            row.split_once("-<tag>]`")
                .unwrap_or_else(|| {
                    panic!("suite table row without a `[<kind>-<tag>]` section: {row}")
                })
                .0
        })
        .collect();
    for kind in &documented {
        let text = format!("[suite]\nname = \"d\"\n\n[{kind}-t]\nfile = \"x.toml\"\n");
        if let Err(e) = BenchSuite::parse_at(&text, None) {
            panic!("docs/GUIDE.md documents [{kind}-<tag>], which suites refuse: {e}");
        }
    }
    let mut documented_sorted = documented.clone();
    documented_sorted.sort_unstable();
    let mut accepted = SECTION_KINDS.to_vec();
    accepted.sort_unstable();
    assert_eq!(
        documented_sorted, accepted,
        "docs/GUIDE.md's suite-section table and the section kinds BenchSuite accepts differ"
    );
}

#[test]
fn benchmarks_doc_exists_and_names_the_default_suite() {
    let root = repo_root();
    let text =
        std::fs::read_to_string(root.join("docs/BENCHMARKS.md")).expect("docs/BENCHMARKS.md");
    for needle in ["default", "smoke", "median", "rc_mesh"] {
        assert!(
            text.contains(needle),
            "docs/BENCHMARKS.md misses {needle:?}"
        );
    }
    // The README links the benchmarks page.
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    assert!(
        readme.contains("BENCHMARKS.md"),
        "README.md does not link docs/BENCHMARKS.md"
    );
}

#[test]
fn guide_documents_every_lint_rule() {
    // The GUIDE's "Static analysis" section must keep pace with the rule
    // registry: registering a LintKind without documenting it fails here,
    // exactly like an undocumented scenario or suite entry.
    let root = repo_root();
    let guide = std::fs::read_to_string(root.join("docs/GUIDE.md")).expect("docs/GUIDE.md");
    for rule in pmor_lint::LintKind::ALL {
        assert!(
            guide.contains(rule.name()),
            "docs/GUIDE.md does not document lint rule {:?}",
            rule.name()
        );
    }
    // The suppression syntax is part of the contract too.
    assert!(
        guide.contains("pmor-lint: allow("),
        "docs/GUIDE.md does not show the suppression syntax"
    );
    // And so is the scenario checker.
    assert!(
        guide.contains("pmor vet"),
        "docs/GUIDE.md does not document \"pmor vet\""
    );
}

#[test]
fn guide_documents_the_serve_surface() {
    // The serving stack is a public contract like the lint rules: the
    // CLI verbs, the transport forms, every daemon knob, the frame
    // marker, and the fault codes must all be documented in GUIDE.md.
    let root = repo_root();
    let guide = std::fs::read_to_string(root.join("docs/GUIDE.md")).expect("docs/GUIDE.md");
    for needle in [
        "pmor serve",
        "--ping",
        "--shutdown",
        "--serve-addr",
        "unix:",
        "--lru",
        "--max-frame",
        "--max-batch",
        "--timeout-ms",
        "0xB1",
        "FNV-1a",
        "req_id",
        "[serve-",
        "min_evals_per_sec",
        "crates/serve",
    ] {
        assert!(
            guide.contains(needle),
            "docs/GUIDE.md does not document serve surface {needle:?}"
        );
    }
    // The structured fault codes are part of the wire contract.
    for code in [
        "malformed",
        "frame_too_large",
        "batch_too_large",
        "unknown_rom",
        "eval_failed",
        "unsupported",
    ] {
        assert!(
            guide.contains(code),
            "docs/GUIDE.md does not document serve fault code {code:?}"
        );
    }
    // And BENCHMARKS.md records the measured serving baseline.
    let bench = std::fs::read_to_string(root.join("docs/BENCHMARKS.md")).unwrap();
    assert!(
        bench.contains("pmor serve") && bench.contains("evals/s"),
        "docs/BENCHMARKS.md does not cover serving throughput"
    );
}

#[test]
fn readme_maps_the_paper_claims_to_their_tests() {
    // The paper is reproduced by scenarios and checked by
    // `tests/paper_claims.rs`; there are no figure binaries to run. Every
    // `paper_claims::<name>` the README names must be a test there, and
    // every test there must be named, so a renamed or added claim fails
    // here until the README follows.
    let root = repo_root();
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    assert!(
        !readme.contains("--bin"),
        "README.md tells a reader to run a `--bin` target; the workspace has none"
    );
    let claims = std::fs::read_to_string(root.join("tests/paper_claims.rs")).unwrap();
    let ident = |rest: &str| -> String {
        rest.chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect()
    };
    let named: Vec<String> = readme.split("paper_claims::").skip(1).map(ident).collect();
    let tests: Vec<String> = claims.split("#[test]\nfn ").skip(1).map(ident).collect();
    assert!(!tests.is_empty(), "tests/paper_claims.rs holds no tests");
    for name in &named {
        assert!(
            tests.contains(name),
            "README.md names paper_claims::{name}, but tests/paper_claims.rs has no such test"
        );
    }
    for test in &tests {
        assert!(
            named.contains(test),
            "README.md does not map a claim to paper_claims::{test}"
        );
    }
}
