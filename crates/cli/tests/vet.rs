//! End-to-end tests for `pmor vet`: the shipped scenario/suite set must
//! vet clean, and vet must actually catch the failure classes it exists
//! for — unparseable scenarios, broken suite→scenario references, and
//! missing SPICE decks.

use pmor_cli::vet_cmd::run_vet;
use std::path::PathBuf;

#[path = "../../../tests/support/temp_dir.rs"]
mod temp_dir;
use temp_dir::TempDir;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// A scratch tree `<tmp>/<tag>/scenarios[/suites]` seeded with one
/// known-good scenario copied from the repository.
fn scratch_tree(tag: &str) -> TempDir {
    let root = TempDir::new(&format!("vet_test_{tag}"));
    std::fs::create_dir_all(root.join("scenarios/suites")).unwrap();
    std::fs::copy(
        repo_root().join("scenarios/fig3_rc_network.toml"),
        root.join("scenarios/fig3_rc_network.toml"),
    )
    .unwrap();
    root
}

#[test]
fn the_shipped_scenarios_and_suites_vet_clean() {
    let report = run_vet(&repo_root()).unwrap();
    // Every shipped file participates: all scenarios, all three suites,
    // and at least the smoke/default/large scenario entries as
    // cross-file references.
    assert!(report.scenarios >= 13, "{report:?}");
    assert!(report.suites >= 3, "{report:?}");
    assert!(report.references >= 3, "{report:?}");
}

#[test]
fn vet_needs_a_scenarios_directory() {
    let root = TempDir::new("vet_empty");
    let err = run_vet(&root).unwrap_err().to_string();
    assert!(err.contains("scenarios"), "{err}");
}

#[test]
fn vet_flags_an_unparseable_scenario() {
    let root = scratch_tree("broken_scenario");
    std::fs::write(
        root.join("scenarios/broken.toml"),
        "[scenario]\nname = \"broken\"\ndescription = \"d\"\n\n\
         [system]\ngenerator = \"no-such-generator\"\n",
    )
    .unwrap();
    let err = run_vet(&root).unwrap_err().to_string();
    assert!(err.contains("broken.toml"), "{err}");
    // The good scenario is not blamed.
    assert!(!err.contains("fig3_rc_network"), "{err}");
}

#[test]
fn vet_flags_a_suite_referencing_a_missing_scenario() {
    let root = scratch_tree("dangling_suite");
    std::fs::write(
        root.join("scenarios/suites/dangling.toml"),
        "[suite]\nname = \"dangling\"\ndescription = \"d\"\nwarmup = 0\nrepeats = 1\n\n\
         [scenario-gone]\nfile = \"../renamed_away.toml\"\n",
    )
    .unwrap();
    let err = run_vet(&root).unwrap_err().to_string();
    assert!(err.contains("dangling.toml"), "{err}");
    assert!(err.contains("renamed_away.toml"), "{err}");
}

#[test]
fn vet_flags_a_missing_spice_deck() {
    let root = scratch_tree("missing_deck");
    std::fs::write(
        root.join("scenarios/deckless.toml"),
        "[scenario]\nname = \"deckless\"\ndescription = \"d\"\n\n\
         [system]\ngenerator = \"spice\"\npath = \"decks/not_there.sp\"\n",
    )
    .unwrap();
    let err = run_vet(&root).unwrap_err().to_string();
    assert!(err.contains("deckless.toml"), "{err}");
}

#[test]
fn vet_flags_a_suite_with_a_retired_section() {
    // A suite file still carrying a `[micro]` or `[refactor-*]` section
    // fails vet by name instead of vetting clean.
    for (tag, section) in [("micro", "[micro]"), ("refactor", "[refactor-x]")] {
        let root = scratch_tree(&format!("retired_{tag}"));
        std::fs::write(
            root.join("scenarios/suites/old.toml"),
            format!(
                "[suite]\nname = \"old\"\n\n[scenario-fig3]\nfile = \"../fig3_rc_network.toml\"\n\n\
                 {section}\nfile = \"../fig3_rc_network.toml\"\n"
            ),
        )
        .unwrap();
        let err = run_vet(&root).unwrap_err().to_string();
        assert!(err.contains("old.toml"), "{err}");
        assert!(err.contains(&format!("unknown section {section}")), "{err}");
    }
}
