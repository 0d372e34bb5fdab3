//! `pmor` with stderr on a closed pipe, as in `pmor … 2>&1 | head -c 10`
//! once `head` has gone: the error report has nowhere to go, but the exit
//! status still says how the command ended (2 for usage, 1 for any other
//! error), never the 101 of a panic.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

#[path = "../../../tests/support/temp_dir.rs"]
mod temp_dir;
use temp_dir::TempDir;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Runs `pmor args` in `dir` with stderr on a pipe whose reader is already
/// closed, and returns the exit code.
fn exit_code_with_stderr_closed(dir: &Path, args: &[&str]) -> Option<i32> {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    Command::new(env!("CARGO_BIN_EXE_pmor"))
        .current_dir(dir)
        .args(args)
        .stdout(Stdio::null())
        .stderr(writer)
        .status()
        .unwrap()
        .code()
}

#[test]
fn a_usage_error_exits_2_with_stderr_closed() {
    let code = exit_code_with_stderr_closed(
        &repo_root(),
        &["bench", "--suite", "smoke", "--repeats", "0"],
    );
    assert_eq!(code, Some(2));
}

#[test]
fn a_failed_check_exits_1_with_stderr_closed() {
    // A suite that still carries a retired `[micro]` section fails vet.
    let root = TempDir::new("closed_stderr");
    std::fs::create_dir_all(root.join("scenarios/suites")).unwrap();
    std::fs::copy(
        repo_root().join("scenarios/fig3_rc_network.toml"),
        root.join("scenarios/fig3_rc_network.toml"),
    )
    .unwrap();
    std::fs::write(
        root.join("scenarios/suites/old.toml"),
        "[suite]\nname = \"old\"\n\n[micro]\nfile = \"../fig3_rc_network.toml\"\n",
    )
    .unwrap();
    let code = exit_code_with_stderr_closed(&root, &["vet", root.to_str().unwrap()]);
    assert_eq!(code, Some(1));
}
