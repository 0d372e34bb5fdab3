//! A scratch directory for tests that write files, included with
//! `#[path]` by every test that needs one.

use std::path::{Path, PathBuf};

/// `pmor_<tag>_<pid>` under the system temp dir: emptied when made and
/// removed with its contents when dropped, so neither a stale run nor a
/// concurrent one shares it.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("pmor_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl std::ops::Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
