//! Workspace file discovery for the linter.

use std::fs;
use std::path::{Path, PathBuf};

/// Directory names never descended into: build output, vendored
/// dependencies (not our code), VCS metadata, the standalone `benchmark`
/// package (its own workspace, outside these invariants), and the
/// linter's own test fixtures (which contain violations on purpose).
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "benchmark", "fixtures"];

/// Returns every `.rs` file under `root`, as workspace-relative paths with
/// forward slashes, in sorted (deterministic) order.
///
/// # Errors
///
/// Returns an I/O error message naming the unreadable directory.
pub fn rust_files(root: &Path) -> Result<Vec<String>, String> {
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort();
    Ok(files)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(relative(root, &path));
        }
    }
    Ok(())
}

/// `path` relative to `root`, with forward slashes.
fn relative(root: &Path, path: &Path) -> String {
    let rel: PathBuf = path.strip_prefix(root).unwrap_or(path).to_path_buf();
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Locates the workspace root from the xtask crate's own manifest dir
/// (`crates/xtask` → two levels up).
pub fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discovers_workspace_sources() {
        let root = workspace_root();
        let files = rust_files(&root).unwrap();
        assert!(files.iter().any(|f| f == "crates/graph/src/builder.rs"));
        assert!(files.iter().any(|f| f == "suite/lib.rs"));
        assert!(
            files
                .iter()
                .all(|f| !f.starts_with("vendor/") && !f.starts_with("benchmark/")),
            "vendored deps and the standalone benchmark are not linted"
        );
        assert!(
            files.iter().all(|f| !f.contains("fixtures/")),
            "lint fixtures are excluded from workspace scans"
        );
        let mut sorted = files.clone();
        sorted.sort();
        assert_eq!(files, sorted, "discovery order is deterministic");
    }
}
