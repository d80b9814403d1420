//! Workspace file discovery: which `.rs` files get linted, and under
//! which rule scope.
//!
//! Scope policy (see DESIGN.md "Invariants enforced by pandia-lint"):
//!
//! * **Result-producing crates** (`pandia-sim`, `pandia-core`,
//!   `pandia-topology`, `pandia-workloads`, `pandia-daemon`): all rules
//!   (D1, D2, D3, N1, P1, S1, S2, C1, V1) plus hot-set membership for
//!   H1/H2.
//! * **`pandia-harness`**: N1 + P1 + S1 + S2 + C1 + V1 — its reports
//!   feed the figures, but it legitimately reads clocks and the
//!   environment (which is exactly why D3 taints calls *into* it).
//! * **`pandia-lint`** and the facade `src/`: P1, S1, S2, V1.
//! * **`pandia-obs`**: P1, S1, V1 only — the recorder *is* the
//!   sanctioned home for wall-clock reads and raw recorder writes, and
//!   its `schema.rs` is the one file V1 lets define schema tags.
//! * **Skipped entirely**: `pandia-cli` (a bin crate may panic on bad
//!   input), `src/bin/` subtrees, `tests/`, `examples/`, `benches/`,
//!   and `vendor/`.

use std::fs;
use std::path::{Path, PathBuf};

use crate::rules::FileScope;

/// Crates whose outputs are (or directly feed) experiment results.
const RESULT_CRATES: [&str; 5] =
    ["pandia-sim", "pandia-core", "pandia-topology", "pandia-workloads", "pandia-daemon"];

/// One file to lint: workspace-relative path and applicable rules.
#[derive(Debug)]
pub struct LintFile {
    /// Path relative to the workspace root, with `/` separators.
    pub rel_path: String,
    /// Absolute path on disk.
    pub abs_path: PathBuf,
    /// Rules that apply.
    pub scope: FileScope,
}

/// Scope for a library source file of the named crate, or `None` when
/// the crate is out of scope.
fn crate_scope(name: &str) -> Option<FileScope> {
    if RESULT_CRATES.contains(&name) {
        Some(FileScope {
            d1: true,
            d2: true,
            n1: true,
            p1: true,
            s1: true,
            s2: true,
            c1: true,
            v1: true,
            d3: true,
            hot: true,
        })
    } else if name == "pandia-harness" {
        Some(FileScope {
            n1: true,
            p1: true,
            s1: true,
            s2: true,
            c1: true,
            v1: true,
            ..FileScope::default()
        })
    } else if name == "pandia-obs" {
        // The recorder is the sanctioned home for raw writes: no S2.
        Some(FileScope { p1: true, s1: true, v1: true, ..FileScope::default() })
    } else if name == "pandia-lint" {
        Some(FileScope { p1: true, s1: true, s2: true, v1: true, ..FileScope::default() })
    } else {
        None
    }
}

/// Collects every in-scope `.rs` file under `root`, sorted by path so
/// findings and baselines are stable across runs and filesystems.
pub fn collect(root: &Path) -> Result<Vec<LintFile>, String> {
    let mut files = Vec::new();

    // Workspace crates: crates/<name>/src, minus bin/ subtrees.
    let crates_dir = root.join("crates");
    let mut crate_names = Vec::new();
    let entries = fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("error walking crates dir: {e}"))?;
        if entry.path().is_dir() {
            crate_names.push(entry.file_name().to_string_lossy().into_owned());
        }
    }
    crate_names.sort();
    for name in &crate_names {
        let Some(scope) = crate_scope(name) else { continue };
        let src = crates_dir.join(name).join("src");
        if src.is_dir() {
            walk_sources(&src, root, scope, &mut files)?;
        }
    }

    // The facade package's own sources (src/lib.rs and friends).
    let facade_src = root.join("src");
    if facade_src.is_dir() {
        let scope =
            FileScope { p1: true, s1: true, s2: true, v1: true, ..FileScope::default() };
        walk_sources(&facade_src, root, scope, &mut files)?;
    }

    files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    Ok(files)
}

/// Recursively collects `.rs` files under `dir`, skipping `bin/`
/// subtrees (binaries may panic on bad invocations).
fn walk_sources(
    dir: &Path,
    root: &Path,
    scope: FileScope,
    out: &mut Vec<LintFile>,
) -> Result<(), String> {
    let entries =
        fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("error walking {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if name == "bin" {
                continue;
            }
            walk_sources(&path, root, scope, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| format!("path {} escapes root: {e}", path.display()))?;
            let rel_path = rel
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(LintFile { rel_path, abs_path: path, scope });
        }
    }
    Ok(())
}
