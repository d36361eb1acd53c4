//! Golden test of the public API surface.
//!
//! Dumps every `pub` item declared in the workspace's library sources as
//! normalized one-line signatures and compares the dump against the
//! committed snapshot `tests/api_surface.txt`. Any addition, removal, or
//! signature change to the public surface fails here until the snapshot
//! is deliberately regenerated:
//!
//! ```sh
//! NNCELL_BLESS=1 cargo test --test api_surface
//! ```
//!
//! The point is not semantic precision — rustdoc owns that — but a cheap,
//! dependency-free tripwire: accidental `pub` leaks and silent API breaks
//! show up as a reviewable diff of one committed text file.

use std::fs;
use std::path::{Path, PathBuf};

/// Library source roots scanned for `pub` items. Binaries (`crates/cli`)
/// expose no linkable surface and are skipped.
const ROOTS: &[&str] = &[
    "src",
    "crates/geom/src",
    "crates/lp/src",
    "crates/index/src",
    "crates/data/src",
    "crates/obs/src",
    "crates/core/src",
    "crates/cells/src",
    "crates/server/src",
    "crates/bench/src",
];

const SNAPSHOT: &str = "tests/api_surface.txt";

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("read_dir {dir:?}: {e}"));
    for entry in entries {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Whether a trimmed source line declares a `pub` item (not `pub(crate)`
/// or `pub(super)`, which are internal by construction).
fn is_pub_item(trimmed: &str) -> bool {
    trimmed.strip_prefix("pub ").is_some_and(|rest| {
        rest.starts_with("fn ")
            || rest.starts_with("struct ")
            || rest.starts_with("enum ")
            || rest.starts_with("trait ")
            || rest.starts_with("type ")
            || rest.starts_with("mod ")
            || rest.starts_with("use ")
            || rest.starts_with("const ")
            || rest.starts_with("static ")
            || rest.starts_with("unsafe ")
            || rest.starts_with("async ")
    })
}

/// One-line normalization: cut the declaration at its body/terminator and
/// collapse interior whitespace. Multi-line signatures keep only their
/// first line — good enough for a stable textual tripwire.
fn normalize(line: &str) -> String {
    let mut sig = line.trim();
    for stop in ["{", ";"] {
        if let Some(i) = sig.find(stop) {
            sig = &sig[..i];
        }
    }
    sig.split_whitespace().collect::<Vec<_>>().join(" ")
}

fn current_surface() -> String {
    let root = repo_root();
    let mut items = Vec::new();
    for rel in ROOTS {
        let dir = root.join(rel);
        let mut files = Vec::new();
        rust_files(&dir, &mut files);
        for file in files {
            let text = fs::read_to_string(&file).expect("source file is UTF-8");
            let display = file
                .strip_prefix(&root)
                .expect("file under repo root")
                .to_string_lossy()
                .replace('\\', "/");
            let mut in_tests = false;
            let mut depth_at_tests = 0usize;
            let mut depth = 0usize;
            for line in text.lines() {
                let trimmed = line.trim();
                // Skip `#[cfg(test)] mod tests { ... }` blocks: their items
                // are never part of the built library.
                if trimmed.starts_with("#[cfg(test)]") && !in_tests {
                    in_tests = true;
                    depth_at_tests = depth;
                }
                depth += line.matches('{').count();
                depth = depth.saturating_sub(line.matches('}').count());
                if in_tests {
                    if depth <= depth_at_tests && trimmed.contains('}') {
                        in_tests = false;
                    }
                    continue;
                }
                if is_pub_item(trimmed) {
                    items.push(format!("{display}: {}", normalize(trimmed)));
                }
            }
        }
    }
    items.sort();
    items.dedup();
    let mut out = String::with_capacity(items.len() * 64);
    out.push_str(
        "# Public API surface — regenerate with NNCELL_BLESS=1 cargo test --test api_surface\n",
    );
    for item in items {
        out.push_str(&item);
        out.push('\n');
    }
    out
}

#[test]
fn public_api_matches_committed_snapshot() {
    let current = current_surface();
    let snapshot_path = repo_root().join(SNAPSHOT);
    if std::env::var_os("NNCELL_BLESS").is_some() {
        fs::write(&snapshot_path, &current).expect("write snapshot");
        return;
    }
    let committed = fs::read_to_string(&snapshot_path).unwrap_or_else(|e| {
        panic!(
            "missing API snapshot {SNAPSHOT} ({e}); \
             run `NNCELL_BLESS=1 cargo test --test api_surface` and commit it"
        )
    });
    if current != committed {
        let cur: Vec<&str> = current.lines().collect();
        let old: Vec<&str> = committed.lines().collect();
        let added: Vec<&&str> = cur.iter().filter(|l| !old.contains(l)).collect();
        let removed: Vec<&&str> = old.iter().filter(|l| !cur.contains(l)).collect();
        panic!(
            "public API surface changed.\n\nadded ({}):\n{}\n\nremoved ({}):\n{}\n\n\
             If intentional, regenerate the snapshot:\n  \
             NNCELL_BLESS=1 cargo test --test api_surface\nand commit {SNAPSHOT}.",
            added.len(),
            added
                .iter()
                .map(|l| format!("  + {l}"))
                .collect::<Vec<_>>()
                .join("\n"),
            removed.len(),
            removed
                .iter()
                .map(|l| format!("  - {l}"))
                .collect::<Vec<_>>()
                .join("\n"),
        );
    }
}
