//! Workspace traversal: find the `.rs` files the rules govern and
//! classify each by its path.

use crate::scan::FileClass;
use std::path::{Path, PathBuf};

/// Directories never descended into: build output, VCS metadata, the
/// offline dependency shims (external-API stand-ins, not our
/// conventions), and farmer-lint's own seeded-violation fixtures.
const SKIP_DIRS: [&str; 4] = ["target", ".git", "shims", "fixtures"];

/// Recursively collect workspace `.rs` files under `root`, sorted by
/// path for deterministic reports. I/O errors on individual entries are
/// skipped rather than fatal (a half-written editor temp file must not
/// wedge CI).
pub fn collect(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    walk(root, &mut out);
    out.sort();
    out
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name) {
                walk(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Map a workspace-relative path to the [`FileClass`] that gates which
/// rules apply. The workspace layout convention:
/// `crates/<name>/src/**` is library code, `src/bin/**` binaries,
/// `tests/**` integration tests, `benches/**` benches,
/// `examples/**` examples, and anything under a `fixtures/` directory
/// is lint-fixture corpus (all rules active).
pub fn classify(rel: &str) -> FileClass {
    let parts: Vec<&str> = rel.split('/').collect();
    if parts.contains(&"fixtures") {
        return FileClass::Fixture;
    }
    if parts.contains(&"tests") {
        return FileClass::TestFile;
    }
    if parts.contains(&"benches") {
        return FileClass::Bench;
    }
    if parts.contains(&"examples") {
        return FileClass::Example;
    }
    if parts.windows(2).any(|w| w == ["src", "bin"]) {
        return FileClass::Bin;
    }
    // crates/<name>/src/** → library code of <name>; the umbrella
    // root src/ belongs to the `farmer` facade crate.
    if parts.first() == Some(&"crates") && parts.get(2) == Some(&"src") {
        return FileClass::Library {
            krate: parts[1].to_string(),
        };
    }
    if parts.first() == Some(&"src") {
        return FileClass::Library {
            krate: "farmer".to_string(),
        };
    }
    FileClass::Library {
        krate: "farmer".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_covers_the_layout() {
        assert_eq!(
            classify("crates/farmer-serve/src/ring.rs"),
            FileClass::Library {
                krate: "farmer-serve".into()
            }
        );
        assert_eq!(
            classify("crates/farmer-bench/src/bin/eval_matrix.rs"),
            FileClass::Bin
        );
        assert_eq!(
            classify("crates/farmer-core/tests/props.rs"),
            FileClass::TestFile
        );
        assert_eq!(classify("tests/pipeline.rs"), FileClass::TestFile);
        assert_eq!(classify("examples/mine.rs"), FileClass::Example);
        assert_eq!(
            classify("crates/farmer-lint/fixtures/seeded/r1_ord.rs"),
            FileClass::Fixture
        );
        assert_eq!(
            classify("src/lib.rs"),
            FileClass::Library {
                krate: "farmer".into()
            }
        );
    }

    #[test]
    fn collect_skips_shims_and_fixtures() {
        // Run over this crate's own tree: src/ files must appear,
        // fixtures/ must not.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let files = collect(root);
        assert!(files.iter().any(|p| p.ends_with("src/walk.rs")));
        assert!(!files
            .iter()
            .any(|p| p.components().any(|c| c.as_os_str() == "fixtures")));
    }
}
