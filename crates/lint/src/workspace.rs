//! Workspace discovery: which `.rs` files belong to which member crate.
//!
//! Membership comes from the root `Cargo.toml`'s `[workspace] members`
//! list (globs like `crates/*` are expanded against the filesystem), so
//! the linter follows the workspace as crates are added — no hardcoded
//! crate list to drift. The lint skips `vendor/*` members: they are
//! offline API stubs of third-party crates, not code this repo's
//! invariants govern.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::rules::TargetKind;

/// One `.rs` file scheduled for linting.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Absolute path on disk.
    pub abs: PathBuf,
    /// Path relative to the workspace root (stable across machines).
    pub rel: PathBuf,
    /// The member's short name (`sim`, `core`, … or `gmt` for the root).
    pub crate_name: String,
    /// Which target the file compiles into.
    pub target: TargetKind,
}

/// An in-memory file overlay: workspace-relative slash paths mapped to
/// replacement source text.
///
/// The mutation harness lints synthesized known-bad variants of real
/// workspace files through this type — overlay runs never write to the
/// source tree, so a mutant can never leak into `src/`.
#[derive(Debug, Clone, Default)]
pub struct Overlay {
    /// Replacement sources keyed by slash-separated workspace-relative
    /// path (`crates/sim/src/rng.rs`).
    pub files: std::collections::BTreeMap<String, String>,
}

impl Overlay {
    /// An overlay replacing a single file.
    pub fn single(rel: &str, source: String) -> Overlay {
        let mut files = std::collections::BTreeMap::new();
        files.insert(rel.to_string(), source);
        Overlay { files }
    }
}

/// `p` with `/` separators, the key form of [`Overlay::files`].
pub(crate) fn slash_path(p: &Path) -> String {
    p.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Walks upward from `start` to the nearest directory whose `Cargo.toml`
/// declares a `[workspace]`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Expands the `[workspace] members` list of `root/Cargo.toml` into
/// member directories, in sorted order. Only trailing-`*` globs are
/// supported — the two forms this workspace uses.
pub fn member_dirs(root: &Path, include_vendor: bool) -> io::Result<Vec<PathBuf>> {
    let manifest = fs::read_to_string(root.join("Cargo.toml"))?;
    let mut members = Vec::new();
    for entry in parse_members(&manifest) {
        if !include_vendor && entry.starts_with("vendor") {
            continue;
        }
        if let Some(prefix) = entry.strip_suffix("/*") {
            let base = root.join(prefix);
            let Ok(read) = fs::read_dir(&base) else {
                continue;
            };
            let mut dirs: Vec<PathBuf> = read
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.is_dir() && p.join("Cargo.toml").exists())
                .collect();
            dirs.sort();
            members.extend(dirs);
        } else {
            let dir = root.join(&entry);
            if dir.join("Cargo.toml").exists() {
                members.push(dir);
            }
        }
    }
    Ok(members)
}

/// Pulls the quoted entries out of `members = [ ... ]`.
fn parse_members(manifest: &str) -> Vec<String> {
    let Some(at) = manifest.find("members") else {
        return Vec::new();
    };
    let Some(open) = manifest[at..].find('[') else {
        return Vec::new();
    };
    let Some(close) = manifest[at + open..].find(']') else {
        return Vec::new();
    };
    let list = &manifest[at + open + 1..at + open + close];
    list.split(',')
        .map(|s| s.trim().trim_matches('"').to_string())
        .filter(|s| !s.is_empty())
        .collect()
}

/// Collects every lintable `.rs` file of the workspace, in a
/// deterministic (sorted) order.
///
/// Per member but the `vendor/` stubs (plus the root package itself)
/// the walk covers `src/`,
/// `tests/`, `examples/` and `benches/`, skipping any directory named
/// `fixtures` (lint-test corpora are data, not code) or `target`.
pub fn workspace_files(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut members = member_dirs(root, false)?;
    // The root manifest doubles as the `gmt` facade package.
    members.insert(0, root.to_path_buf());
    let mut out = Vec::new();
    for dir in members {
        let crate_name = if dir == root {
            "gmt".to_string()
        } else {
            dir.file_name()
                .map(|n| n.to_string_lossy().to_string())
                .unwrap_or_default()
        };
        let bin_only = !dir.join("src/lib.rs").exists();
        for (sub, target) in [
            (
                "src",
                if bin_only {
                    TargetKind::Bin
                } else {
                    TargetKind::Lib
                },
            ),
            ("tests", TargetKind::Tests),
            ("examples", TargetKind::Example),
            ("benches", TargetKind::Bench),
        ] {
            let base = dir.join(sub);
            if !base.is_dir() {
                continue;
            }
            // The root package's crates/ and vendor/ live beside src/, so
            // only the member's own tree is walked here.
            let mut files = Vec::new();
            collect_rs(&base, &mut files)?;
            files.sort();
            for abs in files {
                let target = if sub == "src" && abs.starts_with(base.join("bin")) {
                    TargetKind::Bin
                } else {
                    target
                };
                let rel = abs.strip_prefix(root).unwrap_or(&abs).to_path_buf();
                out.push(SourceFile {
                    abs,
                    rel,
                    crate_name: crate_name.clone(),
                    target,
                });
            }
        }
    }
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().to_string();
        if path.is_dir() {
            if name == "fixtures" || name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_parse_globs_and_literals() {
        let manifest = "[workspace]\nmembers = [\"crates/*\", \"vendor/*\",\n  \"tools/extra\"]\n";
        assert_eq!(
            parse_members(manifest),
            vec!["crates/*", "vendor/*", "tools/extra"]
        );
    }

    fn repo_root() -> PathBuf {
        // crates/lint/ -> workspace root is two levels up.
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .unwrap()
            .to_path_buf()
    }

    #[test]
    fn real_workspace_walk_finds_known_crates_and_skips_vendor() {
        let files = workspace_files(&repo_root()).unwrap();
        assert!(files.iter().any(|f| f.crate_name == "sim"));
        assert!(files.iter().any(|f| f.crate_name == "gmt"));
        assert!(!files.iter().any(|f| f.rel.starts_with("vendor")));
        assert!(
            !files
                .iter()
                .any(|f| f.rel.to_string_lossy().contains("fixtures")),
            "fixture corpora are data, not lintable code"
        );
    }

    #[test]
    fn bin_targets_are_classified() {
        let files = workspace_files(&repo_root()).unwrap();
        let bench_bin = files
            .iter()
            .find(|f| f.rel.ends_with("crates/bench/src/bin/paper.rs"))
            .expect("paper exists");
        assert_eq!(bench_bin.target, TargetKind::Bin);
        let lib = files
            .iter()
            .find(|f| f.rel.ends_with("crates/serve/src/runtime.rs"))
            .expect("runtime.rs exists");
        assert_eq!(lib.target, TargetKind::Lib);
    }

    #[test]
    fn find_root_walks_upward() {
        let here = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        assert_eq!(find_root(&here), Some(repo_root()));
    }
}
