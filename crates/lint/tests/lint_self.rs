//! The lint's own acceptance suite: every fixture trips exactly the rule
//! it was planted for, the real workspace is clean, every workspace
//! manifest opts into the workspace lints that carry S1, and every
//! per-crate `clippy.toml` keeps the root file's bans.

use std::fs;
use std::path::{Path, PathBuf};

use gmt_lint::rules::rule;
use gmt_lint::workspace::member_dirs;
use gmt_lint::{check_source, Report, TargetKind};

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name}: {e}"))
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels under the root")
        .to_path_buf()
}

/// (fixture file, pretend path, crate, target, rule it must trip).
const PLANTED: &[(&str, &str, &str, TargetKind, &str)] = &[
    (
        "u1_mixed_units.rs",
        "crates/core/src/latency.rs",
        "core",
        TargetKind::Lib,
        "U1",
    ),
    (
        "a1_alloc_hot_loop.rs",
        "crates/core/src/hotcache.rs",
        "core",
        TargetKind::Lib,
        "A1",
    ),
    (
        "a1_alloc_per_issue.rs",
        "crates/gpu/src/replay.rs",
        "gpu",
        TargetKind::Lib,
        "A1",
    ),
];

#[test]
fn each_fixture_trips_exactly_its_rule_at_deny() {
    for (file, path, crate_name, target, expected) in PLANTED {
        let source = fixture(file);
        let findings = check_source(Path::new(path), crate_name, *target, &source);
        assert_eq!(
            findings.len(),
            1,
            "{file} must plant exactly one violation, got {findings:#?}"
        );
        assert_eq!(findings[0].rule, *expected, "{file}");
    }
}

/// The red-run demonstration: any planted regression makes the report a
/// failing one, which is exactly what flips CI red.
#[test]
fn a_planted_regression_fails_the_run() {
    for (file, path, crate_name, target, expected) in PLANTED {
        let source = fixture(file);
        let report = Report {
            findings: check_source(Path::new(path), crate_name, *target, &source),
            files_scanned: 1,
        };
        assert!(
            !report.is_clean(),
            "{file}: rule {expected} must fail the run"
        );
        assert!(report.render_json().contains("\"ok\":false"));
    }
}

/// Inventory completeness: every registered rule must ship at least one
/// firing fixture and at least one mutation template, so the gmt-mutate
/// harness measures its recall — and every template must name a
/// registered rule. A rule cannot land without both.
#[test]
fn every_rule_has_fixture_and_mutation_template() {
    use gmt_lint::rules::{MUTATIONS, RULES};
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let names: Vec<String> = fs::read_dir(&dir)
        .expect("fixtures dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    for r in RULES {
        let prefix = format!("{}_", r.id.to_lowercase());
        assert!(
            names.iter().any(|n| n.starts_with(&prefix)),
            "rule {} has no firing fixture ({prefix}*.rs)",
            r.id
        );
        assert!(
            MUTATIONS.iter().any(|m| m.rule == r.id),
            "rule {} has no MutationTemplate; gmt-mutate cannot measure its recall",
            r.id
        );
    }
    for m in MUTATIONS {
        assert!(
            rule(m.rule).is_some(),
            "template {} names unregistered rule {}",
            m.name,
            m.rule
        );
    }
}

/// The workspace itself must hold every invariant the lint enforces —
/// this is the test that keeps it that way.
#[test]
fn real_workspace_is_clean_at_deny_level() {
    let report = gmt_lint::lint_workspace(&repo_root()).expect("workspace walk succeeds");
    assert!(
        report.findings.is_empty(),
        "workspace must be lint-clean:\n{}",
        report.render_text()
    );
    assert!(report.files_scanned > 100, "the walk must cover the tree");
}

/// The full pass — U1 over every file and A1 over the call graph — is
/// budgeted at 6 s; the debug-profile walk currently takes well under
/// one second.
#[test]
fn full_workspace_pass_is_fast() {
    let started = std::time::Instant::now();
    let _ = gmt_lint::lint_workspace(&repo_root()).unwrap();
    assert!(
        started.elapsed() < std::time::Duration::from_secs(6),
        "lint pass took {:?}",
        started.elapsed()
    );
}

#[test]
fn every_planted_rule_is_registered() {
    for (_, _, _, _, id) in PLANTED {
        assert!(rule(id).is_some(), "rule {id} missing from RULES");
    }
}

/// Whether a manifest holds `[lints]` with `workspace = true`.
fn opts_into_workspace_lints(manifest: &str) -> bool {
    let mut in_lints = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_lints = line == "[lints]";
        } else if in_lints && line.replace(' ', "") == "workspace=true" {
            return true;
        }
    }
    false
}

/// S1 (no unsafe code) is rustc's `unsafe_code` lint, forbidden once in
/// the root `[workspace.lints.rust]`. Cargo applies it only to packages
/// that opt in with `[lints] workspace = true`, so a member without those
/// lines would quietly allow `unsafe` again: every manifest the member
/// walk yields, and the root package's, must carry them.
#[test]
fn every_workspace_manifest_opts_into_the_workspace_lints() {
    let root = repo_root();
    let root_manifest = fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    assert!(
        root_manifest.contains("[workspace.lints.rust]\nunsafe_code = \"forbid\""),
        "the root manifest must forbid unsafe code for the workspace"
    );
    let mut manifests = vec![root.join("Cargo.toml")];
    for dir in member_dirs(&root, true).expect("member walk succeeds") {
        manifests.push(dir.join("Cargo.toml"));
    }
    assert!(manifests.len() > 12, "the walk must cover the members");
    for path in &manifests {
        let text = fs::read_to_string(path).expect("readable manifest");
        assert!(
            opts_into_workspace_lints(&text),
            "{} lacks `[lints] workspace = true`, so unsafe code is allowed there",
            path.display()
        );
    }
    // The check fails on a member manifest with the two lines removed.
    let pcie = fs::read_to_string(root.join("crates/pcie/Cargo.toml")).expect("pcie manifest");
    assert!(!opts_into_workspace_lints(
        &pcie.replace("[lints]\nworkspace = true\n", "")
    ));
}

/// The `(key, path)` pairs of a clippy.toml's `disallowed-*` lists,
/// skipping the D1 (host clock) entries, which the crates that time
/// themselves leave out on purpose.
fn disallowed_bans(toml: &str) -> Vec<(String, String)> {
    let mut key: Option<&str> = None;
    let mut out = Vec::new();
    for line in toml.lines().map(str::trim) {
        if let Some((k, _)) = line.split_once(" = [") {
            key = k.starts_with("disallowed-").then_some(k);
        } else if line == "]" {
            key = None;
        } else if let (Some(k), Some(rest)) = (key, line.strip_prefix("{ path = \"")) {
            if !line.contains("reason = \"D1:") {
                let path = rest.split('"').next().unwrap_or_default();
                out.push((k.to_string(), path.to_string()));
            }
        }
    }
    out
}

/// The root bans `text` does not carry.
fn missing_bans<'a>(root: &'a [(String, String)], text: &str) -> Vec<&'a (String, String)> {
    let have = disallowed_bans(text);
    root.iter().filter(|ban| !have.contains(ban)).collect()
}

/// A crate's own clippy.toml replaces the root one rather than extending
/// it, so a per-crate file that misses an entry quietly lifts that ban
/// for the crate. Every clippy.toml among the workspace members must
/// carry each root `disallowed-*` entry except D1's clock entries.
#[test]
fn every_member_clippy_toml_carries_the_root_bans() {
    let root = repo_root();
    let root_toml = fs::read_to_string(root.join("clippy.toml")).expect("root clippy.toml");
    let bans = disallowed_bans(&root_toml);
    // The sources of nondeterminism and shared state that D2, D3, O1, N1,
    // G1 and R2 forbid are banned at the root.
    for path in [
        "std::collections::hash_map::RandomState::new",
        "std::thread::current",
        "std::collections::HashMap",
        "std::collections::HashSet",
        "std::cell::Cell",
        "std::cell::RefCell",
        "std::cell::UnsafeCell",
        "std::rc::Rc",
        "std::sync::Arc",
        "std::sync::Mutex",
        "std::sync::RwLock",
        "std::thread_local",
    ] {
        assert!(
            bans.iter().any(|(_, p)| p == path),
            "the root clippy.toml must ban `{path}`"
        );
    }
    let mut per_crate = 0;
    for dir in member_dirs(&root, true).expect("member walk succeeds") {
        let Ok(text) = fs::read_to_string(dir.join("clippy.toml")) else {
            continue;
        };
        per_crate += 1;
        let missing = missing_bans(&bans, &text);
        assert!(
            missing.is_empty(),
            "{}/clippy.toml replaces the root file but lacks {missing:?}",
            dir.strip_prefix(&root).unwrap_or(&dir).display()
        );
    }
    assert!(
        per_crate >= 2,
        "crates/bench and crates/lint carry their own"
    );
    // The check fails on a per-crate file with one entry removed.
    let bench = fs::read_to_string(root.join("crates/bench/clippy.toml")).expect("bench toml");
    let without: String = bench
        .lines()
        .filter(|l| !l.contains("\"std::collections::HashMap\""))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(
        missing_bans(&bans, &without),
        vec![&(
            "disallowed-types".to_string(),
            "std::collections::HashMap".to_string()
        )]
    );
}

/// Extracts the text between 1-based (line, column) positions; the end
/// position is exclusive, matching the lexer's `end_pos()`. Columns count
/// characters, not bytes.
fn span_text(contents: &str, line: usize, col: usize, end_line: usize, end_col: usize) -> String {
    let lines: Vec<&str> = contents.lines().collect();
    let slice = |l: usize, from: usize, to: Option<usize>| -> String {
        let chars = lines.get(l - 1).copied().unwrap_or("").chars();
        match to {
            Some(to) => chars.skip(from - 1).take(to.saturating_sub(from)).collect(),
            None => chars.skip(from - 1).collect(),
        }
    };
    if line == end_line {
        slice(line, col, Some(end_col))
    } else {
        let mut out = slice(line, col, None);
        for l in line + 1..end_line {
            out.push('\n');
            out.push_str(&slice(l, 1, None));
        }
        out.push('\n');
        out.push_str(&slice(end_line, 1, Some(end_col)));
        out
    }
}

/// Span round-trip over every planted finding: each finding's `snippet`
/// must equal the exact source slice its (line, col)..(end_line, end_col)
/// span points at, proving the spans and the snippets agree.
#[test]
fn finding_snippets_round_trip_against_the_fixture_sources() {
    for (file, path, crate_name, target, _) in PLANTED {
        let source = fixture(file);
        let findings = check_source(Path::new(path), crate_name, *target, &source);
        assert!(!findings.is_empty(), "{file}: no planted finding");
        for f in &findings {
            assert!(
                !f.snippet.is_empty(),
                "{file}: {} carries no snippet",
                f.rule
            );
            let span = span_text(
                &source,
                f.line as usize,
                f.col as usize,
                f.end_line as usize,
                f.end_col as usize,
            );
            assert_eq!(
                span, f.snippet,
                "{file}: {} span {}:{}..{}:{} does not match its snippet",
                f.rule, f.line, f.col, f.end_line, f.end_col
            );
        }
    }
}
