//! The lint's own acceptance suite: every fixture trips exactly the rule
//! it was planted for, the real workspace is clean at deny level, the
//! suppression syntax works, `--fix` reproduces the committed
//! after-image byte for byte, and every workspace manifest opts into the
//! workspace lints that carry S1.

use std::fs;
use std::path::{Path, PathBuf};

use gmt_lint::rules::rule;
use gmt_lint::workspace::member_dirs;
use gmt_lint::{check_source, fix, Config, Level, Report, TargetKind};

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
        "d3_hashmap_export.rs",
        "crates/analysis/src/export.rs",
        "analysis",
        TargetKind::Lib,
        "D3",
    ),
    (
        "m1_metrics_drift.rs",
        "crates/core/src/metrics.rs",
        "core",
        TargetKind::Lib,
        "M1",
    ),
    (
        "u1_mixed_units.rs",
        "crates/core/src/latency.rs",
        "core",
        TargetKind::Lib,
        "U1",
    ),
    (
        "c1_dead_config.rs",
        "crates/ssd/src/knobs.rs",
        "ssd",
        TargetKind::Lib,
        "C1",
    ),
    (
        "t1_unhandled_event.rs",
        "crates/core/src/pin_trace.rs",
        "core",
        TargetKind::Lib,
        "T1",
    ),
    (
        "n1_taint_export.rs",
        "crates/sim/src/hashy.rs",
        "sim",
        TargetKind::Lib,
        "N1",
    ),
    (
        "a1_alloc_hot_loop.rs",
        "crates/core/src/hotcache.rs",
        "core",
        TargetKind::Lib,
        "A1",
    ),
    (
        "g1_shared_state.rs",
        "crates/core/src/globals.rs",
        "core",
        TargetKind::Lib,
        "G1",
    ),
    (
        "g1_thread_local.rs",
        "crates/core/src/seq.rs",
        "core",
        TargetKind::Lib,
        "G1",
    ),
    (
        "g1_hot_cell.rs",
        "crates/core/src/counter.rs",
        "core",
        TargetKind::Lib,
        "G1",
    ),
    (
        "r2_cold_cell.rs",
        "crates/core/src/counter.rs",
        "core",
        TargetKind::Lib,
        "R2",
    ),
    (
        "r2_model_cell.rs",
        "crates/reuse/src/cellfit.rs",
        "reuse",
        TargetKind::Lib,
        "R2",
    ),
    (
        "o1_float_fold.rs",
        "crates/sim/src/foldsum.rs",
        "sim",
        TargetKind::Lib,
        "O1",
    ),
];

#[test]
fn each_fixture_trips_exactly_its_rule_at_deny() {
    for (file, path, crate_name, target, expected) in PLANTED {
        let source = fixture(file);
        let (findings, suppressed) = check_source(
            Path::new(path),
            crate_name,
            *target,
            &source,
            &Config::default(),
        );
        assert_eq!(
            findings.len(),
            1,
            "{file} must plant exactly one violation, got {findings:#?}"
        );
        assert_eq!(findings[0].rule, *expected, "{file}");
        assert_eq!(findings[0].level, Level::Deny, "{file}");
        assert_eq!(suppressed, 0, "{file}");
    }
}

/// The red-run demonstration: any planted regression makes the report a
/// failing one, which is exactly what flips CI red.
#[test]
fn a_planted_regression_fails_the_run() {
    for (file, path, crate_name, target, expected) in PLANTED {
        let source = fixture(file);
        let (findings, _) = check_source(
            Path::new(path),
            crate_name,
            *target,
            &source,
            &Config::default(),
        );
        let report = Report {
            findings,
            suppressed: 0,
            files_scanned: 1,
        };
        assert!(
            report.has_deny(),
            "{file}: rule {expected} must fail a deny-level run"
        );
        assert!(report.render_json().contains("\"ok\":false"));
    }
}

#[test]
fn allow_comment_suppresses_a_planted_violation() {
    let cases: &[(&str, &str, &str)] = &[
        (
            "suppressed_d3.rs",
            "crates/analysis/src/export.rs",
            "analysis",
        ),
        ("suppressed_m1.rs", "crates/core/src/metrics.rs", "core"),
        ("suppressed_u1.rs", "crates/core/src/latency.rs", "core"),
        ("suppressed_c1.rs", "crates/ssd/src/knobs.rs", "ssd"),
        ("suppressed_t1.rs", "crates/core/src/pin_trace.rs", "core"),
        ("suppressed_n1.rs", "crates/sim/src/hashy.rs", "sim"),
        ("suppressed_a1.rs", "crates/core/src/hotcache.rs", "core"),
        ("suppressed_g1.rs", "crates/core/src/globals.rs", "core"),
        ("suppressed_r2.rs", "crates/reuse/src/cellfit.rs", "reuse"),
        ("suppressed_o1.rs", "crates/sim/src/foldsum.rs", "sim"),
    ];
    for (file, path, crate_name) in cases {
        let source = fixture(file);
        let (findings, suppressed) = check_source(
            Path::new(path),
            crate_name,
            TargetKind::Lib,
            &source,
            &Config::default(),
        );
        assert!(findings.is_empty(), "{file}: {findings:#?}");
        assert_eq!(suppressed, 1, "{file}: suppression must be counted");
    }
}

/// Inventory completeness: every registered rule must ship (a) at least
/// one firing fixture, (b) a suppression twin proving the rule honors
/// the allow syntax, and (c) at least one mutation template so the
/// gmt-mutate harness measures its recall — and every template must
/// name a registered rule. A rule cannot land without all three.
#[test]
fn every_rule_has_fixture_twin_and_mutation_template() {
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
        let twin = format!("suppressed_{}.rs", r.id.to_lowercase());
        assert!(
            names.contains(&twin),
            "rule {} has no suppression twin ({twin})",
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

/// `--fix` is idempotent by construction: for every fixture the fixer
/// changes at all, applying it a second time to its own output must be
/// a byte-level no-op.
#[test]
fn fix_is_idempotent_across_every_fixture() {
    use gmt_lint::symbols::{build_symbols, AnalyzedFile};
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let analyze = |source: &str| {
        AnalyzedFile::analyze(
            PathBuf::from("crates/sim/src/fixture.rs"),
            "sim".to_string(),
            TargetKind::Lib,
            source,
        )
    };
    let mut rewritten = 0usize;
    for entry in fs::read_dir(&dir).expect("fixtures dir") {
        let path = entry.expect("entry").path();
        if path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let source = fs::read_to_string(&path).expect("readable fixture");
        let files = [analyze(&source)];
        let syms = build_symbols(&files);
        let Some(once) = fix::fix_to_fixpoint(&source, &files[0], &syms, &Config::default()) else {
            continue;
        };
        rewritten += 1;
        let refiles = [analyze(&once)];
        let resyms = build_symbols(&refiles);
        assert_eq!(
            fix::fix_to_fixpoint(&once, &refiles[0], &resyms, &Config::default()),
            None,
            "{name}: a second --fix pass must change nothing"
        );
    }
    assert!(
        rewritten >= 2,
        "at least the D3 and U1 before-images must rewrite (got {rewritten})"
    );
}

#[test]
fn fix_rewrites_before_into_after_byte_for_byte() {
    let before = fixture("fix_d3_before.rs");
    let after = fixture("fix_d3_after.rs");
    let fixed = fix::fix_d3(&before).expect("the before-image has violations");
    assert_eq!(
        fixed, after,
        "--fix must reproduce the committed after-image"
    );
    assert_eq!(
        fix::fix_d3(&after),
        None,
        "the after-image is already clean"
    );
}

#[test]
fn u1_fix_rewrites_before_into_after_byte_for_byte() {
    let fixed_u1 = |source: &str| {
        let files = [gmt_lint::symbols::AnalyzedFile::analyze(
            PathBuf::from("crates/pcie/src/pacing.rs"),
            "pcie".to_string(),
            TargetKind::Lib,
            source,
        )];
        let syms = gmt_lint::symbols::build_symbols(&files);
        fix::fix_u1(source, &files[0], &syms, &Config::default())
    };
    let before = fixture("fix_u1_before.rs");
    let after = fixture("fix_u1_after.rs");
    let fixed = fixed_u1(&before).expect("the before-image has violations");
    assert_eq!(
        fixed, after,
        "--fix must reproduce the committed after-image"
    );
    assert_eq!(fixed_u1(&after), None, "the after-image is already clean");
}

/// Inventory of the workspace's surviving suppressions: every
/// `gmt-lint: allow(...)` must carry a reason, the A1 (alloc in a hot
/// loop) debt from the pre-overhaul tree must stay paid off, and the
/// shared-state suppressions (G1/R2) must be version-stamped (`[G1/2]`,
/// `[R2/1]`) so a rule-precision bump forces a re-audit, and must live
/// exactly where they are documented: the shared trace ring (G1) in
/// `crates/sim/src/trace.rs`. No R2 suppression remains.
#[test]
fn workspace_suppressions_are_inventoried_and_justified() {
    fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in fs::read_dir(dir).expect("readable dir") {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if path.is_dir() {
                if name != "target" && name != "fixtures" && name != "vendor" {
                    rust_files(&path, out);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    rust_files(&repo_root().join("crates"), &mut files);
    assert!(files.len() > 50, "the walk must cover the crates");

    let mut g1_sites = Vec::new();
    let mut r2_sites = Vec::new();
    for path in &files {
        let source = fs::read_to_string(path).expect("readable source");
        let display = path
            .strip_prefix(repo_root())
            .unwrap()
            .display()
            .to_string();
        // The lint crate's own sources mention the syntax in docs and
        // string literals; only enforce the simulator crates.
        if display.starts_with("crates/lint/") {
            continue;
        }
        for (i, line) in source.lines().enumerate() {
            let Some(pos) = line.find("gmt-lint: allow(") else {
                continue;
            };
            let after = &line[pos + "gmt-lint: allow(".len()..];
            let rules = &after[..after.find(')').unwrap_or(after.len())];
            assert!(
                after.contains("):"),
                "{display}:{}: suppression must carry a `: reason`",
                i + 1
            );
            assert!(
                !rules.contains("A1"),
                "{display}:{}: the A1 hot-loop allocations were fixed in the \
                 hot-path overhaul; fix the allocation instead of suppressing",
                i + 1
            );
            for (rule_id, stamp, sites) in [
                ("G1", "[G1/2]", &mut g1_sites),
                ("R2", "[R2/1]", &mut r2_sites),
            ] {
                if !rules.contains(rule_id) {
                    continue;
                }
                assert!(
                    line.contains(stamp),
                    "{display}:{}: {rule_id} suppression must carry the \
                     rule-version stamp {stamp} so precision bumps force \
                     a re-audit",
                    i + 1
                );
                sites.push(display.clone());
            }
        }
    }
    assert_eq!(
        g1_sites,
        vec!["crates/sim/src/trace.rs".to_string()],
        "exactly one sanctioned G1 suppression: the shared trace ring"
    );
    assert!(
        r2_sites.is_empty(),
        "no interior-mutability cell is sanctioned in the model crates: {r2_sites:?}"
    );
}

/// The workspace itself must hold every invariant the lint enforces —
/// this is the test that keeps it that way.
#[test]
fn real_workspace_is_clean_at_deny_level() {
    let report = gmt_lint::lint_workspace(&repo_root(), &Config::default(), false)
        .expect("workspace walk succeeds");
    assert!(
        report.findings.is_empty(),
        "workspace must be lint-clean:\n{}",
        report.render_text()
    );
    assert!(report.files_scanned > 100, "the walk must cover the tree");
    assert!(
        report.suppressed > 0,
        "the documented exceptions carry suppressions"
    );
}

/// The full pass — the order-sensitivity scan included — is budgeted
/// at 6 s; the debug-profile walk currently takes well under one
/// second.
#[test]
fn full_workspace_pass_is_fast() {
    let started = std::time::Instant::now();
    let _ = gmt_lint::lint_workspace(&repo_root(), &Config::default(), false).unwrap();
    assert!(
        started.elapsed() < std::time::Duration::from_secs(6),
        "lint pass took {:?}",
        started.elapsed()
    );
}

/// The two-hop fixture: hash-iteration taint must cross two ordinary
/// function calls (`relay` → `forward`) before reaching the sink, which
/// only works if the bottom-up summary fixpoint propagates `forward`'s
/// sink-parameter bit into `relay`'s summary.
#[test]
fn n1_taint_propagates_through_a_two_hop_call_chain() {
    let source = fixture("n1_two_hop.rs");
    let (findings, suppressed) = check_source(
        Path::new("crates/sim/src/twohop.rs"),
        "sim",
        TargetKind::Lib,
        &source,
        &Config::default(),
    );
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].rule, "N1");
    assert!(
        findings[0].message.contains("via the call chain"),
        "the finding must name the interprocedural route: {}",
        findings[0].message
    );
    assert_eq!(suppressed, 0);
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
        let (findings, _) = check_source(
            Path::new(path),
            crate_name,
            *target,
            &source,
            &Config::default(),
        );
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
