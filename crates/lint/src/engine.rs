//! The lint driver: walks the workspace, runs the token rules and the
//! semantic (AST + symbol-table) rules over every file, and assembles
//! the final [`Report`].
//!
//! The workspace run is a five-pass pipeline:
//!
//! 1. read + lex + parse every member file into [`AnalyzedFile`]s,
//! 2. build the workspace [`Symbols`] table,
//! 3. per file: token rules (D1/D2/D3/P1/M1), S1 on crate roots, and
//!    the U1 unit-dimension walker (which needs the global fn table),
//! 4. workspace-wide C1 config-coverage and T1 trace-schema checks,
//! 5. the flow-sensitive families (N1/A1/G1) over the call graph and
//!    per-function CFGs ([`crate::flow`]).
//!
//! Every rule pass is individually timed; `--timings` surfaces the
//! accumulated per-rule wall time so budget regressions (the CI
//! `--max-millis` gate) can be attributed to a rule instead of bisected.

use std::fs;
use std::io;
use std::path::Path;
use std::time::Duration;
use std::time::Instant; // gmt-lint: allow(D1): host-side lint timing, not simulation.

use crate::diag::{Finding, Level, Report};
use crate::flow::{check_flow_rules, ShardReport};
use crate::rules::{
    check_config_coverage, check_d1, check_d2, check_d3, check_m1, check_p1, check_trace_schema,
    check_unit_dimensions, has_forbid_unsafe, test_mask, Config, FileContext, Findings, TargetKind,
};
use crate::symbols::{build_symbols, AnalyzedFile, Symbols};
use crate::workspace::{workspace_files, Overlay};

/// Accumulated wall time per rule pass, in first-seen order.
pub type Timings = Vec<(&'static str, Duration)>;

fn bump(timings: &mut Timings, name: &'static str, d: Duration) {
    if let Some(entry) = timings.iter_mut().find(|(n, _)| *n == name) {
        entry.1 += d;
    } else {
        timings.push((name, d));
    }
}

fn context<'a>(file: &'a AnalyzedFile) -> FileContext<'a> {
    FileContext {
        rel_path: &file.rel,
        crate_name: &file.crate_name,
        target: file.target,
    }
}

/// Runs every per-file rule over one analyzed file, attributing wall
/// time to each rule pass.
fn check_file(
    file: &AnalyzedFile,
    syms: &Symbols,
    config: &Config,
    report: &mut Report,
    timings: &mut Timings,
) {
    let ctx = context(file);
    let mut out = Findings::new(&file.lexed.suppressions);
    let mask = test_mask(&file.lexed.tokens);
    let mut timed = |name, f: &mut dyn FnMut(&mut Findings)| {
        let t = Instant::now();
        f(&mut out);
        bump(timings, name, t.elapsed());
    };
    timed("D1", &mut |out| {
        check_d1(ctx, &file.lexed, &mask, config, out)
    });
    timed("D2", &mut |out| check_d2(ctx, &file.lexed, config, out));
    timed("D3", &mut |out| {
        check_d3(ctx, &file.lexed, &mask, config, out)
    });
    timed("P1", &mut |out| {
        check_p1(ctx, &file.lexed, &mask, config, out)
    });
    timed("M1", &mut |out| check_m1(ctx, &file.lexed, config, out));
    timed("U1", &mut |out| {
        check_unit_dimensions(ctx, file, syms, config, out, None);
    });
    report.findings.extend(out.findings);
    report.suppressed += out.suppressed;
    let t = Instant::now();
    if file.crate_root
        && config.level("S1") != Level::Allow
        && !has_forbid_unsafe(&file.lexed.tokens)
    {
        if s1_suppressed(&file.lexed.suppressions) {
            report.suppressed += 1;
        } else {
            report
                .findings
                .push(missing_forbid_unsafe(&file.rel, config));
        }
    }
    bump(timings, "S1", t.elapsed());
    report.files_scanned += 1;
}

/// Whether a crate root carries a justified S1 suppression.
///
/// The missing-attribute finding anchors at line 1 column 1, so the
/// standard own-line/line-above coverage window collapses to: only a
/// `// gmt-lint: allow(S1): reason` comment on the first line of the
/// crate root silences it.
fn s1_suppressed(suppressions: &[crate::lexer::Suppression]) -> bool {
    suppressions
        .iter()
        .any(|s| s.line == 1 && s.rules.iter().any(|r| r == "S1"))
}

fn missing_forbid_unsafe(rel_path: &Path, config: &Config) -> Finding {
    Finding {
        rule: "S1",
        level: config.level("S1"),
        file: rel_path.to_path_buf(),
        line: 1,
        col: 1,
        end_line: 1,
        end_col: 1,
        snippet: String::new(),
        message: "crate root is missing `#![forbid(unsafe_code)]`; every workspace crate \
                  must statically rule unsafe code out"
            .to_string(),
    }
}

/// Lints a single source string as if it lived at `rel_path`.
///
/// This is the unit the self-test fixtures drive: the same rule set the
/// workspace run uses — token rules, symbol-table rules, and the
/// flow-sensitive N1/A1/G1 families — minus the filesystem, with the
/// file acting as its own one-file workspace. Returns the surviving
/// findings plus the number of suppressed ones.
pub fn check_source(
    rel_path: &Path,
    crate_name: &str,
    target: TargetKind,
    source: &str,
    config: &Config,
) -> (Vec<Finding>, usize) {
    let files = [AnalyzedFile::analyze(
        rel_path.to_path_buf(),
        crate_name.to_string(),
        target,
        false,
        source,
    )];
    let report = lint_files(&files, config).report;
    (report.findings, report.suppressed)
}

/// Lints a crate-root source string for S1 (`#![forbid(unsafe_code)]`).
pub fn check_crate_root(rel_path: &Path, source: &str, config: &Config) -> Option<Finding> {
    if config.level("S1") == Level::Allow {
        return None;
    }
    let lexed = crate::lexer::lex(source);
    if has_forbid_unsafe(&lexed.tokens) || s1_suppressed(&lexed.suppressions) {
        return None;
    }
    Some(missing_forbid_unsafe(rel_path, config))
}

/// Reads, lexes and parses every workspace member file.
///
/// # Errors
///
/// Returns the first I/O error from the manifest walk or a source read.
pub fn load_workspace(root: &Path, include_vendor: bool) -> io::Result<Vec<AnalyzedFile>> {
    let mut files = Vec::new();
    for file in workspace_files(root, include_vendor)? {
        let source = fs::read_to_string(&file.abs)?;
        files.push(AnalyzedFile::analyze(
            file.rel,
            file.crate_name,
            file.target,
            file.crate_root,
            &source,
        ));
    }
    Ok(files)
}

/// Applies an in-memory [`Overlay`] to a pre-loaded workspace.
///
/// Files named by the overlay are re-lexed and re-parsed from the
/// replacement source; everything else is cloned as-is. This is the
/// mutation harness's library-mode entry: nothing touches the on-disk
/// tree, and the result feeds [`lint_files`] directly.
pub fn apply_overlay(base: &[AnalyzedFile], overlay: &Overlay) -> Vec<AnalyzedFile> {
    base.iter()
        .map(
            |f| match overlay.files.get(&crate::flow::slash_path(&f.rel)) {
                Some(source) => AnalyzedFile::analyze(
                    f.rel.clone(),
                    f.crate_name.clone(),
                    f.target,
                    f.crate_root,
                    source,
                ),
                None => f.clone(),
            },
        )
        .collect()
}

/// Everything one workspace run produces: the report, the per-rule
/// timings and the shard-readiness inventory.
pub struct LintRun {
    /// The sorted findings and counters.
    pub report: Report,
    /// Per-rule wall-time attribution (`--timings`).
    pub timings: Timings,
    /// The G1 sharding-readiness inventory (`--shard-report`).
    pub shard: ShardReport,
}

/// Lints a pre-loaded set of files as one workspace.
pub fn lint_files(files: &[AnalyzedFile], config: &Config) -> LintRun {
    let mut timings = Timings::new();
    let t = Instant::now();
    let syms = build_symbols(files);
    bump(&mut timings, "symbols", t.elapsed());
    let mut report = Report::default();
    for file in files {
        check_file(file, &syms, config, &mut report, &mut timings);
    }
    let t = Instant::now();
    let (c1, c1_suppressed) = check_config_coverage(files, &syms, config);
    bump(&mut timings, "C1", t.elapsed());
    let t = Instant::now();
    let (t1, t1_suppressed) = check_trace_schema(files, &syms, config);
    bump(&mut timings, "T1", t.elapsed());
    report.findings.extend(c1);
    report.findings.extend(t1);
    report.suppressed += c1_suppressed + t1_suppressed;
    let flow = check_flow_rules(files, &syms, config);
    report.findings.extend(flow.findings);
    report.suppressed += flow.suppressed;
    for (name, d) in flow.timings {
        bump(&mut timings, name, d);
    }
    sort_findings(&mut report.findings);
    LintRun {
        report,
        timings,
        shard: flow.shard,
    }
}

/// Lints the whole workspace rooted at `root`.
///
/// # Errors
///
/// Returns the first I/O error from reading the manifest or a source
/// file; individual findings never error.
pub fn lint_workspace(root: &Path, config: &Config, include_vendor: bool) -> io::Result<Report> {
    let files = load_workspace(root, include_vendor)?;
    Ok(lint_files(&files, config).report)
}

/// Sorts findings into report order and collapses duplicates anchored
/// at the identical span.
///
/// When several rules diagnose the same tokens (a float-unit
/// accumulation under hash iteration trips both O1 and U1, a dead
/// numeric config knob trips both C1 clauses), only the first finding
/// in (rule id, message) order survives, so the text and JSON output and
/// the summary counters report one diagnostic per defect site.
fn sort_findings(findings: &mut Vec<Finding>) {
    findings.sort_by(|a, b| {
        (
            &a.file, a.line, a.col, a.end_line, a.end_col, a.rule, &a.message,
        )
            .cmp(&(
                &b.file, b.line, b.col, b.end_line, b.end_col, b.rule, &b.message,
            ))
    });
    findings.dedup_by(|cur, prev| {
        cur.file == prev.file
            && cur.line == prev.line
            && cur.col == prev.col
            && cur.end_line == prev.end_line
            && cur.end_col == prev.end_col
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn s1_fires_on_a_missing_attribute_and_respects_overrides() {
        let rel = PathBuf::from("crates/x/src/lib.rs");
        let config = Config::default();
        let f = check_crate_root(&rel, "pub fn f() {}", &config).expect("missing attr");
        assert_eq!(f.rule, "S1");
        let mut relaxed = Config::default();
        relaxed
            .overrides
            .insert("S1".to_string(), crate::diag::Level::Allow);
        assert!(check_crate_root(&rel, "pub fn f() {}", &relaxed).is_none());
    }

    #[test]
    fn identical_span_findings_dedup_to_the_lowest_rule_id() {
        let mk = |rule: &'static str, line: u32, message: &str| crate::diag::Finding {
            rule,
            level: crate::diag::Level::Deny,
            file: PathBuf::from("crates/x/src/lib.rs"),
            line,
            col: 7,
            end_line: line,
            end_col: 12,
            snippet: "knob".to_string(),
            message: message.to_string(),
        };
        // Two rules on the identical span, plus an unrelated span that
        // must survive untouched.
        let mut findings = vec![
            mk("U1", 3, "unit mismatch"),
            mk("C1", 3, "dead knob"),
            mk("U1", 9, "unit mismatch elsewhere"),
        ];
        sort_findings(&mut findings);
        assert_eq!(
            findings
                .iter()
                .map(|f| (f.rule, f.line))
                .collect::<Vec<_>>(),
            vec![("C1", 3), ("U1", 9)],
            "same-span findings collapse to the first in (rule, message) order"
        );
    }

    #[test]
    fn timed_run_attributes_every_rule_pass() {
        let files = [AnalyzedFile::analyze(
            PathBuf::from("crates/core/src/x.rs"),
            "core".into(),
            crate::rules::TargetKind::Lib,
            false,
            "pub fn access() { let v: Vec<u32> = Vec::new(); drop(v); }",
        )];
        let config = Config::default();
        let timings = lint_files(&files, &config).timings;
        let names: Vec<&str> = timings.iter().map(|(n, _)| *n).collect();
        for expected in [
            "D1", "D2", "D3", "P1", "M1", "U1", "S1", "C1", "T1", "N1", "A1", "G1", "R1", "R2",
            "O1",
        ] {
            assert!(names.contains(&expected), "missing {expected}: {names:?}");
        }
    }
}
