//! The lint driver: walks the workspace, runs the semantic (AST +
//! symbol-table) rules over every file, and assembles the final
//! [`Report`].
//!
//! The workspace run is a four-pass pipeline:
//!
//! 1. read + lex + parse every member file into [`AnalyzedFile`]s,
//! 2. build the workspace [`Symbols`] table,
//! 3. per file: the U1 unit-dimension walker (which needs the global fn
//!    table),
//! 4. workspace-wide C1 config-coverage, and A1 alloc-in-hot-loop over
//!    the call graph ([`crate::hotloop`]).
//!
//! Every rule pass is individually timed; `--timings` surfaces the
//! accumulated per-rule wall time so budget regressions (the CI
//! `--max-millis` gate) can be attributed to a rule instead of bisected.

use std::fs;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::diag::{Finding, Report};
use crate::hotloop::check_alloc_in_hot_loops;
use crate::rules::{check_config_coverage, check_unit_dimensions, Config, Findings, TargetKind};
use crate::symbols::{build_symbols, AnalyzedFile, Symbols};
use crate::workspace::{slash_path, workspace_files, Overlay};

/// Accumulated wall time per rule pass, in first-seen order.
pub type Timings = Vec<(&'static str, Duration)>;

fn bump(timings: &mut Timings, name: &'static str, d: Duration) {
    if let Some(entry) = timings.iter_mut().find(|(n, _)| *n == name) {
        entry.1 += d;
    } else {
        timings.push((name, d));
    }
}

/// Runs the per-file rule (U1) over one analyzed file, attributing its
/// wall time.
fn check_file(
    file: &AnalyzedFile,
    syms: &Symbols,
    config: &Config,
    report: &mut Report,
    timings: &mut Timings,
) {
    let mut out = Findings::new(&file.lexed.suppressions);
    let t = Instant::now();
    check_unit_dimensions(file.context(), file, syms, config, &mut out, None);
    bump(timings, "U1", t.elapsed());
    report.findings.extend(out.findings);
    report.suppressed += out.suppressed;
    report.files_scanned += 1;
}

/// Lints a single source string as if it lived at `rel_path`.
///
/// This is the unit the self-test fixtures drive: the same rule set the
/// workspace run uses minus the filesystem, with the file acting as its
/// own one-file workspace. Returns the surviving
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
        source,
    )];
    let report = lint_files(&files, config).report;
    (report.findings, report.suppressed)
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
        .map(|f| match overlay.files.get(&slash_path(&f.rel)) {
            Some(source) => {
                AnalyzedFile::analyze(f.rel.clone(), f.crate_name.clone(), f.target, source)
            }
            None => f.clone(),
        })
        .collect()
}

/// Everything one workspace run produces: the report and the per-rule
/// timings.
pub struct LintRun {
    /// The sorted findings and counters.
    pub report: Report,
    /// Per-rule wall-time attribution (`--timings`).
    pub timings: Timings,
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
    let (a1, a1_suppressed) = check_alloc_in_hot_loops(files, config);
    bump(&mut timings, "A1", t.elapsed());
    report.findings.extend(c1);
    report.findings.extend(a1);
    report.suppressed += c1_suppressed + a1_suppressed;
    sort_findings(&mut report.findings);
    LintRun { report, timings }
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
/// When several findings diagnose the same tokens (a dead numeric config
/// knob trips both C1 clauses), only the first finding
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
            "pub fn access() { let v: Vec<u32> = Vec::new(); drop(v); }",
        )];
        let config = Config::default();
        let timings = lint_files(&files, &config).timings;
        let names: Vec<&str> = timings.iter().map(|(n, _)| *n).collect();
        for expected in ["U1", "C1", "A1"] {
            assert!(names.contains(&expected), "missing {expected}: {names:?}");
        }
    }
}
