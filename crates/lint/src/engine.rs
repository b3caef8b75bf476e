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

use std::fs;
use std::io;
use std::path::Path;

use crate::diag::{Finding, Report};
use crate::hotloop::check_alloc_in_hot_loops;
use crate::rules::{check_config_coverage, check_unit_dimensions, Findings, TargetKind};
use crate::symbols::{build_symbols, AnalyzedFile, Symbols};
use crate::workspace::{slash_path, workspace_files, Overlay};

/// Runs the per-file rule (U1) over one analyzed file.
fn check_file(file: &AnalyzedFile, syms: &Symbols, report: &mut Report) {
    let mut out = Findings::new(&file.lexed.suppressions);
    check_unit_dimensions(file.context(), file, syms, &mut out);
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
) -> (Vec<Finding>, usize) {
    let files = [AnalyzedFile::analyze(
        rel_path.to_path_buf(),
        crate_name.to_string(),
        target,
        source,
    )];
    let report = lint_files(&files);
    (report.findings, report.suppressed)
}

/// Reads, lexes and parses every workspace member file.
///
/// # Errors
///
/// Returns the first I/O error from the manifest walk or a source read.
pub fn load_workspace(root: &Path) -> io::Result<Vec<AnalyzedFile>> {
    let mut files = Vec::new();
    for file in workspace_files(root)? {
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

/// Lints a pre-loaded set of files as one workspace.
pub fn lint_files(files: &[AnalyzedFile]) -> Report {
    let syms = build_symbols(files);
    let mut report = Report::default();
    for file in files {
        check_file(file, &syms, &mut report);
    }
    let (c1, c1_suppressed) = check_config_coverage(files, &syms);
    let (a1, a1_suppressed) = check_alloc_in_hot_loops(files);
    report.findings.extend(c1);
    report.findings.extend(a1);
    report.suppressed += c1_suppressed + a1_suppressed;
    sort_findings(&mut report.findings);
    report
}

/// Lints the whole workspace rooted at `root`.
///
/// # Errors
///
/// Returns the first I/O error from reading the manifest or a source
/// file; individual findings never error.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    Ok(lint_files(&load_workspace(root)?))
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
}
