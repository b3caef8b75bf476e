//! The lint driver: walks the workspace, runs the semantic (AST +
//! symbol-table) rules over every file, and assembles the final
//! [`Report`].
//!
//! The workspace run is a four-pass pipeline:
//!
//! 1. read + lex + parse every member file into [`AnalyzedFile`]s,
//! 2. build the workspace [`Symbols`](crate::symbols::Symbols) table,
//! 3. per file: the U1 unit-dimension walker (which needs the global fn
//!    table),
//! 4. workspace-wide A1 alloc-in-hot-loop over the call graph
//!    ([`crate::hotloop`]).

use std::fs;
use std::io;
use std::path::Path;

use crate::diag::{Finding, Report};
use crate::hotloop::check_alloc_in_hot_loops;
use crate::rules::{check_unit_dimensions, TargetKind};
use crate::symbols::{build_symbols, AnalyzedFile};
use crate::workspace::{slash_path, workspace_files, Overlay};

/// Lints a single source string as if it lived at `rel_path`.
///
/// This is the unit the self-test fixtures drive: the same rule set the
/// workspace run uses minus the filesystem, with the file acting as its
/// own one-file workspace.
pub fn check_source(
    rel_path: &Path,
    crate_name: &str,
    target: TargetKind,
    source: &str,
) -> Vec<Finding> {
    let files = [AnalyzedFile::analyze(
        rel_path.to_path_buf(),
        crate_name.to_string(),
        target,
        source,
    )];
    lint_files(&files).findings
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
    let mut findings = Vec::new();
    for file in files {
        check_unit_dimensions(file.context(), file, &syms, &mut findings);
    }
    findings.extend(check_alloc_in_hot_loops(files));
    sort_findings(&mut findings);
    Report {
        findings,
        files_scanned: files.len(),
    }
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
/// When several findings diagnose the same tokens (a `.clamp()` whose
/// bounds both mix units trips U1 twice), only the first finding
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
            mk("A1", 3, "allocation"),
            mk("U1", 9, "unit mismatch elsewhere"),
        ];
        sort_findings(&mut findings);
        assert_eq!(
            findings
                .iter()
                .map(|f| (f.rule, f.line))
                .collect::<Vec<_>>(),
            vec![("A1", 3), ("U1", 9)],
            "same-span findings collapse to the first in (rule, message) order"
        );
    }
}
