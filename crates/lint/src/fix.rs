//! `--fix` rewrites for the mechanically safe subset of U1.
//!
//! U1 applies the two conversions the walker proves safe: appending
//! `* 1_000`-style multipliers where a coarse unit flows into a finer
//! slot, and wrapping raw suffixed values in `Dur::from_…` where they
//! initialize a `Dur`-typed field.
//!
//! The rewrites are insertions at token offsets, so comments and strings
//! are never touched, and a finding silenced by a
//! `// gmt-lint: allow(U1)` suppression is not rewritten.

use crate::rules::{check_unit_dimensions, Config, Findings, U1FixKind};
use crate::symbols::{AnalyzedFile, Symbols};

/// Applies the safe U1 conversions to `source`, which must be the exact
/// text `file` was analyzed from. `syms` supplies the workspace-wide
/// function and struct tables the walker consults, so `Dur`-typed fields
/// defined in other files still get their wrap.
///
/// Returns the rewritten text, or `None` if no fix applied. Suppressed
/// findings never produce a fix, and neither do expressions that bind
/// looser than `*` (where an appended multiplier would change parse).
pub fn fix_u1(
    source: &str,
    file: &AnalyzedFile,
    syms: &Symbols,
    config: &Config,
) -> Option<String> {
    let mut out = Findings::new(&file.lexed.suppressions);
    let mut fixes = Vec::new();
    check_unit_dimensions(
        file.context(),
        file,
        syms,
        config,
        &mut out,
        Some(&mut fixes),
    );
    if fixes.is_empty() {
        return None;
    }
    let toks = &file.lexed.tokens;
    // (byte offset, inserted text) — pure insertions, applied in order.
    let mut edits: Vec<(usize, String)> = Vec::new();
    for fix in &fixes {
        let (Some(first), Some(last)) = (toks.get(fix.lo_tok), toks.get(fix.hi_tok - 1)) else {
            continue;
        };
        let end = last.offset + last.len;
        match fix.kind {
            U1FixKind::Mul(mult) => edits.push((end, format!(" * {mult}"))),
            U1FixKind::WrapDur(ctor) => {
                edits.push((first.offset, format!("Dur::{ctor}(")));
                edits.push((end, ")".to_string()));
            }
        }
    }
    edits.sort_by_key(|(offset, _)| *offset);
    let mut rewritten = String::with_capacity(source.len() + 16 * edits.len());
    let mut cursor = 0usize;
    for (offset, text) in edits {
        rewritten.push_str(&source[cursor..offset]);
        rewritten.push_str(&text);
        cursor = offset;
    }
    rewritten.push_str(&source[cursor..]);
    Some(rewritten)
}

/// Drives [`fix_u1`] to a fixed point, re-analyzing the rewritten text
/// between passes so every edit lands on fresh token offsets.
///
/// This is what makes `--fix` idempotent by construction: the loop only
/// stops when one full pass changes nothing, so running the fixer
/// again on its own output is a byte-level no-op. `syms` may be the
/// workspace table built before the rewrite — the fixes never change
/// function names or signatures, so the cross-file entries stay valid.
///
/// Returns the fixed-point text, or `None` when `source` was already
/// fixed. The iteration cap is a safety net; each pass strictly shrinks
/// the finding set, so two passes is the observed maximum.
pub fn fix_to_fixpoint(
    source: &str,
    file: &AnalyzedFile,
    syms: &Symbols,
    config: &Config,
) -> Option<String> {
    let mut cur = source.to_string();
    for _ in 0..8 {
        let reparsed =
            AnalyzedFile::analyze(file.rel.clone(), file.crate_name.clone(), file.target, &cur);
        match fix_u1(&cur, &reparsed, syms, config) {
            Some(next) => cur = next,
            None => break,
        }
    }
    (cur != source).then_some(cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::TargetKind;
    use crate::symbols::build_symbols;
    use std::path::PathBuf;

    fn fixed_u1(source: &str) -> Option<String> {
        let files = [AnalyzedFile::analyze(
            PathBuf::from("crates/x/src/lib.rs"),
            "x".to_string(),
            TargetKind::Lib,
            source,
        )];
        let syms = build_symbols(&files);
        fix_u1(source, &files[0], &syms, &Config::default())
    }

    #[test]
    fn multiplies_coarse_units_into_finer_slots() {
        let src = "fn f(delay_us: u64) { let mut total_ns: u64 = 0; total_ns = delay_us; }";
        let fixed = fixed_u1(src).expect("changes");
        assert!(fixed.contains("total_ns = delay_us * 1_000;"), "{fixed}");
    }

    #[test]
    fn wraps_raw_values_flowing_into_dur_fields() {
        let src = "struct Knobs { timeout: Dur }\n\
                   fn f(budget_ms: u64) -> Knobs { Knobs { timeout: budget_ms } }";
        let fixed = fixed_u1(src).expect("changes");
        assert!(
            fixed.contains("timeout: Dur::from_millis(budget_ms)"),
            "{fixed}"
        );
    }

    #[test]
    fn suppressed_findings_are_not_rewritten() {
        let src = "fn f(delay_us: u64) {\n    let mut total_ns: u64 = 0;\n    \
                   // gmt-lint: allow(U1): interpreting microseconds as a raw count\n    \
                   total_ns = delay_us;\n}";
        assert_eq!(fixed_u1(src), None);
    }
}
