//! `--fix` rewrites for the mechanically safe subset of the rules.
//!
//! Two rules rewrite today. D3 renames `HashMap`→`BTreeMap` and
//! `HashSet`→`BTreeSet` (types, imports and paths all being the same
//! identifier token) plus rewriting `with_capacity(n)` constructor calls
//! to `new()`, which the B-tree types do not offer. U1 applies the two
//! conversions the walker proves safe: appending `* 1_000`-style
//! multipliers where a coarse unit flows into a finer slot, and wrapping
//! raw suffixed values in `Dur::from_…` where they initialize a
//! `Dur`-typed field.
//!
//! The rewrites are token-based: occurrences inside comments, strings and
//! `#[cfg(test)]` regions are left untouched, as are lines carrying a
//! `// gmt-lint: allow(...)` suppression.

use crate::lexer::{lex, TokKind};
use crate::rules::{check_unit_dimensions, test_mask, Config, FileContext, Findings, U1FixKind};
use crate::symbols::{AnalyzedFile, Symbols};

/// Applies the D3 rewrite to `source`, returning the new text, or `None`
/// if nothing needed changing.
pub fn fix_d3(source: &str) -> Option<String> {
    let lexed = lex(source);
    let tokens = &lexed.tokens;
    let mask = test_mask(tokens);
    // (byte range, replacement) edits, collected in source order.
    let mut edits: Vec<(usize, usize, &str)> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if mask[i] || t.kind != TokKind::Ident {
            continue;
        }
        let replacement = match t.text.as_str() {
            "HashMap" => "BTreeMap",
            "HashSet" => "BTreeSet",
            _ => continue,
        };
        let suppressed = lexed.suppressions.iter().any(|s| {
            (s.line == t.line || s.line + 1 == t.line) && s.rules.iter().any(|r| r == "D3")
        });
        if suppressed {
            continue;
        }
        edits.push((t.offset, t.len, replacement));
        // `HashMap::with_capacity(args)` has no B-tree equivalent; the
        // whole call collapses to `new()`.
        if tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && tokens
                .get(i + 3)
                .is_some_and(|t| t.is_ident("with_capacity"))
            && tokens.get(i + 4).is_some_and(|t| t.is_punct('('))
        {
            let mut depth = 0usize;
            for call in tokens.iter().skip(i + 4) {
                if call.is_punct('(') {
                    depth += 1;
                } else if call.is_punct(')') {
                    depth -= 1;
                    if depth == 0 {
                        let start = tokens[i + 3].offset;
                        edits.push((start, call.offset + call.len - start, "new()"));
                        break;
                    }
                }
            }
        }
    }
    if edits.is_empty() {
        return None;
    }
    let mut out = String::with_capacity(source.len());
    let mut cursor = 0usize;
    for (offset, len, replacement) in edits {
        out.push_str(&source[cursor..offset]);
        out.push_str(replacement);
        cursor = offset + len;
    }
    out.push_str(&source[cursor..]);
    Some(out)
}

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
    let ctx = FileContext {
        rel_path: &file.rel,
        crate_name: &file.crate_name,
        target: file.target,
    };
    let mut out = Findings::new(&file.lexed.suppressions);
    let mut fixes = Vec::new();
    check_unit_dimensions(ctx, file, syms, config, &mut out, Some(&mut fixes));
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

/// Drives [`fix_u1`] + [`fix_d3`] to a fixed point, re-analyzing the
/// rewritten text between passes so every edit lands on fresh token
/// offsets.
///
/// This is what makes `--fix` idempotent by construction: the loop only
/// stops when one full U1+D3 pass changes nothing, so running the fixer
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
        let mut next = cur.clone();
        if let Some(t) = fix_u1(&next, &reparsed, syms, config) {
            next = t;
        }
        if let Some(t) = fix_d3(&next) {
            next = t;
        }
        if next == cur {
            break;
        }
        cur = next;
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

    #[test]
    fn renames_types_imports_and_constructors() {
        let src = "use std::collections::{HashMap, HashSet};\n\
                   struct S { m: HashMap<u64, u32>, s: HashSet<u64> }\n\
                   fn f() -> HashMap<u64, u32> { HashMap::with_capacity(10) }\n";
        let fixed = fix_d3(src).expect("changes");
        assert!(fixed.contains("use std::collections::{BTreeMap, BTreeSet};"));
        assert!(fixed.contains("m: BTreeMap<u64, u32>, s: BTreeSet<u64>"));
        assert!(fixed.contains("BTreeMap::new()"), "{fixed}");
        assert!(!fixed.contains("with_capacity"));
    }

    #[test]
    fn leaves_tests_comments_strings_and_suppressions_alone() {
        let src = "// HashMap stays in comments\n\
                   const DOC: &str = \"HashMap\";\n\
                   // gmt-lint: allow(D3): intentionally hashed scratch space\n\
                   fn scratch() { let _ = std::collections::HashMap::<u8, u8>::new(); }\n\
                   #[cfg(test)]\nmod tests { use std::collections::HashMap; }\n";
        assert_eq!(fix_d3(src), None, "nothing eligible to rewrite");
    }

    #[test]
    fn nested_capacity_arguments_are_consumed_whole() {
        let src = "fn f(n: usize) { let _ = HashSet::<u8>::new(); let _m: HashMap<u8, u8> = HashMap::with_capacity(n.max(cap(3))); }";
        let fixed = fix_d3(src).expect("changes");
        assert!(fixed.contains("BTreeMap::new()"), "{fixed}");
        assert!(!fixed.contains("n.max"), "capacity expression is gone");
        assert!(fixed.contains("BTreeSet::<u8>::new()"));
    }
}
