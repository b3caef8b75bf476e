//! O1 — order-sensitive float accumulation.
//!
//! Float addition is not associative: folding the same multiset of
//! values in two different orders gives two different sums. A float
//! `+=` inside a loop over `HashMap`/`HashSet` iteration, or a
//! `.sum::<f32|f64>()`/`.product()` over a hash container's iterators,
//! bakes the iteration order into the result — the classic
//! parallel-reduction nondeterminism bug, and exactly what integer
//! accumulators (which N1 deliberately treats as order-independent) do
//! not suffer from.

use std::collections::BTreeSet;

use crate::ast::{AnyNode, Block, Expr, ExprKind, StmtKind};
use crate::callgraph::CallGraph;
use crate::diag::Finding;
use crate::lexer::TokKind;
use crate::rules::{Config, FileContext, Findings};
use crate::symbols::{AnalyzedFile, Symbols};

/// Crates O1 watches: the model crates plus the summarizers whose
/// exported aggregates must be bit-stable.
pub(crate) const O1_CRATES: &[&str] = &[
    "analysis",
    "baselines",
    "core",
    "frontend",
    "gpu",
    "mem",
    "pcie",
    "reuse",
    "serve",
    "sim",
    "ssd",
    "workloads",
];

/// Runs O1 over every non-test function of the O1 crates. Returns the
/// surviving findings and the number silenced by suppressions.
pub fn check_o1(
    files: &[AnalyzedFile],
    syms: &Symbols,
    cg: &CallGraph<'_>,
    config: &Config,
) -> (Vec<Finding>, usize) {
    let mut findings = Vec::new();
    let mut suppressed = 0;
    for info in cg.fns.iter() {
        if info.in_test {
            continue;
        }
        let fi = info.file;
        if !O1_CRATES.contains(&files[fi].crate_name.as_str()) {
            continue;
        }
        let Some(body) = &info.item.body else {
            continue;
        };
        let toks = &files[fi].lexed.tokens;
        // Names known to be hash containers / floats in this fn:
        // parameters, `let` ascriptions, and the receiver's fields.
        let mut hashes: BTreeSet<&str> = BTreeSet::new();
        let mut floats: BTreeSet<&str> = BTreeSet::new();
        for p in &info.item.params {
            let Some(name) = &p.name else { continue };
            if ty_has_hash(&p.ty) {
                hashes.insert(name.as_str());
            }
            if ty_has_float(&p.ty) {
                floats.insert(name.as_str());
            }
        }
        if let Some(sty) = &info.self_ty {
            if let Some(sinfo) = syms.structs.get(sty) {
                for field in &sinfo.fields {
                    if ty_has_hash(&field.ty) {
                        hashes.insert(field.name.as_str());
                    }
                    if ty_has_float(&field.ty) {
                        floats.insert(field.name.as_str());
                    }
                }
            }
        }
        collect_ascriptions(body, &mut hashes, &mut floats);

        let mut hits: Vec<O1Hit> = Vec::new();
        let span_mentions = |lo: usize, hi: usize, set: &BTreeSet<&str>| {
            toks[lo..hi.min(toks.len())]
                .iter()
                .any(|t| t.kind == TokKind::Ident && set.contains(t.text.as_str()))
        };
        o1_walk_block(
            body,
            false,
            &mut hits,
            &|e: &Expr| span_mentions(e.span.lo, e.span.hi, &hashes),
            &|e: &Expr| span_mentions(e.span.lo, e.span.hi, &floats),
            &|lo: usize, hi: usize| {
                toks[lo..hi.min(toks.len())]
                    .iter()
                    .any(|t| t.text == "f32" || t.text == "f64")
            },
        );
        if hits.is_empty() {
            continue;
        }
        let ctx = FileContext {
            rel_path: &files[fi].rel,
            crate_name: &files[fi].crate_name,
            target: files[fi].target,
        };
        let mut acc = Findings::new(&files[fi].lexed.suppressions);
        for hit in hits {
            let Some(tok) = toks.get(hit.tok) else {
                continue;
            };
            acc.push(
                ctx,
                config,
                "O1",
                tok,
                format!(
                    "{} folds floats in `HashMap`/`HashSet` iteration order in \
                     `{}`; float addition is not associative, so the result \
                     depends on visit order — fold over a sorted/BTree view or \
                     accumulate integers",
                    hit.what, info.item.name
                ),
            );
        }
        findings.append(&mut acc.findings);
        suppressed += acc.suppressed;
    }
    (findings, suppressed)
}

fn ty_has_hash(ty: &[String]) -> bool {
    ty.iter().any(|t| t == "HashMap" || t == "HashSet")
}

fn ty_has_float(ty: &[String]) -> bool {
    ty.iter().any(|t| t == "f32" || t == "f64")
}

struct O1Hit {
    /// Token index to anchor the finding at.
    tok: usize,
    /// What fired: the accumulation shape.
    what: &'static str,
}

/// Gathers `let`-ascribed hash-container and float names from a block,
/// nested blocks included — names are treated flow-insensitively, which
/// over-approximates in the right direction.
fn collect_ascriptions<'a>(
    b: &'a Block,
    hashes: &mut BTreeSet<&'a str>,
    floats: &mut BTreeSet<&'a str>,
) {
    let mut stack: Vec<AnyNode<'a>> = vec![AnyNode::Block(b)];
    let mut kids = Vec::new();
    while let Some(node) = stack.pop() {
        if let AnyNode::Stmt(s) = node {
            if let StmtKind::Let {
                name: Some(name),
                ty,
                ..
            } = &s.kind
            {
                if ty_has_hash(ty) {
                    hashes.insert(name.as_str());
                }
                if ty_has_float(ty) {
                    floats.insert(name.as_str());
                }
            }
        }
        kids.clear();
        node.children(&mut kids);
        stack.append(&mut kids);
    }
}

/// Walks expressions tracking whether we are inside a loop whose
/// iteration order comes from a hash container.
fn o1_walk_expr(
    e: &Expr,
    in_hash_loop: bool,
    hits: &mut Vec<O1Hit>,
    mentions_hash: &dyn Fn(&Expr) -> bool,
    mentions_float: &dyn Fn(&Expr) -> bool,
    span_has_float_ty: &dyn Fn(usize, usize) -> bool,
) {
    let recurse = |e: &Expr, in_loop: bool, hits: &mut Vec<O1Hit>| {
        o1_walk_expr(
            e,
            in_loop,
            hits,
            mentions_hash,
            mentions_float,
            span_has_float_ty,
        );
    };
    match &e.kind {
        ExprKind::For { iter, body } => {
            recurse(iter, in_hash_loop, hits);
            let hash_iter = in_hash_loop || mentions_hash(iter);
            o1_walk_block(
                body,
                hash_iter,
                hits,
                mentions_hash,
                mentions_float,
                span_has_float_ty,
            );
        }
        ExprKind::While { cond, body } => {
            recurse(cond, in_hash_loop, hits);
            o1_walk_block(
                body,
                in_hash_loop,
                hits,
                mentions_hash,
                mentions_float,
                span_has_float_ty,
            );
        }
        ExprKind::Loop(body) | ExprKind::BlockExpr(body) => {
            o1_walk_block(
                body,
                in_hash_loop,
                hits,
                mentions_hash,
                mentions_float,
                span_has_float_ty,
            );
        }
        ExprKind::Assign {
            op_tok, lhs, rhs, ..
        } => {
            if in_hash_loop && mentions_float(lhs) {
                hits.push(O1Hit {
                    tok: *op_tok,
                    what: "compound float assignment",
                });
            }
            recurse(lhs, in_hash_loop, hits);
            recurse(rhs, in_hash_loop, hits);
        }
        ExprKind::MethodCall {
            recv,
            name,
            name_tok,
            args,
        } => {
            if matches!(name.as_str(), "sum" | "product")
                && mentions_hash(recv)
                && (span_has_float_ty(e.span.lo, e.span.hi) || mentions_float(recv))
            {
                hits.push(O1Hit {
                    tok: *name_tok,
                    what: "a float `sum()`/`product()` fold",
                });
            }
            recurse(recv, in_hash_loop, hits);
            for a in args {
                recurse(a, in_hash_loop, hits);
            }
        }
        ExprKind::If { cond, then, els } => {
            recurse(cond, in_hash_loop, hits);
            o1_walk_block(
                then,
                in_hash_loop,
                hits,
                mentions_hash,
                mentions_float,
                span_has_float_ty,
            );
            if let Some(els) = els {
                recurse(els, in_hash_loop, hits);
            }
        }
        ExprKind::Match { scrutinee, arms } => {
            recurse(scrutinee, in_hash_loop, hits);
            for arm in arms {
                if let Some(g) = &arm.guard {
                    recurse(g, in_hash_loop, hits);
                }
                recurse(&arm.body, in_hash_loop, hits);
            }
        }
        ExprKind::Call { callee, args } => {
            recurse(callee, in_hash_loop, hits);
            for a in args {
                recurse(a, in_hash_loop, hits);
            }
        }
        ExprKind::Binary { lhs, rhs, .. } => {
            recurse(lhs, in_hash_loop, hits);
            recurse(rhs, in_hash_loop, hits);
        }
        ExprKind::Closure(body) => recurse(body, in_hash_loop, hits),
        ExprKind::Unary(Some(i)) | ExprKind::Paren(i) | ExprKind::Try(i) | ExprKind::Cast(i) => {
            recurse(i, in_hash_loop, hits)
        }
        ExprKind::Field { base, .. } => recurse(base, in_hash_loop, hits),
        ExprKind::Index { base, index } => {
            recurse(base, in_hash_loop, hits);
            recurse(index, in_hash_loop, hits);
        }
        ExprKind::Group(elems) => {
            for el in elems {
                recurse(el, in_hash_loop, hits);
            }
        }
        ExprKind::StructLit { fields, rest, .. } => {
            for (_, _, v) in fields {
                if let Some(v) = v {
                    recurse(v, in_hash_loop, hits);
                }
            }
            if let Some(r) = rest {
                recurse(r, in_hash_loop, hits);
            }
        }
        ExprKind::Path(_)
        | ExprKind::Lit
        | ExprKind::MacroCall
        | ExprKind::Unary(None)
        | ExprKind::Verbatim => {}
    }
}

fn o1_walk_block(
    b: &Block,
    in_hash_loop: bool,
    hits: &mut Vec<O1Hit>,
    mentions_hash: &dyn Fn(&Expr) -> bool,
    mentions_float: &dyn Fn(&Expr) -> bool,
    span_has_float_ty: &dyn Fn(usize, usize) -> bool,
) {
    for stmt in &b.stmts {
        match &stmt.kind {
            StmtKind::Let { init: Some(e), .. } | StmtKind::Expr(e) => {
                o1_walk_expr(
                    e,
                    in_hash_loop,
                    hits,
                    mentions_hash,
                    mentions_float,
                    span_has_float_ty,
                );
            }
            StmtKind::Let { init: None, .. } | StmtKind::Item(_) | StmtKind::Verbatim => {}
        }
    }
}
