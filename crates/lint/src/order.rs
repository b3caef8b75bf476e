//! Ordering analyses for the shard-safety prover: R1 merge-point
//! dominance over shared-resource writes, and O1 order-sensitive float
//! accumulation.
//!
//! # R1 — mutation outside the merge point
//!
//! The deterministic-parallelism plan (the deferred sharded DES) only works if
//! every write to shared-resource state happens inside the event-loop
//! discipline: the `EventQueue` pop/handler paths rooted at the DES
//! drivers (`run`, `run_arrivals`) and per-event entry points
//! (`access`, `poll`, `step`). Those roots are the
//! *sanctioned merge points* — within them, event order (and therefore
//! write order) is totally determined by the queue's deterministic
//! tie-breaking.
//!
//! A *mutator* is a non-constructor method of a struct with a direct
//! shared-resource field (per [`crate::escape`]) whose body accesses
//! that field and calls a write-shaped method (`borrow_mut`, `lock`,
//! `send`, …). Constructors (anything returning `Self`) are exempt:
//! they establish the cell before any event runs. R1 then asks, for
//! every mutator: can cold code reach it without passing a sanctioned
//! root? That is a reverse reachability query over the call graph with
//! the sanctioned nodes removed — if the only paths to a mutator start
//! at (or pass through) the dispatch roots, the write is dominated by
//! the merge point and the proof obligation is discharged; any other
//! path is a direct cross-module call that bypasses event ordering and
//! fires R1 at the mutator.
//!
//! To keep the bare-name call graph from joining unrelated homonyms
//! (every `vec.drain(..)` in the workspace must not count as a call to
//! the trace ring's `TraceSink::drain`), the *first* reverse step from
//! a mutator is type-refined: a caller only counts if it names the
//! owning struct, is a sibling method, or is a method of a struct that
//! holds the owning struct in a field.
//!
//! Every (struct, field, mutators) triple is exported as a proof
//! obligation in the `gmt-shard-readiness/3` report, `proven` when no
//! unsanctioned path exists.
//!
//! # O1 — order-sensitive float accumulation
//!
//! Float addition is not associative: folding the same multiset of
//! values in two different orders gives two different sums. A float
//! `+=` inside a loop over `HashMap`/`HashSet` iteration, or a
//! `.sum::<f32|f64>()`/`.product()` over a hash container's iterators,
//! bakes the iteration order into the result — the classic
//! parallel-reduction nondeterminism bug, and exactly what integer
//! accumulators (which N1 deliberately treats as order-independent) do
//! not suffer from.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{AnyNode, Block, Expr, ExprKind, StmtKind};
use crate::callgraph::{CallGraph, FnId};
use crate::diag::Finding;
use crate::escape::{Class, EscapeOutput};
use crate::lexer::TokKind;
use crate::rules::{Config, FileContext, Findings};
use crate::symbols::{AnalyzedFile, Symbols};

/// Method names that write through a sharing cell. `lock`/`write` are
/// conservatively treated as writes — the analysis cannot see whether
/// the guard is only read.
const WRITE_METHODS: &[&str] = &[
    "borrow_mut",
    "lock",
    "write",
    "send",
    "get_mut",
    "set",
    "replace",
    "swap",
    "store",
    "fetch_add",
    "fetch_sub",
];

/// One merge-point proof obligation in the v2 report.
#[derive(Debug, Clone)]
pub struct Obligation {
    /// The struct owning the shared cell.
    pub struct_name: String,
    /// The shared-resource field.
    pub field: String,
    /// Labels (`crate::Type::fn`) of the field's mutators, sorted.
    pub mutators: Vec<String>,
    /// Labels of cold functions that reach a mutator without passing a
    /// sanctioned root; empty when the obligation is proven.
    pub unsanctioned: Vec<String>,
    /// Whether every mutator is dominated by the dispatch point.
    pub proven: bool,
}

/// R1 + O1 results.
#[derive(Debug, Default)]
pub struct OrderOutput {
    /// Surviving R1/O1 findings.
    pub findings: Vec<Finding>,
    /// Findings silenced by suppressions.
    pub suppressed: usize,
    /// Merge-point proof obligations, sorted by (struct, field).
    pub obligations: Vec<Obligation>,
}

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

fn label(files: &[AnalyzedFile], cg: &CallGraph<'_>, id: FnId) -> String {
    let info = &cg.fns[id];
    match &info.self_ty {
        Some(ty) => format!("{}::{ty}::{}", files[info.file].crate_name, info.item.name),
        None => format!("{}::{}", files[info.file].crate_name, info.item.name),
    }
}

/// Runs R1 (when `r1`) and O1 (when `o1`) and computes the merge-point
/// obligations (always, for the report). `roots` and `hot` are the
/// sanctioned dispatch roots and their call-graph closure from
/// [`crate::flow`].
#[allow(clippy::too_many_arguments)]
pub fn check_order(
    files: &[AnalyzedFile],
    syms: &Symbols,
    cg: &CallGraph<'_>,
    escape: &EscapeOutput,
    roots: &[FnId],
    hot: &[bool],
    config: &Config,
    r1: bool,
    o1: bool,
) -> OrderOutput {
    let mut out = OrderOutput::default();
    let ctx_of = |fi: usize| FileContext {
        rel_path: &files[fi].rel,
        crate_name: &files[fi].crate_name,
        target: files[fi].target,
    };

    // ---- R1 + obligations. ----
    // Direct shared cells per struct, from the escape analysis.
    let mut cells: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for f in &escape.fields {
        if f.direct && f.class == Class::SharedResource {
            cells
                .entry(f.struct_name.as_str())
                .or_default()
                .push(f.field.as_str());
        }
    }
    // Structs outside the hot closure (the escape scope) can still own
    // cells whose write order matters once shards merge; seed those
    // from a direct field-type scan.
    for (sname, info) in &syms.structs {
        for field in &info.fields {
            if crate::escape::direct_cell(&field.ty).is_some() {
                let entry = cells.entry(sname.as_str()).or_default();
                if !entry.contains(&field.name.as_str()) {
                    entry.push(field.name.as_str());
                }
            }
        }
    }

    let sanctioned: BTreeSet<FnId> = roots.iter().copied().collect();
    // Reverse adjacency for the backwards walk.
    let mut callers: Vec<Vec<FnId>> = vec![Vec::new(); cg.fns.len()];
    for (id, callees) in cg.callees.iter().enumerate() {
        for &c in callees {
            callers[c].push(id);
        }
    }

    for (&sname, fields) in &cells {
        for &fname in fields {
            let mut mutators: Vec<FnId> = Vec::new();
            for (id, info) in cg.fns.iter().enumerate() {
                if info.in_test || info.self_ty.as_deref() != Some(sname) {
                    continue;
                }
                if is_constructor(cg, id, sname) {
                    continue;
                }
                if body_mutates_field(files, cg, id, fname) {
                    mutators.push(id);
                }
            }
            let mut unsanctioned: BTreeSet<String> = BTreeSet::new();
            for &m in &mutators {
                if sanctioned.contains(&m) {
                    continue;
                }
                // Backwards BFS; the first step is type-refined so
                // bare-name homonyms don't fabricate callers.
                let mut seen: BTreeSet<FnId> = BTreeSet::new();
                let mut stack: Vec<FnId> = callers[m]
                    .iter()
                    .copied()
                    .filter(|&c| c != m && caller_sees_type(files, syms, cg, c, sname))
                    .collect();
                let mut violators: Vec<FnId> = Vec::new();
                while let Some(c) = stack.pop() {
                    if cg.fns[c].in_test || sanctioned.contains(&c) || !seen.insert(c) {
                        continue;
                    }
                    if !hot[c] {
                        violators.push(c);
                    }
                    stack.extend(callers[c].iter().copied());
                }
                if violators.is_empty() {
                    continue;
                }
                violators.sort_unstable();
                let labels: Vec<String> = violators
                    .iter()
                    .take(2)
                    .map(|&v| format!("`{}`", label(files, cg, v)))
                    .collect();
                for l in violators.iter().map(|&v| label(files, cg, v)) {
                    unsanctioned.insert(l);
                }
                if r1 {
                    let info = &cg.fns[m];
                    let fi = info.file;
                    let Some(tok) = files[fi].lexed.tokens.get(info.item.name_tok) else {
                        continue;
                    };
                    let mut acc = Findings::new(&files[fi].lexed.suppressions);
                    acc.push(
                        ctx_of(fi),
                        config,
                        "R1",
                        tok,
                        format!(
                            "`{sname}::{}` writes shared cell `{sname}.{fname}` but is \
                             reachable from {} without passing an event-queue dispatch \
                             root; the write order is not merge-point dominated — route \
                             it through the event loop or justify the collection point",
                            info.item.name,
                            labels.join(", "),
                        ),
                    );
                    out.findings.append(&mut acc.findings);
                    out.suppressed += acc.suppressed;
                }
            }
            let mut mlabels: Vec<String> = mutators.iter().map(|&m| label(files, cg, m)).collect();
            mlabels.sort();
            mlabels.dedup();
            let unsanctioned: Vec<String> = unsanctioned.into_iter().collect();
            out.obligations.push(Obligation {
                struct_name: sname.to_string(),
                field: fname.to_string(),
                proven: unsanctioned.is_empty(),
                mutators: mlabels,
                unsanctioned,
            });
        }
    }
    out.obligations
        .sort_by(|a, b| (&a.struct_name, &a.field).cmp(&(&b.struct_name, &b.field)));

    // ---- O1. ----
    if o1 {
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
            let mut acc = Findings::new(&files[fi].lexed.suppressions);
            for hit in hits {
                let Some(tok) = toks.get(hit.tok) else {
                    continue;
                };
                acc.push(
                    ctx_of(fi),
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
            out.findings.append(&mut acc.findings);
            out.suppressed += acc.suppressed;
        }
    }
    out
}

/// Whether `id` returns its own type (constructor-shaped): setup writes
/// precede the event loop and are exempt from R1.
fn is_constructor(cg: &CallGraph<'_>, id: FnId, sname: &str) -> bool {
    cg.fns[id]
        .item
        .ret_ty
        .iter()
        .any(|t| t == "Self" || t == sname)
}

/// Whether `id`'s body accesses `.field` and calls a write method.
fn body_mutates_field(files: &[AnalyzedFile], cg: &CallGraph<'_>, id: FnId, field: &str) -> bool {
    let info = &cg.fns[id];
    let Some(body) = &info.item.body else {
        return false;
    };
    let toks = &files[info.file].lexed.tokens;
    let hi = body.span.hi.min(toks.len());
    let mut touches = false;
    let mut writes = false;
    for (i, t) in toks[body.span.lo..hi].iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        if t.text == field {
            // Require a field access (`.field`), not a homonymous local.
            let abs = body.span.lo + i;
            if abs > 0 && toks[abs - 1].is_punct('.') {
                touches = true;
            }
        }
        if WRITE_METHODS.contains(&t.text.as_str()) {
            writes = true;
        }
        if touches && writes {
            return true;
        }
    }
    false
}

/// Type-refined first reverse step: does `caller` plausibly call a
/// method of `sname`? True when it names the type, is a sibling method,
/// or is a method of a struct holding an `sname` field.
fn caller_sees_type(
    files: &[AnalyzedFile],
    syms: &Symbols,
    cg: &CallGraph<'_>,
    caller: FnId,
    sname: &str,
) -> bool {
    let info = &cg.fns[caller];
    if info.self_ty.as_deref() == Some(sname) {
        return true;
    }
    if let Some(sty) = &info.self_ty {
        if let Some(sinfo) = syms.structs.get(sty) {
            if sinfo.fields.iter().any(|f| f.ty.iter().any(|t| t == sname)) {
                return true;
            }
        }
    }
    let Some(body) = &info.item.body else {
        return false;
    };
    let toks = &files[info.file].lexed.tokens;
    let hi = body.span.hi.min(toks.len());
    toks[body.span.lo..hi]
        .iter()
        .any(|t| t.kind == TokKind::Ident && t.text == sname)
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
