//! A1 alloc-in-hot-loop over the call-graph hot set ([`crate::callgraph`]).
//!
//! The hot set is the call-graph closure of the DES roots: the per-event
//! entry points (`access`, `poll`, `step`, and `issue`, the executor's
//! per-access body — their whole body runs once per simulated event, so
//! the body itself counts as loop depth 1) and the replay drivers (`run`,
//! `run_arrivals` — only their internal loops are hot). Inside hot loops, `Vec::new`, `Box::new`, `with_capacity`, `clone()`,
//! `collect()`, `format!` and `vec!` are flagged: this is allocation
//! churn a reused scratch buffer or arena removes.
//!
//! Calls resolve by bare name, joining all candidates, so the hot set
//! over-approximates rather than misses a callee.

use crate::ast::{Block, Expr, ExprKind, StmtKind};
use crate::callgraph::{CallGraph, FnId};
use crate::diag::Finding;
use crate::lexer::{TokKind, Token};
use crate::symbols::AnalyzedFile;

/// Per-event DES roots: their whole body runs once per simulated event.
pub(crate) const PER_EVENT_ROOTS: &[&str] = &["access", "poll", "step", "issue"];
/// Replay drivers: hot only inside their own loops.
const DRIVER_ROOTS: &[&str] = &["run", "run_arrivals"];
/// Crates whose root-named fns anchor the hot path.
pub(crate) const ROOT_CRATES: &[&str] = &[
    "core",
    "gpu",
    "ssd",
    "serve",
    "baselines",
    "sim",
    "frontend",
];

/// Allocation-churn method names (A1).
const ALLOC_METHODS: &[&str] = &["clone", "to_vec", "to_string", "to_owned", "collect"];
/// Allocation-churn macros (A1).
const ALLOC_MACROS: &[&str] = &["format", "vec"];
/// Types whose `new`/`with_capacity`/`default` allocate (A1).
const ALLOC_TYPES: &[&str] = &[
    "Vec",
    "VecDeque",
    "Box",
    "String",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
];

/// One allocation site found by the A1 walker.
struct AllocHit {
    tok: usize,
    what: String,
}

fn a1_walk_expr(e: &Expr, toks: &[Token], depth: u32, out: &mut Vec<AllocHit>) {
    match &e.kind {
        ExprKind::Call { callee, args } => {
            if depth > 0 {
                if let ExprKind::Path(segs) = &callee.kind {
                    let last = segs.last().map(String::as_str).unwrap_or("");
                    let penult = segs.len().checked_sub(2).map(|i| segs[i].as_str());
                    if matches!(last, "new" | "with_capacity" | "default")
                        && penult.is_some_and(|p| ALLOC_TYPES.contains(&p))
                    {
                        out.push(AllocHit {
                            tok: e.span.lo,
                            what: format!("{}::{last}", penult.unwrap_or("")),
                        });
                    }
                }
            }
            a1_walk_expr(callee, toks, depth, out);
            for a in args {
                a1_walk_expr(a, toks, depth, out);
            }
        }
        ExprKind::MethodCall {
            recv,
            name,
            name_tok,
            args,
        } => {
            if depth > 0 && ALLOC_METHODS.contains(&name.as_str()) {
                out.push(AllocHit {
                    tok: *name_tok,
                    what: format!(".{name}()"),
                });
            }
            a1_walk_expr(recv, toks, depth, out);
            for a in args {
                a1_walk_expr(a, toks, depth, out);
            }
        }
        ExprKind::MacroCall => {
            if depth > 0 {
                if let Some(t) = toks.get(e.span.lo) {
                    if t.kind == TokKind::Ident && ALLOC_MACROS.contains(&t.text.as_str()) {
                        out.push(AllocHit {
                            tok: e.span.lo,
                            what: format!("{}!", t.text),
                        });
                    }
                }
            }
        }
        ExprKind::For { iter, body } => {
            a1_walk_expr(iter, toks, depth, out);
            a1_walk_block(body, toks, depth + 1, out);
        }
        ExprKind::While { cond, body } => {
            a1_walk_expr(cond, toks, depth, out);
            a1_walk_block(body, toks, depth + 1, out);
        }
        ExprKind::Loop(body) => a1_walk_block(body, toks, depth + 1, out),
        ExprKind::If { cond, then, els } => {
            a1_walk_expr(cond, toks, depth, out);
            a1_walk_block(then, toks, depth, out);
            if let Some(els) = els {
                a1_walk_expr(els, toks, depth, out);
            }
        }
        ExprKind::Match { scrutinee, arms } => {
            a1_walk_expr(scrutinee, toks, depth, out);
            for arm in arms {
                if let Some(g) = &arm.guard {
                    a1_walk_expr(g, toks, depth, out);
                }
                a1_walk_expr(&arm.body, toks, depth, out);
            }
        }
        ExprKind::BlockExpr(b) => a1_walk_block(b, toks, depth, out),
        ExprKind::Closure(body) => a1_walk_expr(body, toks, depth, out),
        ExprKind::Unary(inner) => {
            if let Some(i) = inner {
                a1_walk_expr(i, toks, depth, out);
            }
        }
        ExprKind::Binary { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs, .. } => {
            a1_walk_expr(lhs, toks, depth, out);
            a1_walk_expr(rhs, toks, depth, out);
        }
        ExprKind::Field { base, .. } | ExprKind::Cast(base) => a1_walk_expr(base, toks, depth, out),
        ExprKind::Index { base, index } => {
            a1_walk_expr(base, toks, depth, out);
            a1_walk_expr(index, toks, depth, out);
        }
        ExprKind::Paren(i) | ExprKind::Try(i) => a1_walk_expr(i, toks, depth, out),
        ExprKind::Group(elems) => {
            for el in elems {
                a1_walk_expr(el, toks, depth, out);
            }
        }
        ExprKind::StructLit { fields, rest, .. } => {
            for (_, _, v) in fields {
                if let Some(v) = v {
                    a1_walk_expr(v, toks, depth, out);
                }
            }
            if let Some(r) = rest {
                a1_walk_expr(r, toks, depth, out);
            }
        }
        ExprKind::Path(_) | ExprKind::Lit | ExprKind::Verbatim => {}
    }
}

fn a1_walk_block(b: &Block, toks: &[Token], depth: u32, out: &mut Vec<AllocHit>) {
    for stmt in &b.stmts {
        match &stmt.kind {
            StmtKind::Let { init, .. } => {
                if let Some(e) = init {
                    a1_walk_expr(e, toks, depth, out);
                }
            }
            StmtKind::Expr(e) => a1_walk_expr(e, toks, depth, out),
            StmtKind::Item(_) | StmtKind::Verbatim => {}
        }
    }
}

/// Runs A1 over the analyzed workspace.
pub fn check_alloc_in_hot_loops(files: &[AnalyzedFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let cg = CallGraph::build(files);
    // Hot set: roots by name, in the model crates, runtime code only.
    let mut roots: Vec<FnId> = Vec::new();
    for name in PER_EVENT_ROOTS.iter().chain(DRIVER_ROOTS) {
        for &id in cg.named(name) {
            let info = &cg.fns[id];
            if ROOT_CRATES.contains(&files[info.file].crate_name.as_str()) && !info.in_test {
                roots.push(id);
            }
        }
    }
    roots.sort_unstable();
    roots.dedup();
    let hot = cg.reachable(&roots);
    for (id, &is_hot) in hot.iter().enumerate() {
        if !is_hot || cg.fns[id].in_test {
            continue;
        }
        let info = &cg.fns[id];
        let Some(body) = &info.item.body else {
            continue;
        };
        let fi = info.file;
        // Bare-name reachability can leak the hot set into tooling
        // crates (a hot fn calling any `trace(…)` marks homonyms
        // everywhere); A1 is about the simulation model, so only the
        // model crates report.
        if !ROOT_CRATES.contains(&files[fi].crate_name.as_str()) {
            continue;
        }
        let toks = &files[fi].tokens;
        // Per-event roots: the whole body runs once per simulated
        // event, so it starts at loop depth 1.
        let base_depth =
            u32::from(PER_EVENT_ROOTS.contains(&info.item.name.as_str()) && roots.contains(&id));
        let mut hits = Vec::new();
        a1_walk_block(body, toks, base_depth, &mut hits);
        let where_ = if base_depth > 0 {
            "per-event body"
        } else {
            "hot loop"
        };
        for hit in hits {
            let Some(tok) = toks.get(hit.tok) else {
                continue;
            };
            findings.push(Finding::at(
                files[fi].context(),
                "A1",
                tok,
                format!(
                    "allocation `{}` in the {where_} of `{}` (call-graph-reachable \
                     from the DES roots); hoist into a reused scratch buffer or arena",
                    hit.what, info.item.name
                ),
            ));
        }
    }
    findings
}
