//! The rule set: each rule encodes one invariant the reproduction's test
//! suites already rely on, turning tribal knowledge into a CI gate.
//!
//! | id | invariant | checked by |
//! |----|-----------|------------|
//! | D1 | model crates use virtual time only — no `Instant`/`SystemTime` | clippy `disallowed-methods`/`disallowed-types`, root `clippy.toml` |
//! | D2 | every RNG is seeded via `gmt_sim::rng` — no `RandomState` entropy | clippy `disallowed-methods`, every `clippy.toml` |
//! | D3 | export paths iterate `BTreeMap`/`BTreeSet`, never `HashMap`/`HashSet` | clippy `disallowed-types`, every `clippy.toml` |
//! | S1 | no `unsafe` code | rustc `unsafe_code = "forbid"`, root `[workspace.lints]` |
//! | P1 | library code in `core`/`sim`/`serve` returns typed errors, not panics | clippy `unwrap_used`/`expect_used`/`panic`/`todo`/`unimplemented`, denied at those crate roots |
//! | M1 | every `TieringMetrics` field is summed in `merge()` | rustc: `merge` destructures `other` without `..` (E0027 for a new field, `unused_variables` for a dropped one) |
//! | U1 | values with unit suffixes do not mix dimensions | gmt-lint |
//! | C1 | every config field is range-checked and moves a run | rustc: each `validate()` destructures its struct without `..` (E0027 for a new field); the root `tests/config_knobs.rs` destructures the same structs and asserts a one-field change moves a seeded run |
//! | T1 | every `TraceEvent` variant is handled by `crates/analysis` | rustc E0004 plus `#[deny(clippy::wildcard_enum_match_arm)]` on `TraceCounters::add` |
//! | N1 | no wall-clock, RNG, thread-identity or hash-order value reaches an export | its sources are banned: clippy `disallowed-methods`/`disallowed-types`, every `clippy.toml` |
//! | A1 | no allocation in loops reachable from the DES roots | gmt-lint |
//! | G1 | no `static mut`, `thread_local!` or shared cell on the event-loop path | clippy `disallowed-types`/`disallowed-macros`, every `clippy.toml`; `static mut` needs `unsafe` (S1) |
//! | R2 | model crates grow no new interior-mutability or sync cells | clippy `disallowed-types`, every `clippy.toml` |
//! | O1 | no float folds over nondeterministic iteration order | clippy `disallowed-types` on `HashMap`/`HashSet`, every `clippy.toml` |
//!
//! Only U1 and A1 have an entry in [`RULES`]. An intended exception to
//! any other rule is an `#[expect(<lint>, reason = "…")]` attribute; U1
//! and A1 have no exceptions.
//!
//! Rules operate on the token stream from [`crate::lexer`] and the AST
//! from [`crate::parser`], so comments, strings and doc examples can
//! never produce false positives.

use std::collections::BTreeMap;
use std::path::Path;

use crate::diag::Finding;
use crate::lexer::Token;

/// Static description of one rule.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Short stable id used in findings.
    pub id: &'static str,
    /// Kebab-case human name.
    pub name: &'static str,
    /// One-line statement of the invariant.
    pub summary: &'static str,
}

/// Every rule the linter knows, in report order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "U1",
        name: "unit-dimension",
        summary: "values with suffix-inferred units (_ns/_us/_ms/_bytes/_pages/_gbps) \
                  must not mix dimensions in arithmetic, comparisons, assignments or \
                  calls without an explicit conversion",
    },
    Rule {
        id: "A1",
        name: "alloc-in-hot-loop",
        summary: "no Vec::new/Box::new/clone()/format!/collect() inside loops of \
                  functions call-graph-reachable from the DES access, warp-replay \
                  and ring-poll roots; hot-path churn is what the arena refactor removes",
    },
];

/// Looks a rule up by id.
pub fn rule(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// Static description of one mutation the soundness harness injects to
/// prove a rule's recall (see [`crate::mutate`]).
///
/// Every rule must declare at least one template here — the inventory
/// self-test enforces it — so a new rule cannot land without mechanical
/// evidence that the engine detects the violation it forbids. The
/// synthesis logic for each template lives in `mutate.rs`, keyed by
/// `name`.
#[derive(Debug, Clone, Copy)]
pub struct MutationTemplate {
    /// The rule this mutation is designed to trip.
    pub rule: &'static str,
    /// Stable kebab-case template name, used in the recall report.
    pub name: &'static str,
    /// What the injected bug looks like.
    pub summary: &'static str,
}

/// Every mutation template the harness knows, in report order.
pub const MUTATIONS: &[MutationTemplate] = &[
    MutationTemplate {
        rule: "U1",
        name: "u1-mixed-units",
        summary: "insert a `total_ns += gap_us` accumulation with no unit \
                  conversion",
    },
    MutationTemplate {
        rule: "A1",
        name: "a1-hot-loop-alloc",
        summary: "insert a Vec::new() into the body of a per-event root \
                  (access/poll/step)",
    },
];

/// Which compilation target a file belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetKind {
    /// `src/**` of a library crate (minus `src/bin/`).
    Lib,
    /// `src/bin/**` or a binary-only crate.
    Bin,
    /// `tests/**` integration tests.
    Tests,
    /// `examples/**`.
    Example,
    /// `benches/**`.
    Bench,
}

/// Where a file sits in the workspace, for rule scoping.
#[derive(Debug, Clone, Copy)]
pub struct FileContext<'a> {
    /// Path relative to the workspace root (used in findings).
    pub rel_path: &'a Path,
    /// The member's short name: the directory under `crates/`
    /// (`sim`, `core`, …) or `gmt` for the root facade package.
    pub crate_name: &'a str,
    /// The target the file compiles into.
    pub target: TargetKind,
}

/// Marks every token inside `#[cfg(test)] mod … { }` or `#[test] fn … { }`
/// regions, so runtime rules can skip test-only code.
pub fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if !(tokens[i].is_punct('#') && matches!(tokens.get(i + 1), Some(t) if t.is_punct('['))) {
            i += 1;
            continue;
        }
        let attr_start = i;
        let mut is_test = false;
        // One or more stacked attributes; any test-ish one marks the item.
        while tokens.get(i).is_some_and(|t| t.is_punct('#'))
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))
        {
            let mut depth = 0usize;
            let mut j = i + 1;
            let mut content: Vec<&Token> = Vec::new();
            while let Some(t) = tokens.get(j) {
                if t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if depth >= 1 {
                    content.push(t);
                }
                j += 1;
            }
            let first = content.first().map(|t| t.text.as_str());
            is_test |= first == Some("test")
                || (first == Some("cfg") && content.iter().any(|t| t.is_ident("test")));
            i = j + 1;
        }
        if !is_test {
            continue;
        }
        // Find the item's body: the first `{` before any top-level `;`
        // (attributed `use` items and the like have no body to mask).
        let mut j = i;
        let body_open = loop {
            match tokens.get(j) {
                Some(t) if t.is_punct('{') => break Some(j),
                Some(t) if t.is_punct(';') => break None,
                Some(_) => j += 1,
                None => break None,
            }
        };
        let Some(open) = body_open else {
            continue;
        };
        let mut depth = 0usize;
        let mut end = open;
        for (k, t) in tokens.iter().enumerate().skip(open) {
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    end = k;
                    break;
                }
            }
        }
        for m in mask.iter_mut().take(end + 1).skip(attr_start) {
            *m = true;
        }
        i = end + 1;
    }
    mask
}

// --------------------------------------------------------------------------
// U1, built on the AST + symbol table.
// --------------------------------------------------------------------------

use crate::ast::{BinOp, Block, Expr, ExprKind, FnItem, Item, ItemKind, Stmt, StmtKind};
use crate::symbols::{dim_of_ty, unit_of_name, AnalyzedFile, Dim, Symbols, Unit};

/// Runs the U1 unit-dimension analysis over one file's AST.
pub fn check_unit_dimensions(
    ctx: FileContext<'_>,
    file: &AnalyzedFile,
    syms: &Symbols,
    out: &mut Vec<Finding>,
) {
    let mut w = UnitWalker {
        ctx,
        toks: &file.tokens,
        syms,
        out,
        locals: Vec::new(),
    };
    for item in &file.ast.items {
        w.item(item);
    }
}

struct UnitWalker<'a, 'b> {
    ctx: FileContext<'a>,
    toks: &'a [Token],
    syms: &'a Symbols,
    out: &'b mut Vec<Finding>,
    /// Scope stack of local-binding dimensions; lookups scan outward.
    locals: Vec<BTreeMap<String, Dim>>,
}

/// Method names whose receiver and argument must share a dimension.
const U1_COMBINATORS: &[&str] = &[
    "min",
    "max",
    "clamp",
    "abs_diff",
    "saturating_add",
    "saturating_sub",
    "checked_add",
    "checked_sub",
    "wrapping_add",
    "wrapping_sub",
];

impl UnitWalker<'_, '_> {
    fn lookup(&self, name: &str) -> Option<Dim> {
        self.locals.iter().rev().find_map(|s| s.get(name)).copied()
    }

    fn bind(&mut self, name: &str, dim: Dim) {
        if let Some(scope) = self.locals.last_mut() {
            scope.insert(name.to_string(), dim);
        }
    }

    fn report(&mut self, at_tok: usize, message: String) {
        if let Some(at) = self.toks.get(at_tok) {
            self.out.push(Finding::at(self.ctx, "U1", at, message));
        }
    }

    fn item(&mut self, item: &Item) {
        match &item.kind {
            ItemKind::Fn(f) => self.fn_item(f),
            ItemKind::Impl(imp) => {
                for inner in &imp.items {
                    self.item(inner);
                }
            }
            ItemKind::Mod(m) => {
                for inner in &m.items {
                    self.item(inner);
                }
            }
            _ => {}
        }
    }

    fn fn_item(&mut self, f: &FnItem) {
        let Some(body) = &f.body else { return };
        let mut scope = BTreeMap::new();
        for p in &f.params {
            if let Some(name) = &p.name {
                let dim = match dim_of_ty(&p.ty) {
                    Dim::Unknown => unit_of_name(name).map_or(Dim::Unknown, Dim::Known),
                    d => d,
                };
                scope.insert(name.clone(), dim);
            }
        }
        self.locals.push(scope);
        self.block(body);
        self.locals.pop();
    }

    fn block(&mut self, b: &Block) {
        self.locals.push(BTreeMap::new());
        for stmt in &b.stmts {
            self.stmt(stmt);
        }
        self.locals.pop();
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Let {
                name,
                name_tok,
                ty,
                init,
            } => {
                let declared = match dim_of_ty(ty) {
                    Dim::Unknown => name
                        .as_deref()
                        .and_then(unit_of_name)
                        .map_or(Dim::Unknown, Dim::Known),
                    d => d,
                };
                let init_dim = init.as_ref().map(|e| self.expr(e));
                if let (Dim::Known(want), Some(Dim::Known(got))) = (declared, init_dim) {
                    if want != got {
                        self.report(
                            name_tok.unwrap_or(s.span.lo),
                            format!(
                                "`{}` carries unit `{}` but is initialized with a `{}` value; \
                                 convert explicitly",
                                name.as_deref().unwrap_or("binding"),
                                want.label(),
                                got.label()
                            ),
                        );
                    }
                }
                if let Some(name) = name {
                    let dim = if declared != Dim::Unknown {
                        declared
                    } else {
                        init_dim.unwrap_or(Dim::Unknown)
                    };
                    self.bind(name, dim);
                }
            }
            StmtKind::Expr(e) => {
                self.expr(e);
            }
            StmtKind::Item(item) => self.item(item),
            StmtKind::Verbatim => {}
        }
    }

    fn expr(&mut self, e: &Expr) -> Dim {
        match &e.kind {
            ExprKind::Lit | ExprKind::MacroCall | ExprKind::Verbatim => Dim::Unknown,
            ExprKind::Path(segs) => self.path_dim(segs),
            ExprKind::Unary(inner) => inner.as_ref().map_or(Dim::Unknown, |i| self.expr(i)),
            ExprKind::Try(inner) | ExprKind::Paren(inner) | ExprKind::Cast(inner) => {
                self.expr(inner)
            }
            ExprKind::Group(elems) => {
                for el in elems {
                    self.expr(el);
                }
                Dim::Unknown
            }
            ExprKind::Field { base, name, .. } => {
                self.expr(base);
                unit_of_name(name).map_or(Dim::Unknown, Dim::Known)
            }
            ExprKind::Index { base, index } => {
                let d = self.expr(base);
                self.expr(index);
                d
            }
            ExprKind::Binary {
                op,
                op_tok,
                lhs,
                rhs,
            } => self.binary(*op, *op_tok, lhs, rhs),
            ExprKind::Assign {
                op_tok,
                dimensional,
                lhs,
                rhs,
            } => {
                let ld = self.expr(lhs);
                let rd = self.expr(rhs);
                if *dimensional {
                    if let (Dim::Known(a), Dim::Known(b)) = (ld, rd) {
                        if a != b {
                            self.report(
                                *op_tok,
                                format!(
                                    "assignment mixes units: destination is `{}` but the value \
                                     is `{}`; convert explicitly",
                                    a.label(),
                                    b.label()
                                ),
                            );
                        }
                    }
                }
                Dim::Unknown
            }
            ExprKind::MethodCall {
                recv,
                name,
                name_tok,
                args,
            } => self.method_call(recv, name, *name_tok, args),
            ExprKind::Call { callee, args } => self.call(callee, args),
            ExprKind::StructLit { path, fields, rest } => {
                self.struct_lit(path, fields, rest.as_deref());
                Dim::Unknown
            }
            ExprKind::If { cond, then, els } => {
                self.expr(cond);
                self.block(then);
                if let Some(els) = els {
                    self.expr(els);
                }
                Dim::Unknown
            }
            ExprKind::While { cond, body } => {
                self.expr(cond);
                self.block(body);
                Dim::Unknown
            }
            ExprKind::For { iter, body } => {
                self.expr(iter);
                self.block(body);
                Dim::Unknown
            }
            ExprKind::Loop(body) | ExprKind::BlockExpr(body) => {
                self.block(body);
                Dim::Unknown
            }
            ExprKind::Match { scrutinee, arms } => {
                self.expr(scrutinee);
                for arm in arms {
                    if let Some(g) = &arm.guard {
                        self.expr(g);
                    }
                    self.expr(&arm.body);
                }
                Dim::Unknown
            }
            ExprKind::Closure(body) => {
                self.locals.push(BTreeMap::new());
                self.expr(body);
                self.locals.pop();
                Dim::Unknown
            }
        }
    }

    fn path_dim(&self, segs: &[String]) -> Dim {
        if let [single] = segs {
            if let Some(d) = self.lookup(single) {
                return d;
            }
        }
        let last = match segs.last() {
            Some(l) => l.as_str(),
            None => return Dim::Unknown,
        };
        if matches!(last, "ZERO" | "MAX") {
            if segs.iter().any(|s| s == "Dur") {
                return Dim::Dur;
            }
            if segs.iter().any(|s| s == "Time") {
                return Dim::Time;
            }
        }
        unit_of_name(last).map_or(Dim::Unknown, Dim::Known)
    }

    fn binary(&mut self, op: BinOp, op_tok: usize, lhs: &Expr, rhs: &Expr) -> Dim {
        let ld = self.expr(lhs);
        let rd = self.expr(rhs);
        let checked = matches!(op, BinOp::AddSub | BinOp::Rem | BinOp::Cmp | BinOp::Range);
        if checked {
            if let (Dim::Known(a), Dim::Known(b)) = (ld, rd) {
                if a != b {
                    self.report(
                        op_tok,
                        format!(
                            "`{}` mixes unit `{}` with unit `{}`; convert one side explicitly \
                             (e.g. `* 1_000` or via `Dur`)",
                            self.toks.get(op_tok).map_or("?", |t| t.text.as_str()),
                            a.label(),
                            b.label()
                        ),
                    );
                }
            }
        }
        match op {
            BinOp::AddSub | BinOp::Rem => match (ld, rd) {
                (Dim::Time, _) | (_, Dim::Time) => Dim::Time,
                (Dim::Dur, _) | (_, Dim::Dur) => Dim::Dur,
                (Dim::Known(a), _) => Dim::Known(a),
                (_, Dim::Known(b)) => Dim::Known(b),
                _ => Dim::Unknown,
            },
            // `Dur * n` / `Dur / n` stay durations; raw products change
            // dimension and are deliberately untracked.
            BinOp::MulDivBit if ld == Dim::Dur => Dim::Dur,
            _ => Dim::Unknown,
        }
    }

    fn method_call(&mut self, recv: &Expr, name: &str, name_tok: usize, args: &[Expr]) -> Dim {
        let rd = self.expr(recv);
        let arg_dims: Vec<Dim> = args.iter().map(|a| self.expr(a)).collect();
        if U1_COMBINATORS.contains(&name) {
            if let Dim::Known(a) = rd {
                for (i, ad) in arg_dims.iter().enumerate() {
                    if let Dim::Known(b) = ad {
                        if a != *b {
                            self.report(
                                name_tok,
                                format!(
                                    "`.{name}()` combines unit `{}` with unit `{}` \
                                     (argument {}); convert explicitly",
                                    a.label(),
                                    b.label(),
                                    i + 1
                                ),
                            );
                        }
                    }
                }
            }
            return rd;
        }
        match name {
            "as_nanos" => Dim::Known(Unit::Ns),
            "clone" | "to_owned" => rd,
            // `Time::since` and friends return durations.
            "since" if rd == Dim::Time => Dim::Dur,
            _ => Dim::Unknown,
        }
    }

    fn call(&mut self, callee: &Expr, args: &[Expr]) -> Dim {
        let ExprKind::Path(segs) = &callee.kind else {
            self.expr(callee);
            for a in args {
                self.expr(a);
            }
            return Dim::Unknown;
        };
        let arg_dims: Vec<Dim> = args.iter().map(|a| self.expr(a)).collect();
        let fname = segs.last().map(String::as_str).unwrap_or("");
        // Argument checks apply only when every same-name signature in
        // the workspace agrees on arity and parameter units.
        if let Some(sigs) = self.syms.fns.get(fname) {
            let agree = !sigs.is_empty()
                && sigs
                    .iter()
                    .all(|s| s.arity == args.len() && s.param_units == sigs[0].param_units);
            if agree {
                for (i, (want, got)) in sigs[0].param_units.iter().zip(&arg_dims).enumerate() {
                    if let (Some(a), Dim::Known(b)) = (want, got) {
                        if a != b {
                            let at = args[i].span.lo;
                            self.report(
                                at,
                                format!(
                                    "argument {} of `{fname}` expects a `{}` value but gets \
                                     `{}`; convert explicitly",
                                    i + 1,
                                    a.label(),
                                    b.label()
                                ),
                            );
                        }
                    }
                }
            }
        }
        // Return dimension: explicit Dur/Time constructors first, then
        // the workspace signature (if unambiguous), then a name suffix.
        let penult = segs.len().checked_sub(2).map(|i| segs[i].as_str());
        if penult == Some("Dur") {
            return Dim::Dur;
        }
        if penult == Some("Time") {
            return Dim::Time;
        }
        if let Some(sigs) = self.syms.fns.get(fname) {
            if !sigs.is_empty() && sigs.iter().all(|s| s.ret_dim == sigs[0].ret_dim) {
                return sigs[0].ret_dim;
            }
        }
        unit_of_name(fname).map_or(Dim::Unknown, Dim::Known)
    }

    fn struct_lit(
        &mut self,
        path: &[String],
        fields: &[(String, usize, Option<Expr>)],
        rest: Option<&Expr>,
    ) {
        let sname = path.last().map(String::as_str).unwrap_or("");
        let sinfo = self.syms.structs.get(sname);
        for (fname, name_tok, value) in fields {
            let Some(value) = value else { continue };
            let vd = self.expr(value);
            if let (Some(want), Dim::Known(got)) = (unit_of_name(fname), vd) {
                if want != got {
                    self.report(
                        *name_tok,
                        format!(
                            "field `{fname}` carries unit `{}` but is initialized with a \
                             `{}` value; convert explicitly",
                            want.label(),
                            got.label()
                        ),
                    );
                }
                continue;
            }
            // Raw suffixed value flowing into a `Dur`-typed field.
            if let (Some(info), Dim::Known(got)) = (sinfo, vd) {
                let fdef = info.fields.iter().find(|f| &f.name == fname);
                if fdef.is_some_and(|f| f.ty_dim == Dim::Dur) {
                    self.report(
                        *name_tok,
                        format!(
                            "`Dur`-typed field `{fname}` is initialized with a raw `{}` \
                             value; wrap it in `Dur::from_…`",
                            got.label()
                        ),
                    );
                }
            }
        }
        if let Some(rest) = rest {
            self.expr(rest);
        }
    }
}
