//! The flow-sensitive rule families: N1 nondeterminism-taint, A1
//! alloc-in-hot-loop, and G1 shard-safety, built on [`crate::cfg`],
//! [`crate::dataflow`] and [`crate::callgraph`].
//!
//! # N1 — nondeterminism taint
//!
//! The taint lattice is a bitmask per variable: `WALL_CLOCK` (values
//! from `Instant::now`/`SystemTime::now`), `RNG` (`thread_rng`/
//! `from_entropy`/`OsRng`), `HASH_ITER` (anything observed through
//! `HashMap`/`HashSet` iteration order), `THREAD_ID`
//! (`thread::current()`), and the structural `HASH_CONTAINER` bit
//! marking values that *are* hash collections (iterating one yields
//! `HASH_ITER`; handing one to a sink lets the sink iterate it). Taint
//! moves through assignments, field reads, arithmetic, and calls; it
//! dies at order-independent observations (`len`, `contains`, `sum`,
//! `min`/`max`, …) and at explicit reordering (`sort*`, `collect` into
//! a `BTree*`-ascribed binding). A finding fires only when taint reaches
//! an export/trace sink — `emit`, `to_jsonl`, a `TraceEvent` literal —
//! directly or through a call chain, via bottom-up function summaries
//! (which params a function sinks, what taint it returns).
//!
//! # A1 — allocation on the hot path
//!
//! The hot set is the call-graph closure of the DES roots: the
//! per-event entry points (`access`, `poll`, `poll_until`, `step` —
//! their whole body runs once per simulated event, so the body itself
//! counts as loop depth 1) and the replay drivers (`run`,
//! `run_arrivals` — only their internal loops are hot). Inside hot
//! loops, `Vec::new`, `Box::new`, `with_capacity`, `clone()`,
//! `collect()`, `format!` and `vec!` are flagged: this is allocation
//! churn the ROADMAP item-1 arena refactor exists to remove.
//!
//! # G1 — shard-safety inventory
//!
//! Every `static`, every `Rc`/`RefCell`/`Cell`/`UnsafeCell` field and
//! every `&mut self` method on a type touched by the hot path is
//! catalogued into a machine-readable sharding-readiness report (the
//! worklist for the ROADMAP item-2 sharded DES). `static mut`,
//! `thread_local!` and interior-mutability fields on hot types are
//! deny findings; `Arc`/`Mutex`-style sync state and `&mut self`
//! methods are report-only inventory.
//!
//! Known approximations, all conservative for their consumers: macro
//! bodies are opaque to N1 (D2/D3 still cover them syntactically),
//! receiver (`self`) taint does not flow through summaries, and calls
//! resolve by bare name (joining all candidates).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;
use std::time::Instant; // gmt-lint: allow(D1): host-side lint timing, not simulation.

use crate::ast::{Block, Expr, ExprKind, StmtKind};
use crate::callgraph::{CallGraph, FnId};
use crate::cfg::{build_cfg, Cfg, Node};
use crate::dataflow::{replay, solve, Analysis};
use crate::diag::{json_str, Finding, Level};
use crate::lexer::{TokKind, Token};
use crate::rules::{test_mask, Config, FileContext, Findings, TargetKind};
use crate::symbols::{AnalyzedFile, Symbols};

// --------------------------------------------------------------------------
// The taint lattice.
// --------------------------------------------------------------------------

/// Value came from a wall clock (`Instant::now`, `SystemTime::now`).
pub const WALL_CLOCK: u8 = 1 << 0;
/// Value came from an unseeded RNG.
pub const RNG: u8 = 1 << 1;
/// Value was observed through hash-map/set iteration order.
pub const HASH_ITER: u8 = 1 << 2;
/// Value identifies the host thread.
pub const THREAD_ID: u8 = 1 << 3;
/// Structural: the value *is* a `HashMap`/`HashSet` (iterating it, or
/// letting a sink serialize it, is order-nondeterministic).
pub const HASH_CONTAINER: u8 = 1 << 4;

/// The kinds that flow through data operations as value taint.
const VALUE_TAINT: u8 = WALL_CLOCK | RNG | HASH_ITER | THREAD_ID;
/// The kinds that make a sink argument a violation.
const SINK_TAINT: u8 = VALUE_TAINT | HASH_CONTAINER;

/// Human spelling of a taint mask, for diagnostics.
pub fn taint_label(kinds: u8) -> String {
    let mut parts: Vec<&str> = Vec::new();
    if kinds & HASH_ITER != 0 {
        parts.push("HashMap/HashSet iteration order");
    }
    if kinds & HASH_CONTAINER != 0 {
        parts.push("a hash container (the sink will iterate it)");
    }
    if kinds & WALL_CLOCK != 0 {
        parts.push("the wall clock");
    }
    if kinds & RNG != 0 {
        parts.push("an unseeded RNG");
    }
    if kinds & THREAD_ID != 0 {
        parts.push("thread identity");
    }
    parts.join(" + ")
}

/// The taint of one value: nondeterminism kinds plus which function
/// parameters it (transitively) depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Taint {
    /// Bitmask of `WALL_CLOCK`/`RNG`/`HASH_ITER`/`THREAD_ID`/`HASH_CONTAINER`.
    pub kinds: u8,
    /// Bit `i` set: the value depends on parameter `i` (up to 32 params).
    pub params: u32,
}

impl Taint {
    const CLEAN: Taint = Taint {
        kinds: 0,
        params: 0,
    };

    fn join(self, other: Taint) -> Taint {
        Taint {
            kinds: self.kinds | other.kinds,
            params: self.params | other.params,
        }
    }

    /// The data-flow projection: what a derived value inherits.
    fn derived(self) -> Taint {
        Taint {
            kinds: self.kinds & VALUE_TAINT,
            params: self.params,
        }
    }

    fn is_sinkworthy(self) -> bool {
        self.kinds & SINK_TAINT != 0
    }
}

/// What one function does with taint, computed bottom-up to fixpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Summary {
    /// Taint of the return value (kinds it mints, params it forwards).
    pub ret: Taint,
    /// Bit `i` set: parameter `i` flows into a sink inside the callee.
    pub sink_params: u32,
}

// --------------------------------------------------------------------------
// Name tables.
// --------------------------------------------------------------------------

/// Export/trace sink names (functions and methods).
const SINK_NAMES: &[&str] = &[
    "emit",
    "to_jsonl",
    "to_csv",
    "to_json",
    "export_jsonl",
    "export_csv",
    "write_jsonl",
    "write_csv",
    "render_json",
    "render_text",
    "serialize",
];

/// Struct literals whose field values are sink inputs.
const SINK_STRUCTS: &[&str] = &["TraceEvent", "TraceRecord"];

/// Iterator-producing methods: on a hash container they mint `HASH_ITER`.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "drain",
];

/// Order-independent observations: they kill `HASH_ITER`/`HASH_CONTAINER`
/// on the result (a count or keyed lookup does not depend on iteration
/// order), while clock/RNG/thread taint still flows through.
const ORDER_INDEPENDENT: &[&str] = &[
    "len",
    "is_empty",
    "capacity",
    "count",
    "contains",
    "contains_key",
    "get",
    "get_mut",
    "sum",
    "product",
    "max",
    "min",
];

/// In-place reorderings that sanitize a binding's `HASH_ITER` taint.
const SORT_METHODS: &[&str] = &[
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_by_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
];

/// Call names the summary machinery never resolves. Mirrors (and
/// extends) the call graph's constructor exclusion: these names shadow
/// std container/iterator methods, so joining all workspace homonyms
/// would smear one implementation's taint over every `.iter()`/`.get()`
/// in the workspace (`Fifo::iter` iterates a `HashSet`; that must not
/// make `Vec::iter` look order-nondeterministic). The std semantics the
/// explicit source/sanitizer tables assign to these names still apply.
const NO_SUMMARY_NAMES: &[&str] = &[
    "new",
    "default",
    "from",
    "clone",
    "collect",
    "with_capacity",
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "drain",
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "len",
    "is_empty",
    "contains",
    "contains_key",
    "extend",
    "clear",
    "next",
    "first",
    "last",
    "copied",
    "cloned",
    "map",
    "filter",
    "fold",
    "max",
    "min",
    "take",
];

/// Per-event DES roots: their whole body runs once per simulated event.
pub(crate) const PER_EVENT_ROOTS: &[&str] = &["access", "poll", "poll_until", "step"];
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
    "HashMap",
    "HashSet",
    "BinaryHeap",
];

fn ty_is_hash_container(ty: &[String]) -> bool {
    ty.iter().any(|t| t == "HashMap" || t == "HashSet")
}

fn ty_is_btree(ty: &[String]) -> bool {
    ty.iter().any(|t| t == "BTreeMap" || t == "BTreeSet")
}

// --------------------------------------------------------------------------
// The intraprocedural taint analysis (one function at a time).
// --------------------------------------------------------------------------

/// One tainted-value-reaches-sink observation.
struct SinkHit {
    /// Token index of the sink name.
    tok: usize,
    /// Taint kinds of the offending value.
    kinds: u8,
    /// The sink's name.
    sink: String,
    /// Set when the value sinks *inside* a callee (interprocedural hit).
    via: Option<String>,
}

struct TaintAnalysis<'a> {
    syms: &'a Symbols,
    cg: &'a CallGraph<'a>,
    summaries: &'a [Summary],
    /// `self_ty` of the function under analysis (for `self.field` reads).
    self_ty: Option<&'a str>,
    /// Parameter seeds: name → param-bit taint.
    param_seeds: Vec<(String, Taint)>,
    /// Join of every returned value's taint (filled by transfer).
    ret: Taint,
    /// Params that reached a sink (filled by transfer).
    sank_params: u32,
    /// When set, sink observations with real kinds are recorded.
    hits: Option<Vec<SinkHit>>,
}

type Fact = BTreeMap<String, Taint>;

impl<'a> TaintAnalysis<'a> {
    fn record_sink(&mut self, tok: usize, taint: Taint, sink: &str, via: Option<&str>) {
        self.sank_params |= taint.params;
        if taint.is_sinkworthy() {
            if let Some(hits) = &mut self.hits {
                hits.push(SinkHit {
                    tok,
                    kinds: taint.kinds & SINK_TAINT,
                    sink: sink.to_string(),
                    via: via.map(str::to_string),
                });
            }
        }
    }

    /// Joins the summaries of every workspace fn named `name`.
    fn summary_of(&self, name: &str) -> Option<Summary> {
        if NO_SUMMARY_NAMES.contains(&name) {
            return None;
        }
        let ids = self.cg.named(name);
        if ids.is_empty() {
            return None;
        }
        let mut joined = Summary::default();
        for &id in ids {
            let s = self.summaries[id];
            joined.ret = joined.ret.join(s.ret);
            joined.sink_params |= s.sink_params;
        }
        Some(joined)
    }

    /// Applies a resolved callee summary to a call's arguments.
    fn apply_summary(
        &mut self,
        name: &str,
        name_tok: usize,
        summary: Summary,
        args: &[Taint],
    ) -> Taint {
        let mut out = Taint {
            kinds: summary.ret.kinds & VALUE_TAINT,
            params: 0,
        };
        for (i, arg) in args.iter().enumerate() {
            let bit = 1u32 << i.min(31);
            if summary.ret.params & bit != 0 {
                out = out.join(arg.derived());
            }
            if summary.sink_params & bit != 0 {
                self.record_sink(name_tok, *arg, name, Some(name));
            }
        }
        out
    }

    /// Evaluates `e` under `fact`, recording sink observations.
    fn eval(&mut self, e: &Expr, fact: &mut Fact) -> Taint {
        match &e.kind {
            ExprKind::Lit | ExprKind::MacroCall | ExprKind::Verbatim => Taint::CLEAN,
            ExprKind::Path(segs) => {
                if let [single] = segs.as_slice() {
                    if let Some(t) = fact.get(single) {
                        return *t;
                    }
                }
                Taint::CLEAN
            }
            ExprKind::Unary(inner) => inner.as_ref().map_or(Taint::CLEAN, |i| self.eval(i, fact)),
            ExprKind::Cast(i) | ExprKind::Paren(i) | ExprKind::Try(i) => self.eval(i, fact),
            ExprKind::Closure(body) => self.eval(body, fact).derived(),
            ExprKind::Group(elems) => elems
                .iter()
                .map(|el| self.eval(el, fact))
                .fold(Taint::CLEAN, Taint::join),
            ExprKind::Binary { lhs, rhs, .. } => {
                let l = self.eval(lhs, fact);
                let r = self.eval(rhs, fact);
                l.join(r).derived()
            }
            ExprKind::Assign { lhs, rhs, .. } => {
                let t = self.eval(rhs, fact);
                if let ExprKind::Path(segs) = &lhs.kind {
                    if let [single] = segs.as_slice() {
                        fact.insert(single.clone(), t);
                        return Taint::CLEAN;
                    }
                }
                self.eval(lhs, fact);
                Taint::CLEAN
            }
            ExprKind::Field { base, name, .. } => {
                let b = self.eval(base, fact);
                let mut t = b.derived();
                // `self.field` where the field's declared type is a hash
                // collection: the read yields a container value.
                if matches!(&base.kind, ExprKind::Path(segs) if segs.as_slice() == ["self"]) {
                    if let Some(info) = self.self_ty.and_then(|ty| self.syms.structs.get(ty)) {
                        if info
                            .fields
                            .iter()
                            .any(|f| &f.name == name && ty_is_hash_container(&f.ty))
                        {
                            t.kinds |= HASH_CONTAINER;
                        }
                    }
                }
                t
            }
            ExprKind::Index { base, index } => {
                // Keyed lookup is order-independent; the *container* bit
                // does not survive either (an element is not the map).
                let b = self.eval(base, fact);
                let i = self.eval(index, fact);
                Taint {
                    kinds: (b.kinds | i.kinds) & (WALL_CLOCK | RNG | THREAD_ID | HASH_ITER),
                    params: b.params | i.params,
                }
            }
            ExprKind::MethodCall {
                recv,
                name,
                name_tok,
                args,
            } => self.method_call(recv, name, *name_tok, args, fact),
            ExprKind::Call { callee, args } => self.call(e, callee, args, fact),
            ExprKind::StructLit { path, fields, rest } => {
                let sname = path.last().map(String::as_str).unwrap_or("");
                let is_sink = SINK_STRUCTS.contains(&sname);
                let mut t = Taint::CLEAN;
                for (fname, name_tok, value) in fields {
                    let vt = match value {
                        Some(v) => self.eval(v, fact),
                        // Shorthand `Field { x }` reads local `x`.
                        None => fact.get(fname).copied().unwrap_or(Taint::CLEAN),
                    };
                    if is_sink {
                        self.record_sink(*name_tok, vt, sname, None);
                    }
                    t = t.join(vt.derived());
                }
                if let Some(r) = rest {
                    t = t.join(self.eval(r, fact).derived());
                }
                t
            }
            // Expression-position control flow is evaluated
            // flow-insensitively: branch results join, and a scrutinee
            // or condition tainted by iteration order taints the result
            // (the chosen branch depends on it).
            ExprKind::If { cond, then, els } => {
                let c = self.eval(cond, fact);
                let t = self.eval_block(then, fact);
                let e = els
                    .as_ref()
                    .map_or(Taint::CLEAN, |els| self.eval(els, fact));
                c.derived().join(t).join(e)
            }
            ExprKind::Match { scrutinee, arms } => {
                let mut t = self.eval(scrutinee, fact).derived();
                for arm in arms {
                    if let Some(g) = &arm.guard {
                        self.eval(g, fact);
                    }
                    t = t.join(self.eval(&arm.body, fact).derived());
                }
                t
            }
            ExprKind::While { cond, body } => {
                self.eval(cond, fact);
                self.eval_block(body, fact);
                Taint::CLEAN
            }
            ExprKind::For { iter, body } => {
                let it = self.eval(iter, fact);
                // Nested-position `for`: bind nothing (the CFG handles
                // statement-position loops); still walk the body.
                let _ = it;
                self.eval_block(body, fact);
                Taint::CLEAN
            }
            ExprKind::Loop(body) | ExprKind::BlockExpr(body) => self.eval_block(body, fact),
        }
    }

    /// Evaluates a nested block flow-insensitively: bindings land in the
    /// same fact (an over-approximation of scoping), the tail
    /// expression's taint is the block's value.
    fn eval_block(&mut self, b: &Block, fact: &mut Fact) -> Taint {
        let mut last = Taint::CLEAN;
        for stmt in &b.stmts {
            last = match &stmt.kind {
                StmtKind::Let { name, ty, init, .. } => {
                    let mut t = init.as_ref().map_or(Taint::CLEAN, |e| self.eval(e, fact));
                    if ty_is_hash_container(ty) {
                        t.kinds |= HASH_CONTAINER;
                    }
                    if ty_is_btree(ty) {
                        t.kinds &= !(HASH_ITER | HASH_CONTAINER);
                    }
                    if let Some(name) = name {
                        fact.insert(name.clone(), t);
                    }
                    Taint::CLEAN
                }
                StmtKind::Expr(e) => self.eval(e, fact),
                StmtKind::Item(_) | StmtKind::Verbatim => Taint::CLEAN,
            };
        }
        last
    }

    fn method_call(
        &mut self,
        recv: &Expr,
        name: &str,
        name_tok: usize,
        args: &[Expr],
        fact: &mut Fact,
    ) -> Taint {
        let r = self.eval(recv, fact);
        let arg_taints: Vec<Taint> = args.iter().map(|a| self.eval(a, fact)).collect();
        let joined_args = arg_taints.iter().copied().fold(Taint::CLEAN, Taint::join);

        // Sources.
        if name == "from_entropy" {
            return Taint {
                kinds: RNG,
                params: 0,
            };
        }
        if ITER_METHODS.contains(&name) && r.kinds & (HASH_CONTAINER | HASH_ITER) != 0 {
            return Taint {
                kinds: (r.kinds & VALUE_TAINT) | HASH_ITER,
                params: r.params,
            };
        }

        // Sanitizers.
        if SORT_METHODS.contains(&name) {
            if let ExprKind::Path(segs) = &recv.kind {
                if let [single] = segs.as_slice() {
                    if let Some(t) = fact.get_mut(single) {
                        t.kinds &= !HASH_ITER;
                    }
                }
            }
            return Taint::CLEAN;
        }
        if ORDER_INDEPENDENT.contains(&name) {
            return Taint {
                kinds: (r.kinds | joined_args.kinds) & (WALL_CLOCK | RNG | THREAD_ID),
                params: r.params | joined_args.params,
            };
        }
        // `clone`/`to_owned` preserve the value wholesale, container
        // bit included.
        if name == "clone" || name == "to_owned" {
            return r;
        }

        // Sinks.
        if SINK_NAMES.contains(&name) {
            let observed = r.join(joined_args);
            self.record_sink(name_tok, observed, name, None);
            return observed.derived();
        }

        // Workspace callee summaries (receiver taint is not tracked
        // through summaries — documented approximation).
        if let Some(summary) = self.summary_of(name) {
            let out = self.apply_summary(name, name_tok, summary, &arg_taints);
            return out.join(r.derived());
        }

        // Default: a method result derives from its receiver and args.
        r.join(joined_args).derived()
    }

    fn call(&mut self, e: &Expr, callee: &Expr, args: &[Expr], fact: &mut Fact) -> Taint {
        let arg_taints: Vec<Taint> = args.iter().map(|a| self.eval(a, fact)).collect();
        let joined_args = arg_taints.iter().copied().fold(Taint::CLEAN, Taint::join);
        let ExprKind::Path(segs) = &callee.kind else {
            self.eval(callee, fact);
            return joined_args.derived();
        };
        let last = segs.last().map(String::as_str).unwrap_or("");
        let penult = segs.len().checked_sub(2).map(|i| segs[i].as_str());

        // Sources.
        if last == "now" && matches!(penult, Some("Instant" | "SystemTime")) {
            return Taint {
                kinds: WALL_CLOCK,
                params: 0,
            };
        }
        if last == "thread_rng" {
            return Taint {
                kinds: RNG,
                params: 0,
            };
        }
        if last == "current" && segs.iter().any(|s| s == "thread") {
            return Taint {
                kinds: THREAD_ID,
                params: 0,
            };
        }
        if matches!(last, "new" | "default" | "with_capacity")
            && matches!(penult, Some("HashMap" | "HashSet"))
        {
            return Taint {
                kinds: HASH_CONTAINER,
                params: 0,
            };
        }

        // Sinks (free-function form).
        if SINK_NAMES.contains(&last) {
            self.record_sink(e.span.lo, joined_args, last, None);
            return joined_args.derived();
        }

        // Workspace callee summaries.
        if let Some(summary) = self.summary_of(last) {
            return self.apply_summary(last, e.span.lo, summary, &arg_taints);
        }

        joined_args.derived()
    }
}

impl<'a> Analysis<'a> for TaintAnalysis<'a> {
    type Fact = Fact;

    fn entry_fact(&self) -> Fact {
        self.param_seeds.iter().cloned().collect()
    }

    fn bottom(&self) -> Fact {
        Fact::new()
    }

    fn join(&self, into: &mut Fact, from: &Fact) -> bool {
        let mut changed = false;
        for (name, t) in from {
            let slot = into.entry(name.clone()).or_insert(Taint::CLEAN);
            let merged = slot.join(*t);
            changed |= merged != *slot;
            *slot = merged;
        }
        changed
    }

    fn transfer(&mut self, _at: (usize, usize), node: &Node<'a>, fact: &mut Fact) {
        match node {
            Node::Let { name, ty, init, .. } => {
                let mut t = init.map_or(Taint::CLEAN, |e| self.eval(e, fact));
                if ty_is_hash_container(ty) {
                    t.kinds |= HASH_CONTAINER;
                }
                // `let v: BTreeMap<_,_> = tainted.collect()` re-orders:
                // the BTree ascription certifies a sorted container.
                if ty_is_btree(ty) {
                    t.kinds &= !(HASH_ITER | HASH_CONTAINER);
                }
                if let Some(name) = name {
                    fact.insert((*name).to_string(), t);
                }
            }
            Node::ForBind { name, iter } => {
                let it = self.eval(iter, fact);
                let mut t = it.derived();
                if it.kinds & (HASH_CONTAINER | HASH_ITER) != 0 {
                    t.kinds |= HASH_ITER;
                }
                if let Some(name) = name {
                    fact.insert((*name).to_string(), t);
                }
            }
            Node::Eval(e) => {
                self.eval(e, fact);
            }
            Node::Ret(e) => {
                if let Some(e) = e {
                    let t = self.eval(e, fact);
                    self.ret = self.ret.join(t);
                }
            }
        }
    }
}

// --------------------------------------------------------------------------
// Per-function orchestration.
// --------------------------------------------------------------------------

/// Everything the flow rules compute in one pass.
pub struct FlowOutput {
    /// Surviving N1/A1/G1/R1/R2/O1 findings.
    pub findings: Vec<Finding>,
    /// Findings silenced by suppressions.
    pub suppressed: usize,
    /// The G1 sharding-readiness inventory.
    pub shard: ShardReport,
    /// Wall time per rule family, for `--timings`.
    pub timings: Vec<(&'static str, Duration)>,
}

fn param_seeds(cg: &CallGraph<'_>, id: FnId) -> Vec<(String, Taint)> {
    cg.fns[id]
        .item
        .params
        .iter()
        .enumerate()
        .filter_map(|(i, p)| {
            let name = p.name.clone()?;
            let mut t = Taint {
                kinds: 0,
                params: 1u32 << i.min(31),
            };
            if ty_is_hash_container(&p.ty) {
                t.kinds |= HASH_CONTAINER;
            }
            Some((name, t))
        })
        .collect()
}

/// Runs the taint analysis over one function. Returns its summary and,
/// when `report` is set, records sink hits into it.
fn analyze_fn<'a>(
    syms: &'a Symbols,
    cg: &'a CallGraph<'a>,
    summaries: &'a [Summary],
    cfgs: &[Option<Cfg<'a>>],
    id: FnId,
    collect_hits: bool,
) -> (Summary, Vec<SinkHit>) {
    let Some(cfg) = &cfgs[id] else {
        return (Summary::default(), Vec::new());
    };
    let info = &cg.fns[id];
    let mk = |hits| TaintAnalysis {
        syms,
        cg,
        summaries,
        self_ty: info.self_ty.as_deref(),
        param_seeds: param_seeds(cg, id),
        ret: Taint::CLEAN,
        sank_params: 0,
        hits,
    };
    // Solve to fixpoint (hit recording off), then one deterministic
    // replay with the solved facts to read off returns and sinks.
    let mut solver = mk(None);
    let facts = solve(cfg, &mut solver);
    let mut reader = mk(if collect_hits { Some(Vec::new()) } else { None });
    replay(cfg, &mut reader, &facts, &mut |_, _, _, _| {});
    let summary = Summary {
        ret: reader.ret,
        sink_params: reader.sank_params,
    };
    (summary, reader.hits.unwrap_or_default())
}

// --------------------------------------------------------------------------
// A1 — allocation in hot loops.
// --------------------------------------------------------------------------

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

// --------------------------------------------------------------------------
// G1 — shard-safety inventory.
// --------------------------------------------------------------------------

/// One entry in the sharding-readiness report.
#[derive(Debug, Clone)]
pub struct ShardEntry {
    /// Workspace-relative file path (with `/` separators).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// `static-mut` | `thread-local` | `static` | `interior-mut-field`
    /// | `sync-field` | `mut-self-method`.
    pub kind: &'static str,
    /// Owning type (`-` for free statics).
    pub type_name: String,
    /// Field, fn or static name.
    pub member: String,
    /// `deny` (blocks sharding) or `report` (inventory only).
    pub classification: &'static str,
    /// Whether the member is on the hot (event-loop-reachable) path.
    pub hot: bool,
}

/// The machine-readable G1 report the item-2 sharded-DES PR consumes.
/// Schema v2 adds the field-level escape classification and the R1
/// merge-point proof obligations.
#[derive(Debug, Default)]
pub struct ShardReport {
    /// Hot-root function labels (`crate::fn`), deduplicated.
    pub roots: Vec<String>,
    /// Number of functions in the hot call-graph closure.
    pub hot_fns: usize,
    /// Inventory entries, sorted by (file, line, member).
    pub entries: Vec<ShardEntry>,
    /// Field-level escape classification of the hot-type closure.
    pub fields: Vec<crate::escape::FieldClassEntry>,
    /// Merge-point proof obligations for every shared cell.
    pub obligations: Vec<crate::order::Obligation>,
}

impl ShardReport {
    /// Renders the report as a deterministic JSON document.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"gmt-shard-readiness/2\",\"roots\":[");
        for (i, r) in self.roots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_str(r));
        }
        let _ = write!(out, "],\"hot_fns\":{},\"entries\":[", self.hot_fns);
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"file\":{},\"line\":{},\"kind\":{},\"type\":{},\"member\":{},\
                 \"classification\":{},\"hot\":{}}}",
                json_str(&e.file),
                e.line,
                json_str(e.kind),
                json_str(&e.type_name),
                json_str(&e.member),
                json_str(e.classification),
                e.hot,
            );
        }
        out.push_str("],\"fields\":[");
        for (i, f) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"file\":{},\"line\":{},\"struct\":{},\"field\":{},\"class\":{},\
                 \"via\":{},\"direct\":{},\"hot\":{}}}",
                json_str(&f.file),
                f.line,
                json_str(&f.struct_name),
                json_str(&f.field),
                json_str(f.class.label()),
                json_str(&f.via),
                f.direct,
                f.hot,
            );
        }
        out.push_str("],\"obligations\":[");
        for (i, o) in self.obligations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"struct\":{},\"field\":{},\"proven\":{},\"mutators\":[",
                json_str(&o.struct_name),
                json_str(&o.field),
                o.proven,
            );
            for (j, m) in o.mutators.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&json_str(m));
            }
            out.push_str("],\"unsanctioned\":[");
            for (j, u) in o.unsanctioned.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&json_str(u));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

/// Crates R2 polices: the simulation model plus its summarizers —
/// everything whose state the sharded DES will have to partition.
/// `analysis` (offline post-processing) and the lint tooling itself are
/// exempt.
pub(crate) const R2_CRATES: &[&str] = &[
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

fn ty_interior_mut(ty: &[String]) -> bool {
    ty.iter()
        .any(|t| matches!(t.as_str(), "Rc" | "RefCell" | "Cell" | "UnsafeCell"))
}

fn ty_sync_shared(ty: &[String]) -> bool {
    ty.iter()
        .any(|t| matches!(t.as_str(), "Arc" | "Mutex" | "RwLock"))
}

// --------------------------------------------------------------------------
// The workspace entry point.
// --------------------------------------------------------------------------

/// Runs N1, A1, G1, R1, R2 and O1 over the analyzed workspace.
pub fn check_flow_rules(files: &[AnalyzedFile], syms: &Symbols, config: &Config) -> FlowOutput {
    let mut out = FlowOutput {
        findings: Vec::new(),
        suppressed: 0,
        shard: ShardReport::default(),
        timings: Vec::new(),
    };
    let n1 = config.level("N1") != Level::Allow;
    let a1 = config.level("A1") != Level::Allow;
    let g1 = config.level("G1") != Level::Allow;
    let r1 = config.level("R1") != Level::Allow;
    let r2 = config.level("R2") != Level::Allow;
    let o1 = config.level("O1") != Level::Allow;
    if !n1 && !a1 && !g1 && !r1 && !r2 && !o1 {
        return out;
    }

    let t0 = Instant::now();
    let cg = CallGraph::build(files);
    // CFGs are built once and shared by summaries and reporting.
    let cfgs: Vec<Option<Cfg<'_>>> = cg
        .fns
        .iter()
        .map(|f| {
            if f.in_test {
                return None;
            }
            f.item
                .body
                .as_ref()
                .map(|b| build_cfg(b, &files[f.file].lexed.tokens))
        })
        .collect();

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
    out.timings.push(("callgraph", t0.elapsed()));

    let ctx_of = |fi: usize| FileContext {
        rel_path: &files[fi].rel,
        crate_name: &files[fi].crate_name,
        target: files[fi].target,
    };

    // ---- N1: bottom-up summaries, then a reporting sweep. ----
    if n1 {
        let t = Instant::now();
        let mut summaries = vec![Summary::default(); cg.fns.len()];
        // Finite lattice + monotone joins: the loop stabilizes; the
        // round cap is sheer paranoia against a non-monotone bug.
        for _round in 0..12 {
            let mut changed = false;
            for id in 0..cg.fns.len() {
                let (s, _) = analyze_fn(syms, &cg, &summaries, &cfgs, id, false);
                let merged = Summary {
                    ret: summaries[id].ret.join(s.ret),
                    sink_params: summaries[id].sink_params | s.sink_params,
                };
                if merged != summaries[id] {
                    summaries[id] = merged;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        for id in 0..cg.fns.len() {
            let (_, hits) = analyze_fn(syms, &cg, &summaries, &cfgs, id, true);
            if hits.is_empty() {
                continue;
            }
            let fi = cg.fns[id].file;
            let mut acc = Findings::new(&files[fi].lexed.suppressions);
            for hit in hits {
                let Some(tok) = files[fi].lexed.tokens.get(hit.tok) else {
                    continue;
                };
                let via = hit
                    .via
                    .as_deref()
                    .map(|v| format!(" via the call chain through `{v}`"))
                    .unwrap_or_default();
                acc.push(
                    ctx_of(fi),
                    config,
                    "N1",
                    tok,
                    format!(
                        "value derived from {} reaches export sink `{}`{via}; exported \
                         bytes would differ across runs — sort, seed, or drop the source",
                        taint_label(hit.kinds),
                        hit.sink
                    ),
                );
            }
            out.findings.append(&mut acc.findings);
            out.suppressed += acc.suppressed;
        }
        out.timings.push(("N1", t.elapsed()));
    }

    // ---- A1: allocation sites in hot loops. ----
    if a1 {
        let t = Instant::now();
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
            let toks = &files[fi].lexed.tokens;
            // Per-event roots: the whole body runs once per simulated
            // event, so it starts at loop depth 1.
            let base_depth = u32::from(
                PER_EVENT_ROOTS.contains(&info.item.name.as_str()) && roots.contains(&id),
            );
            let mut hits = Vec::new();
            a1_walk_block(body, toks, base_depth, &mut hits);
            if hits.is_empty() {
                continue;
            }
            let mut acc = Findings::new(&files[fi].lexed.suppressions);
            let where_ = if base_depth > 0 {
                "per-event body"
            } else {
                "hot loop"
            };
            for hit in hits {
                let Some(tok) = toks.get(hit.tok) else {
                    continue;
                };
                acc.push(
                    ctx_of(fi),
                    config,
                    "A1",
                    tok,
                    format!(
                        "allocation `{}` in the {where_} of `{}` (call-graph-reachable \
                         from the DES roots); hoist into a reused scratch buffer or arena \
                         (ROADMAP item 1)",
                        hit.what, info.item.name
                    ),
                );
            }
            out.findings.append(&mut acc.findings);
            out.suppressed += acc.suppressed;
        }
        out.timings.push(("A1", t.elapsed()));
    }

    // Hot types: receivers of hot methods, plus type names mentioned by
    // hot functions' signatures and bodies. Shared by G1's deny logic,
    // the escape classification scope, and R2's hot-exclusion.
    let mut hot_types: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
    if g1 || r1 || r2 || o1 {
        for (id, &is_hot) in hot.iter().enumerate() {
            if !is_hot {
                continue;
            }
            let info = &cg.fns[id];
            if let Some(ty) = &info.self_ty {
                hot_types.insert(ty.as_str());
            }
            let toks = &files[info.file].lexed.tokens;
            for seg in info
                .item
                .params
                .iter()
                .flat_map(|p| p.ty.iter())
                .chain(info.item.ret_ty.iter())
            {
                if syms.structs.contains_key(seg) {
                    hot_types.insert(seg.as_str());
                }
            }
            if let Some(body) = &info.item.body {
                let hi = body.span.hi.min(toks.len());
                for tok in &toks[body.span.lo..hi] {
                    if tok.kind == TokKind::Ident {
                        if let Some((name, _)) = syms.structs.get_key_value(&tok.text) {
                            hot_types.insert(name.as_str());
                        }
                    }
                }
            }
        }
    }

    // Field-level escape classification of the hot-type closure: feeds
    // the v2 report and seeds R1's shared-cell set.
    let esc = if g1 || r1 || o1 {
        let t = Instant::now();
        let e = crate::escape::classify_fields(files, syms, &hot_types);
        out.timings.push(("escape", t.elapsed()));
        e
    } else {
        crate::escape::EscapeOutput::default()
    };

    // ---- R1: merge-point dominance for shared-cell writes. ----
    // The obligations are computed whenever the shard report is wanted
    // (g1), findings only when R1 itself is enabled.
    if r1 || g1 {
        let t = Instant::now();
        let ord =
            crate::order::check_order(files, syms, &cg, &esc, &roots, &hot, config, r1, false);
        out.findings.extend(ord.findings);
        out.suppressed += ord.suppressed;
        out.shard.obligations = ord.obligations;
        if r1 {
            out.timings.push(("R1", t.elapsed()));
        }
    }

    // ---- O1: order-sensitive float folds. ----
    if o1 {
        let t = Instant::now();
        let ord =
            crate::order::check_order(files, syms, &cg, &esc, &roots, &hot, config, false, o1);
        out.findings.extend(ord.findings);
        out.suppressed += ord.suppressed;
        out.timings.push(("O1", t.elapsed()));
    }

    // ---- R2: new interior-mutability cells in model crates. ----
    // Hot interior cells are G1's domain (denied there); R2 guards the
    // quiet growth everywhere else: cold interior cells, and sync
    // primitives (Arc/Mutex/RwLock) anywhere — single-threaded DES code
    // has no business holding either without a written justification.
    if r2 {
        let t = Instant::now();
        for (sname, info) in &syms.structs {
            let file = &files[info.file];
            if !matches!(file.target, TargetKind::Lib | TargetKind::Bin)
                || !R2_CRATES.contains(&file.crate_name.as_str())
            {
                continue;
            }
            let is_hot = hot_types.contains(sname.as_str());
            let mut acc = Findings::new(&file.lexed.suppressions);
            for field in &info.fields {
                let interior = ty_interior_mut(&field.ty);
                let sync = ty_sync_shared(&field.ty);
                if !((interior && !is_hot) || sync) {
                    continue;
                }
                let Some(name_tok) = file.lexed.tokens.get(field.name_tok) else {
                    continue;
                };
                acc.push(
                    ctx_of(info.file),
                    config,
                    "R2",
                    name_tok,
                    format!(
                        "`{sname}.{}` holds `{}` in model crate `{}`; interior-mutability \
                         and sync cells make shard state implicit — use owned per-shard \
                         state or justify the cell with a suppression",
                        field.name,
                        field.ty.join(""),
                        file.crate_name,
                    ),
                );
            }
            out.findings.append(&mut acc.findings);
            out.suppressed += acc.suppressed;
        }
        out.timings.push(("R2", t.elapsed()));
    }

    // ---- G1: shard-safety findings + inventory. ----
    if g1 {
        let t = Instant::now();
        // Root labels for the report header.
        for &id in &roots {
            let info = &cg.fns[id];
            let label = format!(
                "{}::{}",
                files[info.file].crate_name,
                match &info.self_ty {
                    Some(ty) => format!("{ty}::{}", info.item.name),
                    None => info.item.name.clone(),
                }
            );
            if !out.shard.roots.contains(&label) {
                out.shard.roots.push(label);
            }
        }
        out.shard.roots.sort();
        out.shard.hot_fns = hot.iter().filter(|h| **h).count();
        out.shard.fields = esc.fields.clone();

        // Statics and thread-locals: a token sweep per runtime file.
        for (fi, file) in files.iter().enumerate() {
            if !matches!(file.target, TargetKind::Lib | TargetKind::Bin) {
                continue;
            }
            let toks = &file.lexed.tokens;
            let mask = test_mask(toks);
            let mut acc = Findings::new(&file.lexed.suppressions);
            for (i, tok) in toks.iter().enumerate() {
                if mask[i] || tok.kind != TokKind::Ident {
                    continue;
                }
                if tok.text == "static" {
                    let is_mut = toks.get(i + 1).is_some_and(|t| t.is_ident("mut"));
                    let name_at = if is_mut { i + 2 } else { i + 1 };
                    let Some(name_tok) = toks.get(name_at).filter(|t| t.kind == TokKind::Ident)
                    else {
                        continue;
                    };
                    let kind = if is_mut { "static-mut" } else { "static" };
                    let classification = if is_mut { "deny" } else { "report" };
                    out.shard.entries.push(ShardEntry {
                        file: slash_path(&file.rel),
                        line: name_tok.line,
                        kind,
                        type_name: "-".into(),
                        member: name_tok.text.clone(),
                        classification,
                        hot: true,
                    });
                    if is_mut {
                        acc.push(
                            ctx_of(fi),
                            config,
                            "G1",
                            name_tok,
                            format!(
                                "`static mut {}` is unshardable global state; the item-2 \
                                 sharded DES needs per-shard ownership",
                                name_tok.text
                            ),
                        );
                    }
                } else if tok.text == "thread_local"
                    && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
                {
                    out.shard.entries.push(ShardEntry {
                        file: slash_path(&file.rel),
                        line: tok.line,
                        kind: "thread-local",
                        type_name: "-".into(),
                        member: "thread_local!".into(),
                        classification: "deny",
                        hot: true,
                    });
                    acc.push(
                        ctx_of(fi),
                        config,
                        "G1",
                        tok,
                        "`thread_local!` state ties results to scheduling; the sharded \
                         DES needs explicitly-owned per-shard state"
                            .to_string(),
                    );
                }
            }
            out.findings.append(&mut acc.findings);
            out.suppressed += acc.suppressed;
        }

        // Interior-mutability and sync-shared fields, from the symbol
        // table; deny only on hot types.
        for (sname, info) in &syms.structs {
            let file = &files[info.file];
            if !matches!(file.target, TargetKind::Lib | TargetKind::Bin) {
                continue;
            }
            let is_hot = hot_types.contains(sname.as_str());
            let mut acc = Findings::new(&file.lexed.suppressions);
            for field in &info.fields {
                let interior = ty_interior_mut(&field.ty);
                let sync = ty_sync_shared(&field.ty);
                if !interior && !sync {
                    continue;
                }
                let Some(name_tok) = file.lexed.tokens.get(field.name_tok) else {
                    continue;
                };
                let kind = if interior {
                    "interior-mut-field"
                } else {
                    "sync-field"
                };
                let deny = interior && is_hot;
                out.shard.entries.push(ShardEntry {
                    file: slash_path(&file.rel),
                    line: name_tok.line,
                    kind,
                    type_name: sname.clone(),
                    member: field.name.clone(),
                    classification: if deny { "deny" } else { "report" },
                    hot: is_hot,
                });
                if deny {
                    acc.push(
                        ctx_of(info.file),
                        config,
                        "G1",
                        name_tok,
                        format!(
                            "`{sname}.{}` holds `{}` on the event-loop path; \
                             single-threaded shared mutability blocks the item-2 \
                             sharded DES — give each shard its own copy or channel",
                            field.name,
                            field.ty.join("")
                        ),
                    );
                }
            }
            out.findings.append(&mut acc.findings);
            out.suppressed += acc.suppressed;
        }

        // &mut self methods on the hot path: inventory only.
        for (id, &is_hot) in hot.iter().enumerate() {
            if !is_hot || !cg.fns[id].receiver_mut {
                continue;
            }
            let info = &cg.fns[id];
            let file = &files[info.file];
            let Some(name_tok) = file.lexed.tokens.get(info.item.name_tok) else {
                continue;
            };
            out.shard.entries.push(ShardEntry {
                file: slash_path(&file.rel),
                line: name_tok.line,
                kind: "mut-self-method",
                type_name: info.self_ty.clone().unwrap_or_else(|| "-".into()),
                member: info.item.name.clone(),
                classification: "report",
                hot: true,
            });
        }

        out.shard
            .entries
            .sort_by(|a, b| (&a.file, a.line, &a.member).cmp(&(&b.file, b.line, &b.member)));
        out.timings.push(("G1", t.elapsed()));
    }

    out
}

pub(crate) fn slash_path(p: &std::path::Path) -> String {
    p.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}
