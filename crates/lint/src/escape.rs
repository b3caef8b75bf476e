//! Field-level escape/aliasing analysis: the shard-safety prover's map
//! of *what state is where*.
//!
//! Every struct reachable from the simulation roots (the hot types of
//! the G1 inventory, closed transitively over field types) gets each of
//! its fields classified into a three-point lattice:
//!
//! - **shard-local** — plain owned data (primitives, owned containers,
//!   workspace value types). A shard can own a private copy; no merge
//!   protocol needed.
//! - **shared-resource** — the field *is* or *contains* a sharing cell
//!   (`Rc`/`RefCell`/`Cell`/`UnsafeCell`, `Arc`/`Mutex`/`RwLock`,
//!   channels, atomics), directly or through a nested workspace struct.
//!   These are exactly the seeds of the G1 inventory
//!   (`results/shard_readiness.json`), now propagated through the type
//!   graph: a struct holding a `TraceSink` is itself a carrier of the
//!   shared ring.
//! - **ambiguous** — the analysis cannot prove ownership: trait objects
//!   (`dyn`), opaque types (`impl`), function pointers, raw pointers,
//!   non-`&str` references, or type names the workspace does not define
//!   and the vendored-type table does not vouch for.
//!
//! The lattice is ordered shard-local < ambiguous < shared-resource and
//! classification is a monotone fixpoint over the struct graph, so it
//! terminates and is deterministic. The sharding-readiness report
//! (`gmt-shard-readiness/3`) carries the full field table; the
//! sharded-DES builder reads it to decide what to replicate per shard
//! and what to route through a merge point (see [`crate::order`]).
//!
//! Known approximations, all explicit: workspace enums are treated as
//! shard-local (none carry cells today — a cell-bearing enum would
//! surface as `ambiguous` the moment it is named by a field through a
//! non-enum path); single-token ALL-CAPS idents of length ≤ 2 are
//! generic parameters and classify at the instantiation site; lowercase
//! idents are path/module segments or primitives and never carry class.

use std::collections::{BTreeMap, BTreeSet};

use crate::symbols::{AnalyzedFile, Symbols};

/// A field's position in the escape lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// Plain owned data a shard can privately own.
    ShardLocal,
    /// Ownership unprovable: `dyn`/`impl`/`fn`/raw pointers/unknown types.
    Ambiguous,
    /// Contains a sharing cell, directly or transitively.
    SharedResource,
}

impl Class {
    /// The report spelling of the class.
    pub fn label(self) -> &'static str {
        match self {
            Class::ShardLocal => "shard-local",
            Class::Ambiguous => "ambiguous",
            Class::SharedResource => "shared-resource",
        }
    }
}

/// One classified field in the v2 sharding-readiness report.
#[derive(Debug, Clone)]
pub struct FieldClassEntry {
    /// Workspace-relative file path (with `/` separators).
    pub file: String,
    /// The owning struct.
    pub struct_name: String,
    /// The field's name.
    pub field: String,
    /// `shard-local` | `shared-resource` | `ambiguous`.
    pub class: Class,
    /// The type token (or nested struct) that decided the class;
    /// empty for shard-local fields.
    pub via: String,
    /// Whether the field's type itself names a sharing cell (these are
    /// the G1 seeds and the targets of R1's merge-point obligations).
    pub direct: bool,
    /// Whether the owning struct is on the hot (event-loop) path.
    pub hot: bool,
}

/// The analysis result: per-field entries plus the per-struct join.
#[derive(Debug, Default)]
pub struct EscapeOutput {
    /// Classified fields, sorted by (file, struct, field).
    pub fields: Vec<FieldClassEntry>,
    /// Aggregated class per struct in scope (the join of its fields).
    pub struct_class: BTreeMap<String, Class>,
}

/// Type tokens that make a field a sharing cell on their own: single-
/// threaded shared mutability, sync primitives, channels, atomics.
const SHARED_DIRECT: &[&str] = &[
    "Rc",
    "RefCell",
    "Cell",
    "UnsafeCell",
    "Arc",
    "Mutex",
    "RwLock",
    "Condvar",
    "Barrier",
    "OnceLock",
    "LazyLock",
    "OnceCell",
    "Sender",
    "SyncSender",
    "Receiver",
    "JoinHandle",
    "AtomicBool",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
];

/// Owned std containers/wrappers that pass classification through to
/// their type arguments (which appear as sibling tokens and are scanned
/// independently).
const NEUTRAL_WRAPPERS: &[&str] = &[
    "Vec",
    "VecDeque",
    "Option",
    "Box",
    "String",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "HashMap",
    "HashSet",
    "Result",
    "PhantomData",
    "Reverse",
    "Wrapping",
    "Range",
    "RangeInclusive",
    "PathBuf",
    "Ordering",
    "NonZeroU32",
    "NonZeroU64",
    "NonZeroUsize",
];

/// Vendored/external types the workspace treats as plain owned values.
/// `StdRng` is the vendored seeded generator every component threads
/// explicitly — per-shard copies are exactly how the sharded DES will
/// split it.
const KNOWN_LOCAL: &[&str] = &["StdRng", "SmallRng", "SipHasher13", "DefaultHasher"];

/// The first sharing-cell token in a field's type, if any. This is the
/// `direct` half of the classification and — unlike the full lattice —
/// needs no hot-closure scope, so R1 uses it to seed obligations for
/// structs outside the closure too.
pub fn direct_cell(ty: &[String]) -> Option<&'static str> {
    ty.iter()
        .find_map(|t| SHARED_DIRECT.iter().find(|s| **s == t.as_str()).copied())
}

/// Crates whose structs the classification covers: the simulation model
/// plus its summarizers. Everything the sharded DES will have to
/// partition lives here; the lint tooling's own types (reachable from
/// the hot set only through bare-name homonym edges) are excluded.
const ESCAPE_CRATES: &[&str] = &[
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

/// Classifies every field of every struct reachable from `hot_types`
/// through the field-type graph. `hot_types` are the event-loop types
/// computed by the G1 pass in [`crate::flow`].
pub fn classify_fields(
    files: &[AnalyzedFile],
    syms: &Symbols,
    hot_types: &BTreeSet<&str>,
) -> EscapeOutput {
    // The hot closure leaks into tooling crates through bare-name call
    // edges (`parse`, `get`, `run` homonyms); classifying the linter's
    // own structs would only add noise, so scope is model crates only.
    let in_scope = |name: &str| {
        syms.structs
            .get(name)
            .is_some_and(|info| ESCAPE_CRATES.contains(&files[info.file].crate_name.as_str()))
    };
    // Scope: the transitive closure of hot types over field-type edges.
    let mut scope: BTreeSet<&str> = hot_types.iter().copied().filter(|t| in_scope(t)).collect();
    let mut frontier: Vec<&str> = scope.iter().copied().collect();
    while let Some(name) = frontier.pop() {
        let Some(info) = syms.structs.get(name) else {
            continue;
        };
        for field in &info.fields {
            for tok in &field.ty {
                if let Some((nested, _)) = syms.structs.get_key_value(tok.as_str()) {
                    if in_scope(nested) && scope.insert(nested.as_str()) {
                        frontier.push(nested.as_str());
                    }
                }
            }
        }
    }

    // Monotone fixpoint: struct class = join of its field classes, field
    // class = join over its type tokens (nested structs contribute their
    // current class). Classes only move up the lattice, so this settles.
    let mut struct_class: BTreeMap<&str, Class> =
        scope.iter().map(|&s| (s, Class::ShardLocal)).collect();
    loop {
        let mut changed = false;
        for &sname in &scope {
            let info = &syms.structs[sname];
            let mut agg = Class::ShardLocal;
            for field in &info.fields {
                let (class, _, _) = classify_ty(&field.ty, syms, &struct_class);
                agg = agg.max(class);
            }
            let slot = struct_class.get_mut(sname).expect("struct in scope");
            if agg > *slot {
                *slot = agg;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut out = EscapeOutput::default();
    for &sname in &scope {
        let info = &syms.structs[sname];
        let file = &files[info.file];
        let hot = hot_types.contains(sname);
        for field in &info.fields {
            let (class, via, direct) = classify_ty(&field.ty, syms, &struct_class);
            out.fields.push(FieldClassEntry {
                file: crate::flow::slash_path(&file.rel),
                struct_name: sname.to_string(),
                field: field.name.clone(),
                class,
                via,
                direct,
                hot,
            });
        }
    }
    out.fields.sort_by(|a, b| {
        (&a.file, &a.struct_name, &a.field).cmp(&(&b.file, &b.struct_name, &b.field))
    });
    out.struct_class = struct_class
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    out
}

/// Classifies one field's type-token list. Returns the class, the token
/// that decided it (empty for shard-local), and whether the type names a
/// sharing cell directly (vs. through a nested struct).
fn classify_ty(
    ty: &[String],
    syms: &Symbols,
    struct_class: &BTreeMap<&str, Class>,
) -> (Class, String, bool) {
    let mut class = Class::ShardLocal;
    let mut via = String::new();
    let bump = |c: Class, v: &str, class: &mut Class, via: &mut String| {
        if c > *class {
            *class = c;
            *via = v.to_string();
        }
    };
    let mut i = 0;
    while i < ty.len() {
        let t = ty[i].as_str();
        if SHARED_DIRECT.contains(&t) {
            // Shared is the lattice top: nothing can override it.
            return (Class::SharedResource, t.to_string(), true);
        }
        if matches!(t, "dyn" | "impl" | "fn") {
            bump(Class::Ambiguous, t, &mut class, &mut via);
            i += 1;
            continue;
        }
        if t == "&" {
            // `&str` / `&'static str` is a shared *immutable* borrow of
            // static data — safe to hand to every shard. Any other
            // reference aliases state the analysis cannot see through.
            let mut j = i + 1;
            while ty.get(j).is_some_and(|n| n.starts_with('\'') || n == "'") {
                j += 1;
            }
            if ty.get(j).is_some_and(|n| n == "static") {
                j += 1;
            }
            if ty.get(j).is_some_and(|n| n == "str") {
                i = j + 1;
                continue;
            }
            bump(Class::Ambiguous, "&", &mut class, &mut via);
            i += 1;
            continue;
        }
        if t == "*" {
            bump(Class::Ambiguous, "*", &mut class, &mut via);
            i += 1;
            continue;
        }
        let first = t.chars().next().unwrap_or(' ');
        if !first.is_alphabetic() && first != '_' {
            // Punctuation (`<`, `>`, `,`, `[`, `]`, `(`, `)`, `;`, `:`),
            // literals in array lengths, lifetimes.
            i += 1;
            continue;
        }
        if first.is_lowercase() || first == '_' {
            // Primitives (`u64`, `f64`, `bool`, `str`, …), keywords
            // already handled above, and module path segments.
            i += 1;
            continue;
        }
        if NEUTRAL_WRAPPERS.contains(&t) || KNOWN_LOCAL.contains(&t) {
            i += 1;
            continue;
        }
        if t.chars()
            .all(|c| c.is_ascii_uppercase() || c == '_' || c.is_ascii_digit())
        {
            // A generic parameter (`T`, `K`) or a const/array-length
            // constant (`LEVELS`); the instantiation site's argument
            // tokens classify on their own.
            i += 1;
            continue;
        }
        if let Some((nested, _)) = struct_class.get_key_value(t) {
            bump(struct_class[nested], t, &mut class, &mut via);
            if class == Class::SharedResource {
                return (class, via, false);
            }
            i += 1;
            continue;
        }
        if syms.structs.contains_key(t) || syms.enums.contains_key(t) {
            // A workspace type outside the hot closure (structs) or any
            // workspace enum: plain owned data.
            i += 1;
            continue;
        }
        bump(Class::Ambiguous, t, &mut class, &mut via);
        i += 1;
    }
    (class, via, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::TargetKind;
    use crate::symbols::build_symbols;
    use std::path::PathBuf;

    fn analyze(src: &str) -> AnalyzedFile {
        AnalyzedFile::analyze(
            PathBuf::from("crates/core/src/x.rs"),
            "core".into(),
            TargetKind::Lib,
            false,
            src,
        )
    }

    fn classes(src: &str, hot: &[&str]) -> Vec<(String, String, Class)> {
        let files = [analyze(src)];
        let syms = build_symbols(&files);
        let hot_types: BTreeSet<&str> = hot.iter().copied().collect();
        classify_fields(&files, &syms, &hot_types)
            .fields
            .into_iter()
            .map(|f| (f.struct_name, f.field, f.class))
            .collect()
    }

    #[test]
    fn owned_data_is_shard_local_and_cells_are_shared() {
        let got = classes(
            "struct Hot { count: u64, names: Vec<String>, ring: Rc<RefCell<u64>>, \
             label: &'static str }",
            &["Hot"],
        );
        let by = |f: &str| got.iter().find(|(_, n, _)| n == f).unwrap().2;
        assert_eq!(by("count"), Class::ShardLocal);
        assert_eq!(by("names"), Class::ShardLocal);
        assert_eq!(by("ring"), Class::SharedResource);
        assert_eq!(by("label"), Class::ShardLocal, "&'static str is safe");
    }

    #[test]
    fn shared_class_propagates_through_nested_structs() {
        let got = classes(
            "struct Hot { sink: Sink, plain: Meta }\n\
             struct Sink { inner: Option<Rc<RefCell<u64>>> }\n\
             struct Meta { n: u64 }",
            &["Hot"],
        );
        let by = |s: &str, f: &str| got.iter().find(|(sn, n, _)| sn == s && n == f).unwrap().2;
        assert_eq!(by("Sink", "inner"), Class::SharedResource);
        assert_eq!(by("Hot", "sink"), Class::SharedResource, "transitive");
        assert_eq!(by("Hot", "plain"), Class::ShardLocal);
    }

    #[test]
    fn trait_objects_and_unknown_types_are_ambiguous() {
        let got = classes(
            "struct Hot { cb: Box<dyn Fn(u64) -> u64>, ext: FancyExternalThing }",
            &["Hot"],
        );
        let by = |f: &str| got.iter().find(|(_, n, _)| n == f).unwrap().2;
        assert_eq!(by("cb"), Class::Ambiguous);
        assert_eq!(by("ext"), Class::Ambiguous);
    }

    #[test]
    fn generic_params_and_known_vendored_types_stay_local() {
        let got = classes(
            "struct Hot { table: Table<Meta>, rng: StdRng }\n\
             struct Table<T> { slots: Vec<Option<T>> }\n\
             struct Meta { n: u64 }",
            &["Hot"],
        );
        assert!(
            got.iter().all(|(_, _, c)| *c == Class::ShardLocal),
            "{got:?}"
        );
    }

    #[test]
    fn scope_is_the_hot_closure_not_the_whole_workspace() {
        let got = classes(
            "struct Hot { n: u64 }\nstruct Cold { ring: Rc<RefCell<u64>> }",
            &["Hot"],
        );
        assert!(
            got.iter().all(|(s, _, _)| s != "Cold"),
            "Cold is unreachable from the roots: {got:?}"
        );
    }
}
