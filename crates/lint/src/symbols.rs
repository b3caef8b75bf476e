//! Workspace-wide symbol table for the semantic rules (U1/C1).
//!
//! Built from every parsed file's AST in one pass, the table answers the
//! cross-file questions one file's tokens cannot: which unit a function
//! parameter expects (from its name suffix), which fields a config
//! struct declares and whether they are numeric, and which identifiers
//! any `validate()` body mentions.
//!
//! Unit inference is deliberately suffix-based and exact: only the final
//! `_`-separated segment of an identifier names a unit, so
//! `link_bytes_per_sec` (ends in `sec`) carries no dimension while
//! `latency_ns` does. The `Dur`/`Time` newtypes from `crates/sim` are
//! tracked as their own dimensions: values of those types are checked by
//! rustc's operator impls, so the linter only flags *raw* integers whose
//! inferred units disagree.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

use crate::ast::{File, Item, ItemKind};
use crate::lexer::{lex, LexOutput, TokKind};
use crate::rules::{FileContext, TargetKind};

/// A concrete measurement unit inferred from an identifier suffix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Unit {
    /// Nanoseconds (`_ns`).
    Ns,
    /// Microseconds (`_us`).
    Us,
    /// Milliseconds (`_ms`).
    Ms,
    /// Byte counts (`_bytes`).
    Bytes,
    /// Page counts (`_pages`).
    Pages,
    /// Gigabytes per second (`_gbps`).
    Gbps,
}

impl Unit {
    /// The suffix spelling, for diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            Unit::Ns => "ns",
            Unit::Us => "us",
            Unit::Ms => "ms",
            Unit::Bytes => "bytes",
            Unit::Pages => "pages",
            Unit::Gbps => "gbps",
        }
    }
}

/// Infers a unit from the final `_`-separated segment of `name`.
pub fn unit_of_name(name: &str) -> Option<Unit> {
    let seg = name.rsplit('_').next().unwrap_or(name);
    Some(match seg {
        "ns" => Unit::Ns,
        "us" => Unit::Us,
        "ms" => Unit::Ms,
        "bytes" => Unit::Bytes,
        "pages" => Unit::Pages,
        "gbps" => Unit::Gbps,
        _ => return None,
    })
}

/// The dimension carried by an expression or binding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dim {
    /// A raw number with a suffix-inferred unit.
    Known(Unit),
    /// The `Dur` newtype — unit-safe by construction.
    Dur,
    /// The `Time` newtype — unit-safe by construction.
    Time,
    /// No inferable dimension.
    Unknown,
}

impl Dim {
    /// The known unit, if any.
    pub fn unit(self) -> Option<Unit> {
        match self {
            Dim::Known(u) => Some(u),
            _ => None,
        }
    }
}

/// Infers a dimension from a type's token spelling.
pub fn dim_of_ty(ty: &[String]) -> Dim {
    match ty
        .iter()
        .map(String::as_str)
        .find(|t| *t != "&" && *t != "mut")
    {
        Some("Dur") => Dim::Dur,
        Some("Time") => Dim::Time,
        _ => Dim::Unknown,
    }
}

/// Whether a field type is a numeric primitive (C1's validate() scope).
fn is_numeric_ty(ty: &[String]) -> bool {
    ty.len() == 1
        && matches!(
            ty[0].as_str(),
            "u8" | "u16"
                | "u32"
                | "u64"
                | "u128"
                | "usize"
                | "i8"
                | "i16"
                | "i32"
                | "i64"
                | "i128"
                | "isize"
                | "f32"
                | "f64"
        )
}

/// One function signature, keyed by bare name in [`Symbols::fns`].
#[derive(Debug, Clone)]
pub struct FnSig {
    /// Number of non-receiver parameters.
    pub arity: usize,
    /// Per-parameter unit inferred from the parameter name.
    pub param_units: Vec<Option<Unit>>,
    /// Dimension of the return value (type first, name suffix second).
    pub ret_dim: Dim,
}

/// One declared struct field.
#[derive(Debug, Clone)]
pub struct FieldInfo {
    /// Field name.
    pub name: String,
    /// Declared `pub` (any visibility qualifier counts).
    pub is_pub: bool,
    /// Whether the type is a bare numeric primitive.
    pub numeric: bool,
    /// Dimension of the field's type (`Dur`/`Time`) — not its name.
    pub ty_dim: Dim,
    /// Token index of the field name in the defining file.
    pub name_tok: usize,
}

/// One struct definition.
#[derive(Debug, Clone)]
pub struct StructInfo {
    /// Index of the defining file in the analyzed-file slice.
    pub file: usize,
    /// Declared fields in source order.
    pub fields: Vec<FieldInfo>,
}

/// A lexed + parsed source file, the unit all semantic passes consume.
#[derive(Debug, Clone)]
pub struct AnalyzedFile {
    /// Path relative to the workspace root.
    pub rel: PathBuf,
    /// Owning member crate (`sim`, `core`, …).
    pub crate_name: String,
    /// Which target the file compiles into.
    pub target: TargetKind,
    /// Token stream and suppression comments.
    pub lexed: LexOutput,
    /// The parsed (lossless) syntax tree.
    pub ast: File,
}

impl AnalyzedFile {
    /// Lexes and parses `source` as the file at `rel`.
    pub fn analyze(
        rel: PathBuf,
        crate_name: String,
        target: TargetKind,
        source: &str,
    ) -> AnalyzedFile {
        let lexed = lex(source);
        let ast = crate::parser::parse_file(&lexed.tokens);
        AnalyzedFile {
            rel,
            crate_name,
            target,
            lexed,
            ast,
        }
    }

    /// Where the file sits in the workspace, for rule scoping.
    pub fn context(&self) -> FileContext<'_> {
        FileContext {
            rel_path: &self.rel,
            crate_name: &self.crate_name,
            target: self.target,
        }
    }
}

/// The workspace-wide symbol table.
#[derive(Debug, Default)]
pub struct Symbols {
    /// Function signatures by bare name (all same-name overloads).
    pub fns: BTreeMap<String, Vec<FnSig>>,
    /// Struct definitions by name (first definition wins).
    pub structs: BTreeMap<String, StructInfo>,
    /// Every identifier mentioned inside any `fn validate` body.
    pub validate_idents: BTreeSet<String>,
}

/// Builds the symbol table from every analyzed file.
pub fn build_symbols(files: &[AnalyzedFile]) -> Symbols {
    let mut syms = Symbols::default();
    for (idx, file) in files.iter().enumerate() {
        for item in &file.ast.items {
            collect_item(&mut syms, idx, file, item);
        }
    }
    syms
}

fn collect_item(syms: &mut Symbols, file_idx: usize, file: &AnalyzedFile, item: &Item) {
    match &item.kind {
        ItemKind::Fn(f) => {
            let ret_dim = match dim_of_ty(&f.ret_ty) {
                Dim::Unknown => unit_of_name(&f.name).map_or(Dim::Unknown, Dim::Known),
                d => d,
            };
            let sig = FnSig {
                arity: f.params.len(),
                param_units: f
                    .params
                    .iter()
                    .map(|p| p.name.as_deref().and_then(unit_of_name))
                    .collect(),
                ret_dim,
            };
            syms.fns.entry(f.name.clone()).or_default().push(sig);
            if f.name == "validate" {
                if let Some(body) = &f.body {
                    let toks = &file.lexed.tokens;
                    let hi = body.span.hi.min(toks.len());
                    for tok in &toks[body.span.lo..hi] {
                        if tok.kind == TokKind::Ident {
                            syms.validate_idents.insert(tok.text.clone());
                        }
                    }
                }
            }
        }
        ItemKind::Struct(s) => {
            let info = StructInfo {
                file: file_idx,
                fields: s
                    .fields
                    .iter()
                    .map(|fd| FieldInfo {
                        name: fd.name.clone(),
                        is_pub: fd.is_pub,
                        numeric: is_numeric_ty(&fd.ty),
                        ty_dim: dim_of_ty(&fd.ty),
                        name_tok: fd.name_tok,
                    })
                    .collect(),
            };
            syms.structs.entry(s.name.clone()).or_insert(info);
        }
        ItemKind::Impl(imp) => {
            for inner in &imp.items {
                collect_item(syms, file_idx, file, inner);
            }
        }
        ItemKind::Mod(m) => {
            for inner in &m.items {
                collect_item(syms, file_idx, file, inner);
            }
        }
        ItemKind::Enum(_) | ItemKind::Verbatim => {}
    }
}

/// Maps each token index to the `self_ty` of the innermost enclosing
/// `impl` block, for C1's "read outside the struct's own impls" test.
pub fn impl_context_map(file: &AnalyzedFile) -> Vec<Option<String>> {
    let mut map = vec![None; file.lexed.tokens.len()];
    for item in &file.ast.items {
        mark_impls(item, &mut map);
    }
    map
}

fn mark_impls(item: &Item, map: &mut [Option<String>]) {
    match &item.kind {
        ItemKind::Impl(imp) => {
            let hi = item.span.hi.min(map.len());
            for slot in map.iter_mut().take(hi).skip(item.span.lo) {
                *slot = Some(imp.self_ty.clone());
            }
            // Nested impls (rare) override their parent's range.
            for inner in &imp.items {
                mark_impls(inner, map);
            }
        }
        ItemKind::Mod(m) => {
            for inner in &m.items {
                mark_impls(inner, map);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyzed(src: &str) -> AnalyzedFile {
        AnalyzedFile::analyze(
            PathBuf::from("crates/x/src/lib.rs"),
            "x".into(),
            TargetKind::Lib,
            src,
        )
    }

    #[test]
    fn suffixes_map_to_units_by_final_segment_only() {
        assert_eq!(unit_of_name("latency_ns"), Some(Unit::Ns));
        assert_eq!(unit_of_name("ns"), Some(Unit::Ns));
        assert_eq!(unit_of_name("win_bytes"), Some(Unit::Bytes));
        assert_eq!(unit_of_name("link_bytes_per_sec"), None);
        assert_eq!(unit_of_name("pcie_gbps"), Some(Unit::Gbps));
        assert_eq!(unit_of_name("t1_pages"), Some(Unit::Pages));
        assert_eq!(unit_of_name("nsec"), None);
    }

    #[test]
    fn fn_table_records_units_and_return_dims() {
        let f = analyzed(
            "fn pace(start_ns: u64, budget: Dur) -> u64 { start_ns }\n\
             fn deadline_us(x: u64) -> u64 { x }\n\
             fn mk() -> Dur { Dur::ZERO }",
        );
        let syms = build_symbols(std::slice::from_ref(&f));
        let pace = &syms.fns["pace"][0];
        assert_eq!(pace.arity, 2);
        assert_eq!(pace.param_units, vec![Some(Unit::Ns), None]);
        assert_eq!(pace.ret_dim, Dim::Unknown);
        assert_eq!(syms.fns["deadline_us"][0].ret_dim, Dim::Known(Unit::Us));
        assert_eq!(syms.fns["mk"][0].ret_dim, Dim::Dur);
    }

    #[test]
    fn struct_table_flags_numeric_and_typed_fields() {
        let f = analyzed(
            "pub struct SsdConfig { pub block_bytes: u32, pub read_latency: Dur, pub name: String }",
        );
        let syms = build_symbols(std::slice::from_ref(&f));
        let s = &syms.structs["SsdConfig"];
        assert!(s.fields[0].numeric && s.fields[0].is_pub);
        assert_eq!(s.fields[1].ty_dim, Dim::Dur);
        assert!(!s.fields[1].numeric);
        assert!(!s.fields[2].numeric);
    }

    #[test]
    fn validate_bodies_feed_the_ident_set() {
        let f = analyzed(
            "impl C { pub fn validate(&self) -> Result<(), E> { if self.channels == 0 { return Err(E::Zero); } Ok(()) } }",
        );
        let syms = build_symbols(std::slice::from_ref(&f));
        assert!(syms.validate_idents.contains("channels"));
        assert!(!syms.validate_idents.contains("block_bytes"));
    }

    #[test]
    fn impl_context_covers_only_impl_ranges() {
        let f = analyzed("fn free() {}\nimpl S { fn m(&self) { self.x; } }");
        let map = impl_context_map(&f);
        let toks = &f.lexed.tokens;
        let x_pos = toks.iter().position(|t| t.is_ident("x")).expect("x");
        let free_pos = toks.iter().position(|t| t.is_ident("free")).expect("free");
        assert_eq!(map[x_pos].as_deref(), Some("S"));
        assert_eq!(map[free_pos], None);
    }
}
