//! Workspace-wide symbol table for the U1 unit-dimension rule.
//!
//! Built from every parsed file's AST in one pass, the table answers the
//! cross-file questions one file's tokens cannot: which unit a function
//! parameter expects (from its name suffix), what it returns, and which
//! struct fields are `Dur`-typed.
//!
//! Unit inference is deliberately suffix-based and exact: only the final
//! `_`-separated segment of an identifier names a unit, so
//! `link_bytes_per_sec` (ends in `sec`) carries no dimension while
//! `latency_ns` does. The `Dur`/`Time` newtypes from `crates/sim` are
//! tracked as their own dimensions: values of those types are checked by
//! rustc's operator impls, so the linter only flags *raw* integers whose
//! inferred units disagree.

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::ast::{File, Item, ItemKind};
use crate::lexer::{lex, Token};
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
    /// Dimension of the field's type (`Dur`/`Time`) — not its name.
    pub ty_dim: Dim,
}

/// One struct definition.
#[derive(Debug, Clone)]
pub struct StructInfo {
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
    /// The file's tokens.
    pub tokens: Vec<Token>,
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
        let tokens = lex(source);
        let ast = crate::parser::parse_file(&tokens);
        AnalyzedFile {
            rel,
            crate_name,
            target,
            tokens,
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
}

/// Builds the symbol table from every analyzed file.
pub fn build_symbols(files: &[AnalyzedFile]) -> Symbols {
    let mut syms = Symbols::default();
    for file in files {
        for item in &file.ast.items {
            collect_item(&mut syms, item);
        }
    }
    syms
}

fn collect_item(syms: &mut Symbols, item: &Item) {
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
        }
        ItemKind::Struct(s) => {
            let info = StructInfo {
                fields: s
                    .fields
                    .iter()
                    .map(|fd| FieldInfo {
                        name: fd.name.clone(),
                        ty_dim: dim_of_ty(&fd.ty),
                    })
                    .collect(),
            };
            syms.structs.entry(s.name.clone()).or_insert(info);
        }
        ItemKind::Impl(imp) => {
            for inner in &imp.items {
                collect_item(syms, inner);
            }
        }
        ItemKind::Mod(m) => {
            for inner in &m.items {
                collect_item(syms, inner);
            }
        }
        ItemKind::Enum(_) | ItemKind::Verbatim => {}
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
    fn struct_table_records_typed_fields() {
        let f = analyzed(
            "pub struct SsdConfig { pub block_bytes: u32, pub read_latency: Dur, pub name: String }",
        );
        let syms = build_symbols(std::slice::from_ref(&f));
        let s = &syms.structs["SsdConfig"];
        assert_eq!(s.fields[0].ty_dim, Dim::Unknown);
        assert_eq!(s.fields[1].ty_dim, Dim::Dur);
        assert_eq!(s.fields[2].name, "name");
    }
}
