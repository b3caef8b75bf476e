//! Workspace call graph over the symbol table, with name-based edges.
//!
//! Calls are resolved by *bare name*: `self.promote(x)`, `promote(x)`
//! and `Tier::promote(x)` all create edges to every workspace function
//! named `promote`. That over-approximates dispatch (trait impls and
//! same-name methods merge), which is the right direction for its
//! consumer: A1's hot-path reachability must not miss a callee.
//! Ubiquitous constructor and std-shadowing names (`new`, `default`,
//! `from`, `clone`, `collect`, `with_capacity`) never form edges —
//! `Vec::new()` must not make every workspace `fn new` look hot.

use std::collections::BTreeMap;

use crate::ast::{AnyNode, ExprKind, FnItem, Item, ItemKind};
use crate::rules::{test_mask, TargetKind};
use crate::symbols::AnalyzedFile;

/// Index of a function in [`CallGraph::fns`].
pub type FnId = usize;

/// One workspace function and where it lives.
#[derive(Debug)]
pub struct FnInfo<'a> {
    /// Index of the defining file in the analyzed-file slice.
    pub file: usize,
    /// The parsed function item.
    pub item: &'a FnItem,
    /// Whether the fn sits inside `#[cfg(test)]`/`#[test]` code.
    pub in_test: bool,
}

/// Names that never form call edges: constructors and std-prelude
/// shadows whose workspace homonyms would wire the graph into a hairball.
const NON_EDGE_NAMES: &[&str] = &[
    "new",
    "default",
    "from",
    "clone",
    "collect",
    "with_capacity",
];

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph<'a> {
    /// Every function item in the workspace, in file/source order.
    pub fns: Vec<FnInfo<'a>>,
    /// Function ids by bare name (all same-name definitions).
    pub by_name: BTreeMap<&'a str, Vec<FnId>>,
    /// Callee ids per function, deduplicated.
    pub callees: Vec<Vec<FnId>>,
}

impl<'a> CallGraph<'a> {
    /// Builds the graph over every Lib/Bin file in `files`.
    pub fn build(files: &'a [AnalyzedFile]) -> CallGraph<'a> {
        let mut cg = CallGraph::default();
        for (fi, file) in files.iter().enumerate() {
            if !matches!(file.target, TargetKind::Lib | TargetKind::Bin) {
                continue;
            }
            let mask = test_mask(&file.tokens);
            for item in &file.ast.items {
                collect_fns(&mut cg, fi, item, &mask);
            }
        }
        for id in 0..cg.fns.len() {
            let name = cg.fns[id].item.name.as_str();
            cg.by_name.entry(name).or_default().push(id);
        }
        // Edges: every call name in a body resolves to all same-name fns.
        cg.callees = cg
            .fns
            .iter()
            .map(|f| {
                let mut out: Vec<FnId> = Vec::new();
                for name in called_names(f.item) {
                    if NON_EDGE_NAMES.contains(&name) {
                        continue;
                    }
                    if let Some(ids) = cg.by_name.get(name) {
                        out.extend(ids.iter().copied());
                    }
                }
                out.sort_unstable();
                out.dedup();
                out
            })
            .collect();
        cg
    }

    /// Function ids whose bare name is `name`.
    pub fn named(&self, name: &str) -> &[FnId] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// Forward reachability from `roots` (roots included), skipping
    /// test-masked functions — test helpers calling hot code must not
    /// drag their own bodies into the hot set.
    pub fn reachable(&self, roots: &[FnId]) -> Vec<bool> {
        let mut seen = vec![false; self.fns.len()];
        let mut stack: Vec<FnId> = roots
            .iter()
            .copied()
            .filter(|&id| !self.fns[id].in_test)
            .collect();
        for &id in &stack {
            seen[id] = true;
        }
        while let Some(id) = stack.pop() {
            for &callee in &self.callees[id] {
                if !seen[callee] && !self.fns[callee].in_test {
                    seen[callee] = true;
                    stack.push(callee);
                }
            }
        }
        seen
    }
}

fn collect_fns<'a>(cg: &mut CallGraph<'a>, file_idx: usize, item: &'a Item, mask: &[bool]) {
    match &item.kind {
        ItemKind::Fn(f) => {
            cg.fns.push(FnInfo {
                file: file_idx,
                item: f,
                in_test: mask.get(f.name_tok).copied().unwrap_or(false),
            });
        }
        ItemKind::Impl(imp) => {
            for inner in &imp.items {
                collect_fns(cg, file_idx, inner, mask);
            }
        }
        ItemKind::Mod(m) => {
            for inner in &m.items {
                collect_fns(cg, file_idx, inner, mask);
            }
        }
        _ => {}
    }
}

/// Every bare call name in `f`'s body: `Call` path last segments and
/// `MethodCall` names, in walk order (with duplicates).
fn called_names<'a>(f: &'a FnItem) -> Vec<&'a str> {
    let mut out = Vec::new();
    let Some(body) = &f.body else {
        return out;
    };
    let mut stack: Vec<AnyNode<'a>> = vec![AnyNode::Block(body)];
    let mut kids = Vec::new();
    while let Some(node) = stack.pop() {
        if let AnyNode::Expr(e) = node {
            match &e.kind {
                ExprKind::Call { callee, .. } => {
                    if let ExprKind::Path(segs) = &callee.kind {
                        if let Some(last) = segs.last() {
                            out.push(last.as_str());
                        }
                    }
                }
                ExprKind::MethodCall { name, .. } => out.push(name.as_str()),
                _ => {}
            }
        }
        kids.clear();
        node.children(&mut kids);
        stack.append(&mut kids);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn analyze(src: &str) -> AnalyzedFile {
        AnalyzedFile::analyze(
            PathBuf::from("crates/core/src/x.rs"),
            "core".into(),
            TargetKind::Lib,
            src,
        )
    }

    #[test]
    fn edges_follow_bare_names_through_methods_and_calls() {
        let f = analyze(
            "struct S;\n\
             impl S {\n  fn access(&mut self) { self.promote(1); helper(); }\n\
             \n  fn promote(&mut self, x: u32) { evict(x); }\n}\n\
             fn helper() {}\nfn evict(_x: u32) {}\nfn cold() { helper(); }",
        );
        let files = [f];
        let cg = CallGraph::build(&files);
        let access = cg.named("access")[0];
        let hot = cg.reachable(&[access]);
        let hot_names: Vec<&str> = cg
            .fns
            .iter()
            .enumerate()
            .filter(|(id, _)| hot[*id])
            .map(|(_, f)| f.item.name.as_str())
            .collect();
        assert!(hot_names.contains(&"access"));
        assert!(hot_names.contains(&"promote"), "{hot_names:?}");
        assert!(hot_names.contains(&"evict"), "two hops: {hot_names:?}");
        assert!(hot_names.contains(&"helper"));
        assert!(
            !hot_names.contains(&"cold"),
            "cold is a caller, not a callee"
        );
    }

    #[test]
    fn constructor_names_do_not_form_edges() {
        let f = analyze(
            "struct S;\nimpl S { fn new() -> S { expensive_setup(); S } }\n\
             fn expensive_setup() {}\n\
             fn access() { let _v: Vec<u32> = Vec::new(); }",
        );
        let files = [f];
        let cg = CallGraph::build(&files);
        let access = cg.named("access")[0];
        let hot = cg.reachable(&[access]);
        let new_id = cg.named("new")[0];
        assert!(!hot[new_id], "Vec::new must not pull in S::new");
    }

    #[test]
    fn test_code_is_outside_the_graph_frontier() {
        let f = analyze(
            "fn access() { step(); }\nfn step() {}\n\
             #[cfg(test)]\nmod tests { fn access() { super::only_tests(); } }\n\
             fn only_tests() {}",
        );
        let files = [f];
        let cg = CallGraph::build(&files);
        // Both `access` fns exist; reachability from the non-test one.
        let roots: Vec<FnId> = cg.named("access").to_vec();
        let hot = cg.reachable(&roots);
        let only_tests = cg.named("only_tests")[0];
        assert!(
            !hot[only_tests],
            "the test-module access must not make only_tests hot"
        );
    }
}
