//! The paper's nine evaluation applications (Table 2) as warp-access
//! trace generators, plus the GAP-Kron graph substrate they run on.
//!
//! GMT never inspects a kernel's arithmetic — only the *page-level access
//! stream* it emits. Each generator here reproduces the corresponding
//! application's documented memory behaviour: its array layout, its sweep
//! structure, and — the two quantities that drive every result in the
//! paper — its page-reuse percentage and the tier bias of its Remaining
//! Reuse Distances (Fig. 7):
//!
//! | Workload | Reuse character | RRD bias |
//! |---|---|---|
//! | [`lavamd::LavaMd`] | very low (≈1 %) | Tier-1 |
//! | [`pathfinder::Pathfinder`] | low (≈19 %) | Tier-1 |
//! | [`bfs::Bfs`] | medium (≈33 %) | Tier-2 |
//! | [`multivectoradd::MultiVectorAdd`] | medium (40 %) | Tier-2 |
//! | [`srad::Srad`] | high (≈83 %) | Tier-2 |
//! | [`backprop::Backprop`] | high (≈94 %) | Tier-2 |
//! | [`pagerank::PageRank`] | high (≈90 %) | Tier-3 |
//! | [`sssp::Sssp`] | high (≈80 %) | Tier-3 |
//! | [`hotspot::Hotspot`] | high (≈81 %) | Tier-3 |
//!
//! Regular applications size themselves to a [`WorkloadScale`] derived
//! from the tier geometry (working set = over-subscription × capacity);
//! graph applications are sized by their graph, and the geometry is
//! derived *from* them (paper §3.5) via
//! [`gmt_mem::TierGeometry::from_total`].

#![warn(missing_docs)]
// `kron::tests` counts graph builds per thread; an `expect` nearer to that
// `thread_local!` is not seen by the macro lint.
#![cfg_attr(
    test,
    expect(
        clippy::disallowed_macros,
        reason = "counts graph builds on the test's own thread, so parallel tests do not interfere"
    )
)]

pub mod backprop;
pub mod bfs;
pub mod hotspot;
pub mod kron;
pub mod lavamd;
pub mod multivectoradd;
pub mod pagerank;
pub mod pathfinder;
pub mod srad;
pub mod sssp;
pub mod synthetic;

mod scale;
mod util;

pub use scale::WorkloadScale;

use gmt_mem::WarpAccess;

/// An application whose page-access trace can be replayed through any
/// tiering runtime.
///
/// Workloads are `Send + Sync`: they are immutable once constructed
/// (generation state lives in `trace`'s locals), so harnesses can share
/// them across threads and cache them in statics.
///
/// `trace` generates the whole trace on every call. A harness that
/// replays one app on several systems wraps an app whose trace is
/// expensive to generate (the graph apps, each a graph traversal) in
/// `gmt_analysis::runner::Recorded`, which generates it once per seed and
/// replays it from an in-memory recording after that, rather than
/// regenerating it for each system. A consumer that only reads each
/// access once calls [`Workload::for_each_access`], which such a
/// recording serves without building the trace's `Vec`.
pub trait Workload: Send + Sync {
    /// The paper's name for the application.
    fn name(&self) -> &'static str;

    /// Extent of the address space the trace touches, in pages.
    fn total_pages(&self) -> usize;

    /// Generates the access trace. The same `(workload, seed)` pair always
    /// produces the identical trace, so paired runs across runtimes see
    /// the same accesses.
    fn trace(&self, seed: u64) -> Vec<WarpAccess>;

    /// Calls `visit` on each access of `trace(seed)`, in order.
    ///
    /// The default generates the trace and walks it. A workload that can
    /// hand out its accesses without building the whole `Vec` overrides
    /// it; each access then lives only for its `visit` call.
    fn for_each_access(&self, seed: u64, visit: &mut dyn FnMut(&WarpAccess)) {
        for access in self.trace(seed) {
            visit(&access);
        }
    }
}

/// Builds one application at a given scale.
pub type Build = fn(&WorkloadScale) -> Box<dyn Workload>;

/// The nine Table-2 applications as `(name, constructor)` entries, in the
/// paper's figure order. Each name is the one its workload's
/// [`Workload::name`] returns.
pub const APPS: [(&str, Build); 9] = [
    ("lavaMD", |s| Box::new(lavamd::LavaMd::with_scale(s))),
    ("Pathfinder", |s| {
        Box::new(pathfinder::Pathfinder::with_scale(s))
    }),
    ("BFS", |s| Box::new(bfs::Bfs::with_scale(s))),
    ("MultiVectorAdd", |s| {
        Box::new(multivectoradd::MultiVectorAdd::with_scale(s))
    }),
    ("Srad", |s| Box::new(srad::Srad::with_scale(s))),
    ("Backprop", |s| Box::new(backprop::Backprop::with_scale(s))),
    ("PageRank", |s| Box::new(pagerank::PageRank::with_scale(s))),
    ("SSSP", |s| Box::new(sssp::Sssp::with_scale(s))),
    ("Hotspot", |s| Box::new(hotspot::Hotspot::with_scale(s))),
];

/// The full Table-2 suite at a given scale, in the paper's figure order.
///
/// Graph applications receive the scale only to size their synthetic
/// GAP-Kron graph proportionally.
pub fn suite(scale: &WorkloadScale) -> Vec<Box<dyn Workload>> {
    APPS.iter().map(|(_, build)| build(scale)).collect()
}

/// Builds the application called `name` (ignoring ASCII case) and no
/// other, or `None` when no Table-2 application has that name.
pub fn app(name: &str, scale: &WorkloadScale) -> Option<Box<dyn Workload>> {
    APPS.iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, build)| build(scale))
}

/// The non-graph subset used by the paper's Fig. 13 (the Tier-1 = 32 GB
/// experiment doubles dataset sizes, which only regular applications can
/// do freely).
pub fn non_graph_suite(scale: &WorkloadScale) -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(lavamd::LavaMd::with_scale(scale)),
        Box::new(pathfinder::Pathfinder::with_scale(scale)),
        Box::new(multivectoradd::MultiVectorAdd::with_scale(scale)),
        Box::new(srad::Srad::with_scale(scale)),
        Box::new(backprop::Backprop::with_scale(scale)),
        Box::new(hotspot::Hotspot::with_scale(scale)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_all_nine_in_paper_order() {
        let names: Vec<_> = suite(&WorkloadScale::tiny())
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(
            names,
            vec![
                "lavaMD",
                "Pathfinder",
                "BFS",
                "MultiVectorAdd",
                "Srad",
                "Backprop",
                "PageRank",
                "SSSP",
                "Hotspot"
            ]
        );
        assert_eq!(
            names,
            APPS.map(|(name, _)| name),
            "entries carry their apps' names"
        );
    }

    #[test]
    fn app_builds_only_the_named_workload() {
        let scale = WorkloadScale::tiny();
        let before = kron::tests::graphs_generated();
        let srad = app("srad", &scale).expect("srad is a Table-2 app");
        assert_eq!(srad.name(), "Srad");
        assert_eq!(
            kron::tests::graphs_generated(),
            before,
            "looking up a non-graph app must build no KronGraph"
        );
        let bfs = app("BFS", &scale).expect("BFS is a Table-2 app");
        assert_eq!(bfs.name(), "BFS");
        assert_eq!(kron::tests::graphs_generated(), before + 1);
        assert!(app("nonesuch", &scale).is_none());
    }

    #[test]
    fn traces_are_deterministic_per_seed() {
        for w in suite(&WorkloadScale::tiny()) {
            let a = w.trace(42);
            let b = w.trace(42);
            assert_eq!(a, b, "{} trace must be reproducible", w.name());
        }
    }

    #[test]
    fn traces_stay_inside_declared_address_space() {
        for w in suite(&WorkloadScale::tiny()) {
            let limit = w.total_pages() as u64;
            for access in w.trace(7) {
                for page in access.pages.iter() {
                    assert!(page.0 < limit, "{} touched {page} >= {limit}", w.name());
                }
            }
        }
    }

    #[test]
    fn traces_are_non_trivial() {
        for w in suite(&WorkloadScale::tiny()) {
            let trace = w.trace(7);
            assert!(
                trace.len() > w.total_pages() / 2,
                "{} trace suspiciously short: {} accesses over {} pages",
                w.name(),
                trace.len(),
                w.total_pages()
            );
        }
    }
}
