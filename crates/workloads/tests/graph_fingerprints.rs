//! Golden graph fingerprints: the Kronecker generator's CSR arrays and the
//! three graph applications' traces must reproduce the committed FNV-1a
//! values exactly. Fig. 14 replays these traces on every system, so any
//! change to graph construction or to how the generators deduplicate and
//! chunk pages shows up here before it moves a simulated statistic. An
//! intentional model change re-records them:
//!
//! ```sh
//! cargo test -p gmt-workloads --test graph_fingerprints -- --nocapture
//! ```
//!
//! and copies the printed `actual` values over the constants.

use gmt_mem::WarpAccess;
use gmt_workloads::bfs::Bfs;
use gmt_workloads::kron::{KronConfig, KronGraph};
use gmt_workloads::pagerank::PageRank;
use gmt_workloads::sssp::Sssp;
use gmt_workloads::Workload;

/// `(graph, offsets FNV-1a, targets FNV-1a)`. The scale-18 graphs have
/// 2^22 edges, enough to be built in parallel parts on a multi-core host;
/// run under `taskset -c 0` this test pins the one-part build as well.
#[rustfmt::skip]
const GRAPHS: [(&str, u64, u64); 4] = [
    ("gap(12) seed 5", 0x7ef3f0bb855b7067, 0x46f734fedcd97c60),
    ("gap_permuted(12) seed 3", 0xd6cd7848dd6fdfd0, 0x30ed0c8102046708),
    ("gap(18) seed 7", 0x2b2e5efc57c66410, 0xb38966e35b3d4980),
    ("gap_permuted(18) seed 11", 0x82e505a6e94e9430, 0xa22c4c3d56dbb2a8),
];

/// `(trace, FNV-1a of every access's write flag, page count and page ids, accesses)`.
#[rustfmt::skip]
const TRACES: [(&str, u64, usize); 4] = [
    ("bfs", 0x26226e5456f8f76f, 266),
    ("pagerank", 0xb467624e104c19a9, 1536),
    ("sssp seed 1", 0xbf905adc80dafcad, 1153),
    ("sssp seed 2", 0x5fa4279a4f23d166, 1155),
];

/// Like [`TRACES`], on the `gap(18)` seed 7 graph: its 2^22 edges are
/// enough for SSSP's relaxation rounds and PageRank's iteration to be
/// built in parallel parts on a multi-core host; under `taskset -c 0`
/// this test pins the one-part traces as well.
#[rustfmt::skip]
const LARGE_TRACES: [(&str, u64, usize); 2] = [
    ("sssp seed 1", 0x34e4a225d60d1007, 72274),
    ("pagerank", 0x7742852fb184fd9b, 97218),
];

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn words(ws: &[u32]) -> u64 {
    let mut h = Fnv::new();
    ws.iter().for_each(|&w| h.word(u64::from(w)));
    h.0
}

fn trace_fingerprint(trace: &[WarpAccess]) -> u64 {
    let mut h = Fnv::new();
    for a in trace {
        h.word(u64::from(a.write));
        h.word(a.pages.len() as u64);
        a.pages.iter().for_each(|p| h.word(p.0));
    }
    h.0
}

fn graph(config: KronConfig, seed: u64) -> KronGraph {
    KronGraph::generate(config, seed)
}

#[test]
fn kron_graphs_match_golden() {
    let actual = [
        graph(KronConfig::gap(12), 5),
        graph(KronConfig::gap_permuted(12), 3),
        graph(KronConfig::gap(18), 7),
        graph(KronConfig::gap_permuted(18), 11),
    ];
    let mut mismatched = false;
    for ((name, offsets, targets), g) in GRAPHS.iter().zip(&actual) {
        let got = (words(&g.offsets), words(&g.targets));
        println!("actual: (\"{name}\", {:#018x}, {:#018x}),", got.0, got.1);
        mismatched |= got != (*offsets, *targets);
    }
    assert!(
        !mismatched,
        "graph fingerprints moved; see the actual lines"
    );
}

/// Prints every trace's `actual` line and fails if any differs from its
/// golden row.
fn check_traces(golden: &[(&str, u64, usize)], actual: &[Vec<WarpAccess>]) {
    let mut mismatched = false;
    for ((name, fingerprint, len), trace) in golden.iter().zip(actual) {
        let got = (trace_fingerprint(trace), trace.len());
        println!("actual: (\"{name}\", {:#018x}, {}),", got.0, got.1);
        mismatched |= got != (*fingerprint, *len);
    }
    assert!(
        !mismatched,
        "trace fingerprints moved; see the actual lines"
    );
}

const SSSP_ROUNDS: [f64; 5] = [1.0, 0.6, 0.35, 0.2, 0.1];

#[test]
fn graph_traces_match_golden() {
    let g = || graph(KronConfig::gap(12), 5);
    let sssp = Sssp::on_graph(g(), SSSP_ROUNDS.to_vec());
    check_traces(
        &TRACES,
        &[
            Bfs::on_graph(g()).trace(0),
            PageRank::on_graph(g(), 3).trace(0),
            sssp.trace(1),
            sssp.trace(2),
        ],
    );
}

#[test]
fn large_graph_traces_match_golden() {
    let g = || graph(KronConfig::gap(18), 7);
    check_traces(
        &LARGE_TRACES,
        &[
            Sssp::on_graph(g(), SSSP_ROUNDS.to_vec()).trace(1),
            PageRank::on_graph(g(), 3).trace(0),
        ],
    );
}
