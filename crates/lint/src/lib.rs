//! # gmt-lint — repo-specific static analysis for the GMT workspace
//!
//! The reproduction's credibility rests on bit-reproducible simulation:
//! golden-trace fixtures, differential tests and the multi-tenant
//! `serve_bench` all assume a seeded run is byte-identical across
//! machines. `gmt-lint` turns the invariants behind that assumption into
//! a CI gate instead of tribal knowledge:
//!
//! * **D3 no-hashmap-in-export** — export paths iterate ordered maps,
//! * **M1 metrics-conservation** — `TieringMetrics::merge` sums every field,
//! * **N1 nondeterminism-taint** — flow-sensitive: wall-clock, RNG,
//!   thread-id and hash-iteration taint must not reach export sinks,
//! * **A1 alloc-in-hot-loop** — no allocation churn in loops reachable
//!   from the DES event roots,
//! * **G1 shard-safety** — `static mut`, `thread_local!` and
//!   `Rc`/`RefCell`/`Cell` fields on the event-loop path are denied,
//! * **R2 interior-mutability-in-model** — model crates must not grow
//!   new `Rc`/`RefCell`/`Arc`/`Mutex` cells without justification,
//! * **O1 order-sensitive-float-fold** — float accumulation over
//!   `HashMap`/`HashSet` iteration order is flagged ([`order`]).
//!
//! The token-level rules that the toolchain already has run there
//! instead (see the table in [`rules`]): D1 no-wall-clock and D2
//! no-unseeded-rng in clippy's `disallowed-methods`/`disallowed-types`
//! (`clippy.toml`), S1 no-unsafe in rustc's `unsafe_code` lint
//! (`[workspace.lints]`), and P1 no-panic-in-lib in clippy's
//! `unwrap_used`/`expect_used`/`panic` lints (the crate roots of `core`,
//! `sim` and `serve`).
//!
//! The analysis tokenizes with a hand-rolled lexer ([`lexer`]) rather
//! than a parser dependency, keeping the workspace offline-buildable.
//! Violations carry rustc-style `file:line:col` spans, can be silenced
//! per line with `// gmt-lint: allow(<rule>): reason`, and are emitted
//! as text or `--format json` for CI annotation. `--fix` applies the
//! mechanically safe D3 rewrite ([`fix`]).
//!
//! The rule set's recall is itself under test: the mutation-injection
//! harness ([`mutate`], shipped as the `gmt-mutate` binary) synthesizes
//! known-bad variants of real workspace files through an in-memory
//! overlay, measures which rules catch them, and cross-validates a
//! sample of O1 mutants behaviorally by replaying a seeded simulation
//! twice in a scratch copy of the workspace.
//!
//! Run it with:
//!
//! ```text
//! cargo run -p gmt-lint -- --format json
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod callgraph;
pub mod cfg;
pub mod dataflow;
pub mod diag;
pub mod engine;
pub mod fix;
pub mod flow;
pub mod lexer;
pub mod mutate;
pub mod order;
pub mod parser;
pub mod rules;
pub mod symbols;
pub mod workspace;

pub use diag::{Finding, Level, Report};
pub use engine::{check_source, lint_workspace};
pub use rules::{Config, FileContext, TargetKind, RULES};
