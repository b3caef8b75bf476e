//! # gmt-lint — repo-specific static analysis for the GMT workspace
//!
//! The reproduction's credibility rests on bit-reproducible simulation:
//! golden-trace fixtures, differential tests and `paper`'s committed
//! captures, the serving ones included, all assume a seeded run is
//! byte-identical across machines. Most of the invariants behind that
//! assumption run in the toolchain (see the table in [`rules`]): D1
//! no-wall-clock, D2 no-unseeded-rng, D3 and O1 no hash iteration order,
//! N1's sources, and G1/R2 no shared cells are clippy's
//! `disallowed-methods`/`disallowed-types`/`disallowed-macros`
//! (`clippy.toml`); S1 no-unsafe is rustc's `unsafe_code` lint
//! (`[workspace.lints]`); P1 no-panic-in-lib is clippy's
//! `unwrap_used`/`expect_used`/`panic` lints (the crate roots of `core`,
//! `sim` and `serve`); M1, C1 and T1 are exhaustive destructuring and
//! matching that rustc checks (C1's dead-knob half is the root
//! `tests/config_knobs.rs`).
//!
//! `gmt-lint` is the CI gate for the two the toolchain has no lint for:
//!
//! * **U1 unit-dimension** — values with unit suffixes (`_ns`, `_us`,
//!   `_bytes`, …) do not mix dimensions without a conversion,
//! * **A1 alloc-in-hot-loop** — no allocation churn in loops reachable
//!   from the DES event roots ([`hotloop`]).
//!
//! The analysis tokenizes with a hand-rolled lexer ([`lexer`]) rather
//! than a parser dependency, keeping the workspace offline-buildable.
//! Every rule runs at deny level: any finding fails the run, and no
//! comment silences one. Violations carry rustc-style `file:line:col`
//! spans and are emitted as text or `--format json` for CI annotation.
//!
//! The rule set's recall is itself under test: the mutation-injection
//! harness ([`mutate`], shipped as the `gmt-mutate` binary) synthesizes
//! known-bad variants of real workspace files through an in-memory
//! overlay, and measures which rules catch them.
//!
//! Run it with:
//!
//! ```text
//! cargo run -p gmt-lint -- --format json
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod callgraph;
pub mod diag;
pub mod engine;
pub mod hotloop;
pub mod lexer;
pub mod mutate;
pub mod parser;
pub mod rules;
pub mod symbols;
pub mod workspace;

pub use diag::{Finding, Report};
pub use engine::{check_source, lint_workspace};
pub use rules::{FileContext, TargetKind, RULES};
