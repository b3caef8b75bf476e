//! Mutation-injection soundness harness: proves the rule set catches
//! the bugs it claims to forbid.
//!
//! The invariants documented in DESIGN §10 are only trustworthy if the
//! analyzer's *recall* is demonstrated rather than assumed. This module
//! synthesizes known-bad variants ("mutants") of real workspace files —
//! mixed-unit accumulations and allocation in per-event roots — lints
//! each variant through an in-memory [`Overlay`] (nothing
//! is ever written into `src/`), and records per-rule recall into a
//! `gmt-lint-recall/4` report with a `--check` gate pinned at 100% for
//! every rule, and at [`MIN_MUTANTS`] mutants per rule.
//!
//! Every rule in [`RULES`] must declare at least one
//! [`MutationTemplate`] (enforced by the inventory self-test), so a new
//! rule cannot land without mechanical evidence the engine detects its
//! violation class.
//!
//! Every mutant is linted cold: the whole workspace is re-analyzed with
//! the overlay applied, so no summary computed for the pristine tree can
//! hide a mutant.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::callgraph::CallGraph;
use crate::diag::json_str;
use crate::engine::{apply_overlay, lint_files};
use crate::hotloop::{PER_EVENT_ROOTS, ROOT_CRATES};
use crate::rules::{rule, MutationTemplate, TargetKind, MUTATIONS, RULES};
use crate::symbols::AnalyzedFile;
use crate::workspace::{slash_path, workspace_files, Overlay};

/// Schema identifier stamped into the recall report.
pub const RECALL_SCHEMA: &str = "gmt-lint-recall/4";

/// Mutants synthesized per rule.
const MUTANT_CAP: usize = 6;
/// The fewest mutants a rule may have before `--check` fails: a rule
/// whose sites ran out is measured on too little evidence.
pub const MIN_MUTANTS: usize = 5;

/// A pre-loaded workspace: analyzed files plus their raw sources
/// (which [`AnalyzedFile`] does not retain but synthesis needs).
pub struct Corpus {
    /// Every member file, lexed and parsed.
    pub files: Vec<AnalyzedFile>,
    /// Raw source text keyed by slash-separated relative path.
    pub sources: BTreeMap<String, String>,
}

/// Reads, lexes and parses every workspace member file, keeping the
/// raw sources alongside for mutation splicing.
///
/// # Errors
///
/// Returns the first I/O error from the manifest walk or a source read.
pub fn load_corpus(root: &Path) -> io::Result<Corpus> {
    let mut files = Vec::new();
    let mut sources = BTreeMap::new();
    for f in workspace_files(root)? {
        let source = fs::read_to_string(&f.abs)?;
        files.push(AnalyzedFile::analyze(
            f.rel.clone(),
            f.crate_name,
            f.target,
            &source,
        ));
        sources.insert(slash_path(&f.rel), source);
    }
    Ok(Corpus { files, sources })
}

/// One synthesized known-bad variant of the workspace.
pub struct Mutant {
    /// The template that produced it (and the rule it must trip).
    pub template: &'static MutationTemplate,
    /// Human-readable site description (`crates/core/src/manager.rs fn access`).
    pub site: String,
    /// The replacement sources.
    pub overlay: Overlay,
}

/// The static verdict for one mutant.
pub struct MutantOutcome {
    /// The mutant's template rule id.
    pub rule: &'static str,
    /// The template name.
    pub template: &'static str,
    /// The site description.
    pub site: String,
    /// Files the overlay replaced.
    pub files: Vec<String>,
    /// Whether the expected rule fired on the mutant.
    pub caught: bool,
    /// Other rules that also fired (the pristine workspace is clean,
    /// so every finding is attributable to the mutation).
    pub also: Vec<&'static str>,
}

/// The full harness result, renderable as `gmt-lint-recall/4`.
pub struct RecallReport {
    /// Whether the pristine workspace linted clean.
    pub workspace_clean: bool,
    /// Per-mutant outcomes, in synthesis order.
    pub mutants: Vec<MutantOutcome>,
}

impl RecallReport {
    /// Per-rule `(mutants, caught)` rollup, in [`RULES`] order.
    pub fn rollup(&self) -> Vec<(&'static str, usize, usize)> {
        RULES
            .iter()
            .map(|r| {
                let total = self.mutants.iter().filter(|m| m.rule == r.id).count();
                let caught = self
                    .mutants
                    .iter()
                    .filter(|m| m.rule == r.id && m.caught)
                    .count();
                (r.id, total, caught)
            })
            .collect()
    }

    /// Whether every gate holds: the workspace was clean, and every
    /// rule has at least [`MIN_MUTANTS`] mutants and caught them all.
    pub fn ok(&self) -> bool {
        self.workspace_clean
            && self
                .rollup()
                .iter()
                .all(|&(_, total, caught)| total >= MIN_MUTANTS && caught == total)
    }

    /// Renders the report as canonical `gmt-lint-recall/4` JSON.
    ///
    /// The output is fully deterministic — no timestamps, no host
    /// details — so two runs over the same tree render the same bytes.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {},", json_str(RECALL_SCHEMA));
        let _ = writeln!(out, "  \"workspace_clean\": {},", self.workspace_clean);
        out.push_str("  \"rules\": [\n");
        let rollup = self.rollup();
        for (i, (id, total, caught)) in rollup.iter().enumerate() {
            let r = rule(id).expect("rollup ids come from RULES");
            let pct = if *total == 0 {
                0
            } else {
                (caught * 100 / total) as u32
            };
            let _ = write!(
                out,
                "    {{\"rule\": {}, \"name\": {}, \"mutants\": {}, \"caught\": {}, \
                 \"recall_pct\": {}}}",
                json_str(id),
                json_str(r.name),
                total,
                caught,
                pct
            );
            out.push_str(if i + 1 < rollup.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n");
        out.push_str("  \"mutants\": [\n");
        for (i, m) in self.mutants.iter().enumerate() {
            let files = m
                .files
                .iter()
                .map(|f| json_str(f))
                .collect::<Vec<_>>()
                .join(", ");
            let also = m
                .also
                .iter()
                .map(|r| json_str(r))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = write!(
                out,
                "    {{\"rule\": {}, \"template\": {}, \"site\": {}, \"files\": [{}], \
                 \"caught\": {}, \"also\": [{}]}}",
                json_str(m.rule),
                json_str(m.template),
                json_str(&m.site),
                files,
                m.caught,
                also
            );
            out.push_str(if i + 1 < self.mutants.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
        let _ = writeln!(out, "  \"ok\": {}", self.ok());
        out.push_str("}\n");
        out
    }
}

// ------------------------------------------------------------------
// Site discovery
// ------------------------------------------------------------------

/// A function-body injection site: the byte position just past the
/// opening `{`.
struct FnSite {
    rel: String,
    fn_name: String,
    insert_at: usize,
}

/// Collects function-entry injection sites, deterministically ordered
/// by (path, byte offset), and keeps the first `cap`.
///
/// `crates` filters by owning crate; `names` (when given) filters by
/// function name (the A1 template only targets per-event roots).
fn fn_sites(corpus: &Corpus, crates: &[&str], names: Option<&[&str]>, cap: usize) -> Vec<FnSite> {
    let cg = CallGraph::build(&corpus.files);
    let mut out = Vec::new();
    for info in &cg.fns {
        let file = &corpus.files[info.file];
        if info.in_test
            || !matches!(file.target, TargetKind::Lib)
            || !crates.contains(&file.crate_name.as_str())
        {
            continue;
        }
        if let Some(names) = names {
            if !names.contains(&info.item.name.as_str()) {
                continue;
            }
        }
        let Some(body) = info.item.body.as_ref() else {
            continue;
        };
        let Some(open) = file.tokens.get(body.span.lo) else {
            continue;
        };
        out.push(FnSite {
            rel: slash_path(&file.rel),
            fn_name: info.item.name.clone(),
            insert_at: open.offset + open.len,
        });
    }
    out.sort_by(|a, b| (&a.rel, a.insert_at).cmp(&(&b.rel, b.insert_at)));
    out.truncate(cap);
    out
}

/// Splices `snippet` (as fresh lines) into `rel` at byte `at`.
fn spliced(corpus: &Corpus, rel: &str, at: usize, snippet: &str) -> String {
    let src = &corpus.sources[rel];
    let mut out = String::with_capacity(src.len() + snippet.len() + 2);
    out.push_str(&src[..at]);
    out.push('\n');
    out.push_str(snippet);
    out.push_str(&src[at..]);
    out
}

fn template(name: &str) -> &'static MutationTemplate {
    MUTATIONS
        .iter()
        .find(|m| m.name == name)
        .expect("template names are declared in rules::MUTATIONS")
}

// ------------------------------------------------------------------
// Synthesis
// ------------------------------------------------------------------

/// Synthesizes the mutant set for the whole rule inventory.
///
/// Deterministic by construction: site lists are path-ordered, and the
/// per-rule cap of 6 takes a stable prefix.
pub fn synthesize(corpus: &Corpus) -> Vec<Mutant> {
    let mut out = Vec::new();
    synth_u1(corpus, MUTANT_CAP, &mut out);
    synth_a1(corpus, MUTANT_CAP, &mut out);
    out
}

fn fn_entry_mutants(
    corpus: &Corpus,
    out: &mut Vec<Mutant>,
    tpl: &'static MutationTemplate,
    sites: Vec<FnSite>,
    snippet: &str,
) {
    for site in sites {
        let text = spliced(corpus, &site.rel, site.insert_at, snippet);
        out.push(Mutant {
            template: tpl,
            site: format!("{} fn {}", site.rel, site.fn_name),
            overlay: Overlay::single(&site.rel, text),
        });
    }
}

fn synth_u1(corpus: &Corpus, cap: usize, out: &mut Vec<Mutant>) {
    let sites = fn_sites(corpus, ROOT_CRATES, None, cap);
    fn_entry_mutants(
        corpus,
        out,
        template("u1-mixed-units"),
        sites,
        "        let mut __mut_total_ns: u64 = 0;\n\
         \x20       let __mut_gap_us: u64 = 3;\n\
         \x20       __mut_total_ns += __mut_gap_us;\n\
         \x20       let _ = __mut_total_ns;",
    );
}

fn synth_a1(corpus: &Corpus, cap: usize, out: &mut Vec<Mutant>) {
    let sites = fn_sites(corpus, ROOT_CRATES, Some(PER_EVENT_ROOTS), cap);
    fn_entry_mutants(
        corpus,
        out,
        template("a1-hot-loop-alloc"),
        sites,
        "        let __mut_scratch: Vec<u64> = Vec::new();\n        drop(__mut_scratch);",
    );
}

// ------------------------------------------------------------------
// Measurement
// ------------------------------------------------------------------

/// Measures recall: baseline-clean assertion, mutant synthesis, and one
/// cold overlay lint run per mutant.
///
/// # Errors
///
/// Returns a message when the pristine workspace is not clean
/// (recall over a dirty baseline would be meaningless).
pub fn measure_recall(corpus: &Corpus) -> Result<RecallReport, String> {
    let baseline = lint_files(&corpus.files);
    if !baseline.is_clean() {
        let mut msg = String::from("pristine workspace is not clean; fix before measuring:");
        for f in baseline.findings.iter().take(5) {
            let _ = write!(msg, "\n  {} {}:{}", f.rule, f.file.display(), f.line);
        }
        return Err(msg);
    }
    let mutants = synthesize(corpus);
    let mut outcomes = Vec::with_capacity(mutants.len());
    for m in &mutants {
        let files = apply_overlay(&corpus.files, &m.overlay);
        let fired: BTreeSet<&'static str> =
            lint_files(&files).findings.iter().map(|f| f.rule).collect();
        outcomes.push(MutantOutcome {
            rule: m.template.rule,
            template: m.template.name,
            site: m.site.clone(),
            files: m.overlay.files.keys().cloned().collect(),
            caught: fired.contains(m.template.rule),
            also: fired
                .iter()
                .copied()
                .filter(|r| *r != m.template.rule)
                .collect(),
        });
    }
    Ok(RecallReport {
        workspace_clean: true,
        mutants: outcomes,
    })
}

/// Runs the whole harness over the workspace at `root`.
///
/// # Errors
///
/// Propagates load and [`measure_recall`] errors.
pub fn run(root: &Path) -> Result<RecallReport, String> {
    let corpus = load_corpus(root).map_err(|e| format!("loading workspace: {e}"))?;
    measure_recall(&corpus)
}

/// Usage text for the `gmt-mutate` CLI.
pub const USAGE: &str = "\
gmt-mutate — mutation-injection recall harness for the gmt-lint rule set

USAGE:
    gmt-mutate [OPTIONS]

OPTIONS:
    --root <PATH>       Workspace root (default: nearest [workspace] above cwd)
    --check             Exit non-zero unless every rule catches every mutant and
                        has at least 5 mutants
    --out <PATH>        Write the gmt-lint-recall/4 report to PATH
    -h, --help          Print this help

Synthesizes known-bad variants of real workspace files (mixed-unit
accumulations, allocation in per-event roots), lints each one through an in-memory overlay — mutant source is never written
into src/ — and reports per-rule recall. Every rule is pinned at a 100%
floor.

EXIT CODES:
    0  harness ran (and, with --check, every gate held)
    1  --check failed: recall or mutant floor missed
    2  usage or I/O error";

/// Parses `args` (everything after the program name) and
/// runs the harness, printing the report and per-rule tallies.
///
/// Returns whether the `--check` gates held (always `true` without
/// `--check`).
///
/// # Errors
///
/// Returns a message on bad flags, a missing workspace root, I/O
/// failure, or a harness error.
pub fn cli_main(args: &[String]) -> Result<bool, String> {
    let mut root: Option<PathBuf> = None;
    let mut check = false;
    let mut out_path: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                root = Some(PathBuf::from(it.next().ok_or("--root needs a path")?));
            }
            "--check" => check = true,
            "--out" => {
                out_path = Some(PathBuf::from(it.next().ok_or("--out needs a path")?));
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                return Ok(true);
            }
            other => return Err(format!("unknown argument `{other}` (see --help)")),
        }
    }
    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
            crate::workspace::find_root(&cwd)
                .ok_or("no [workspace] Cargo.toml above the current directory")?
        }
    };
    let started = Instant::now();
    let report = run(&root)?;
    let rendered = report.render_json();
    match &out_path {
        Some(path) => {
            fs::write(path, &rendered).map_err(|e| format!("{}: {e}", path.display()))?;
            eprintln!("gmt-mutate: wrote recall report to {}", path.display());
        }
        None => print!("{rendered}"),
    }
    for (id, total, caught) in report.rollup() {
        eprintln!("gmt-mutate: {id:<3} {caught}/{total} mutants caught");
    }
    eprintln!("gmt-mutate: completed in {:?}", started.elapsed());
    if check && !report.ok() {
        eprintln!("gmt-mutate: recall gate FAILED (see report)");
        return Ok(false);
    }
    Ok(true)
}
