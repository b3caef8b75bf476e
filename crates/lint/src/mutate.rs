//! Mutation-injection soundness harness: proves the rule set catches
//! the bugs it claims to forbid.
//!
//! The determinism guarantees documented in DESIGN §10 are only
//! trustworthy if the analyzer's *recall* is demonstrated rather than
//! assumed. This module synthesizes known-bad variants ("mutants") of
//! real workspace files — hash-order iteration flowing into trace sinks,
//! float folds under hash iteration, new interior-mutability fields,
//! allocation in per-event roots — lints each variant through an
//! in-memory [`Overlay`] (nothing is ever written into `src/`), and
//! records per-rule recall into a `gmt-lint-recall/1` report with a
//! `--check` gate pinned at 100% for every deny rule, and at
//! [`FULL_MIN_MUTANTS`] mutants per deny rule in full mode.
//!
//! Two properties keep the measurement honest:
//!
//! 1. **Template inventory.** Every rule in [`RULES`] must declare at
//!    least one [`MutationTemplate`] (enforced by the inventory
//!    self-test), so a new rule cannot land without mechanical evidence
//!    the engine detects its violation class.
//! 2. **Behavioral cross-validation.** The O1 mutants targeting
//!    `crates/sim/src/rng.rs` are applied to a
//!    scratch copy of the workspace under `target/gmt-mutate/`, and a
//!    short seeded replay runs twice in-process: the traces must
//!    actually diverge, or the rule is flagged *vacuous* — statically
//!    detectable but behaviorally inert.
//!
//! Every mutant is linted cold: the whole workspace is re-analyzed with
//! the overlay applied, so no summary computed for the pristine tree can
//! hide a mutant.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use crate::callgraph::CallGraph;
use crate::diag::{json_str, Level};
use crate::engine::{apply_overlay, lint_files};
use crate::flow::{slash_path, PER_EVENT_ROOTS, R2_CRATES, ROOT_CRATES};
use crate::order::O1_CRATES;
use crate::rules::{
    rule, Config, MutationTemplate, TargetKind, C1_STRUCTS, D3_EXPORT_FILES, MUTATIONS, RULES,
};
use crate::symbols::{build_symbols, AnalyzedFile};
use crate::workspace::{workspace_files, Overlay};

/// Schema identifier stamped into the recall report.
pub const RECALL_SCHEMA: &str = "gmt-lint-recall/1";

/// Mutants synthesized per rule in full mode.
const FULL_CAP: usize = 6;
/// The fewest mutants a deny rule may have in full mode before `--check`
/// fails: a rule whose sites ran out is measured on too little evidence.
pub const FULL_MIN_MUTANTS: usize = 5;
/// Mutants synthesized per rule in `--quick` mode (the CI-budget tier).
const QUICK_CAP: usize = 2;
/// The file the behavioral stage rewrites: both seeded-RNG entry points
/// live here, so every replay draw flows through the mutated code.
const BEHAVIORAL_REL: &str = "crates/sim/src/rng.rs";
/// Rules whose mutants the behavioral stage cross-validates.
const BEHAVIORAL_RULES: &[&str] = &["O1"];

/// A pre-loaded workspace: analyzed files plus their raw sources
/// (which [`AnalyzedFile`] does not retain but synthesis needs).
pub struct Corpus {
    /// Workspace root directory.
    pub root: PathBuf,
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
    for f in workspace_files(root, false)? {
        let source = fs::read_to_string(&f.abs)?;
        files.push(AnalyzedFile::analyze(
            f.rel.clone(),
            f.crate_name,
            f.target,
            &source,
        ));
        sources.insert(slash_path(&f.rel), source);
    }
    Ok(Corpus {
        root: root.to_path_buf(),
        files,
        sources,
    })
}

/// One synthesized known-bad variant of the workspace.
pub struct Mutant {
    /// The template that produced it (and the rule it must trip).
    pub template: &'static MutationTemplate,
    /// Human-readable site description (`crates/sim/src/rng.rs fn seeded`).
    pub site: String,
    /// The replacement sources.
    pub overlay: Overlay,
    /// Whether the behavioral stage can replay this mutant (a
    /// single-file rewrite of `crates/sim/src/rng.rs` that still compiles).
    pub behavioral: bool,
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
    /// Whether the behavioral stage can replay this mutant.
    pub behavioral: bool,
}

/// One behavioral cross-validation probe result.
pub struct ProbeOutcome {
    /// Rule id under test.
    pub rule: &'static str,
    /// Template name.
    pub template: &'static str,
    /// Site description.
    pub site: String,
    /// Whether two same-seed replays of the mutant diverged.
    pub diverged: bool,
}

/// The behavioral stage's aggregate result.
pub struct BehavioralReport {
    /// Whether the pristine scratch copy replayed bit-identically
    /// (the control; anything else invalidates the probes).
    pub control_identical: bool,
    /// Every probe that ran.
    pub probes: Vec<ProbeOutcome>,
    /// Behavioral-stage rules (O1) with no diverging probe: their
    /// static findings were not backed by observable nondeterminism.
    pub vacuous_rules: Vec<&'static str>,
}

/// The full harness result, renderable as `gmt-lint-recall/1`.
pub struct RecallReport {
    /// `"quick"` or `"full"`.
    pub mode: &'static str,
    /// Whether the pristine workspace linted clean at deny level.
    pub workspace_clean: bool,
    /// Per-mutant outcomes, in synthesis order.
    pub mutants: Vec<MutantOutcome>,
    /// Behavioral stage result (`None` in quick mode / `--no-behavioral`).
    pub behavioral: Option<BehavioralReport>,
}

/// Recall floor for a rule, in percent: deny rules must catch every
/// mutant; anything softer gets a 80% floor.
fn floor_pct(level: Level) -> u32 {
    if level == Level::Deny {
        100
    } else {
        80
    }
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

    /// Whether every gate holds: the workspace was clean, every rule
    /// has mutants (in full mode, at least [`FULL_MIN_MUTANTS`] per deny
    /// rule), every rule's recall meets its floor, and (when the
    /// behavioral stage ran) the control was identical and no rule is
    /// vacuous.
    pub fn ok(&self) -> bool {
        if !self.workspace_clean {
            return false;
        }
        for (id, total, caught) in self.rollup() {
            let r = rule(id).expect("rollup ids come from RULES");
            let min = if self.mode == "full" && r.default_level == Level::Deny {
                FULL_MIN_MUTANTS
            } else {
                1
            };
            if total < min {
                return false;
            }
            let pct = (caught * 100 / total) as u32;
            if pct < floor_pct(r.default_level) {
                return false;
            }
        }
        match &self.behavioral {
            Some(b) => b.control_identical && b.vacuous_rules.is_empty(),
            None => true,
        }
    }

    /// Renders the report as canonical `gmt-lint-recall/1` JSON.
    ///
    /// The output is fully deterministic — no timestamps, no host
    /// details — so two runs over the same tree render the same bytes.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {},", json_str(RECALL_SCHEMA));
        let _ = writeln!(out, "  \"mode\": {},", json_str(self.mode));
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
                "    {{\"rule\": {}, \"name\": {}, \"level\": {}, \"floor_pct\": {}, \
                 \"mutants\": {}, \"caught\": {}, \"recall_pct\": {}}}",
                json_str(id),
                json_str(r.name),
                json_str(&r.default_level.to_string()),
                floor_pct(r.default_level),
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
                 \"caught\": {}, \"also\": [{}], \"behavioral\": {}}}",
                json_str(m.rule),
                json_str(m.template),
                json_str(&m.site),
                files,
                m.caught,
                also,
                m.behavioral
            );
            out.push_str(if i + 1 < self.mutants.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
        match &self.behavioral {
            None => out.push_str("  \"behavioral\": null,\n"),
            Some(b) => {
                out.push_str("  \"behavioral\": {\n");
                let _ = writeln!(out, "    \"control_identical\": {},", b.control_identical);
                out.push_str("    \"probes\": [\n");
                for (i, p) in b.probes.iter().enumerate() {
                    let _ = write!(
                        out,
                        "      {{\"rule\": {}, \"template\": {}, \"site\": {}, \"diverged\": {}}}",
                        json_str(p.rule),
                        json_str(p.template),
                        json_str(&p.site),
                        p.diverged
                    );
                    out.push_str(if i + 1 < b.probes.len() { ",\n" } else { "\n" });
                }
                out.push_str("    ],\n");
                let vac = b
                    .vacuous_rules
                    .iter()
                    .map(|r| json_str(r))
                    .collect::<Vec<_>>()
                    .join(", ");
                let _ = writeln!(out, "    \"vacuous_rules\": [{}]", vac);
                out.push_str("  },\n");
            }
        }
        let _ = writeln!(out, "  \"ok\": {}", self.ok());
        out.push_str("}\n");
        out
    }
}

// ------------------------------------------------------------------
// Site discovery
// ------------------------------------------------------------------

/// A function-body injection site: the byte position just past the
/// opening `{`, plus the first parameter's name when it is a plain
/// `name: u64` (the O1 template folds its float fold into it).
struct FnSite {
    rel: String,
    fn_name: String,
    insert_at: usize,
    first_u64_param: Option<String>,
}

fn plain_ident(name: &str) -> bool {
    !name.is_empty()
        && name != "_"
        && name != "mut"
        && name != "self"
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Collects function-entry injection sites, deterministically ordered
/// by (path, byte offset).
///
/// `crates` filters by owning crate; `names` (when given) filters by
/// function name (the A1 template only targets per-event roots);
/// `require_u64` keeps only sites with a foldable first parameter.
fn fn_sites(
    corpus: &Corpus,
    crates: &[&str],
    names: Option<&[&str]>,
    require_u64: bool,
) -> Vec<FnSite> {
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
        let Some(open) = file.lexed.tokens.get(body.span.lo) else {
            continue;
        };
        // A suppression on the `{` line would cover the first injected
        // line; skip such sites so recall is measured, not suppressed.
        if file
            .lexed
            .suppressions
            .iter()
            .any(|s| s.line == open.line || s.line + 1 == open.line)
        {
            continue;
        }
        let first_u64_param = info.item.params.first().and_then(|p| {
            let name = p.name.as_deref()?;
            (plain_ident(name) && p.ty == ["u64"]).then(|| name.to_string())
        });
        if require_u64 && first_u64_param.is_none() {
            continue;
        }
        out.push(FnSite {
            rel: slash_path(&file.rel),
            fn_name: info.item.name.clone(),
            insert_at: open.offset + open.len,
            first_u64_param,
        });
    }
    out.sort_by(|a, b| (&a.rel, a.insert_at).cmp(&(&b.rel, b.insert_at)));
    out
}

/// Takes the first `cap` sites, force-including one from `prefer_rel`
/// (the behavioral target) when any exists.
fn pick_sites(mut sites: Vec<FnSite>, cap: usize, prefer_rel: Option<&str>) -> Vec<FnSite> {
    if let Some(rel) = prefer_rel {
        if !sites.iter().take(cap).any(|s| s.rel == rel) {
            if let Some(pos) = sites.iter().position(|s| s.rel == rel) {
                let preferred = sites.remove(pos);
                let at = cap.saturating_sub(1).min(sites.len());
                sites.insert(at, preferred);
            }
        }
    }
    sites.truncate(cap);
    sites
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

/// Appends `snippet` at end-of-file of `rel`.
fn appended(corpus: &Corpus, rel: &str, snippet: &str) -> String {
    let src = &corpus.sources[rel];
    let mut out = String::with_capacity(src.len() + snippet.len() + 2);
    out.push_str(src);
    if !out.ends_with('\n') {
        out.push('\n');
    }
    out.push('\n');
    out.push_str(snippet);
    out.push('\n');
    out
}

/// Library files of the model crates that make good append targets:
/// deterministically ordered, skipping named export files (so D3 does
/// not co-fire on templates that are not about exports).
fn append_targets(corpus: &Corpus, crates: &[&str]) -> Vec<String> {
    let mut out: Vec<String> = corpus
        .files
        .iter()
        .filter(|f| {
            matches!(f.target, TargetKind::Lib)
                && crates.contains(&f.crate_name.as_str())
                && !f
                    .rel
                    .file_name()
                    .is_some_and(|n| D3_EXPORT_FILES.contains(&n.to_string_lossy().as_ref()))
        })
        .map(|f| slash_path(&f.rel))
        .collect();
    out.sort();
    out
}

/// Byte position just past the `{` of `struct sname`, in `file`.
fn struct_body_insert_at(file: &AnalyzedFile, sname: &str) -> Option<usize> {
    let toks = &file.lexed.tokens;
    let at = toks
        .windows(2)
        .position(|w| w[0].is_ident("struct") && w[1].is_ident(sname))?;
    let open = toks[at..].iter().position(|t| t.is_punct('{'))? + at;
    Some(toks[open].offset + toks[open].len)
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
/// per-rule cap (`--quick`: 2, full: 6) takes a stable prefix, with the
/// behavioral target `crates/sim/src/rng.rs` force-included for O1 so
/// static and behavioral stages probe the same mutants.
pub fn synthesize(corpus: &Corpus, quick: bool) -> Vec<Mutant> {
    let cap = if quick { QUICK_CAP } else { FULL_CAP };
    let mut out = Vec::new();
    synth_d3(corpus, cap, &mut out);
    synth_m1(corpus, cap, &mut out);
    synth_u1(corpus, cap, &mut out);
    synth_c1(corpus, cap, &mut out);
    synth_t1(corpus, cap, &mut out);
    synth_n1(corpus, cap, &mut out);
    synth_a1(corpus, cap, &mut out);
    synth_g1(corpus, cap, &mut out);
    synth_r2(corpus, cap, &mut out);
    synth_o1(corpus, cap, &mut out);
    out
}

fn fn_entry_mutants(
    corpus: &Corpus,
    out: &mut Vec<Mutant>,
    tpl: &'static MutationTemplate,
    sites: Vec<FnSite>,
    mut snippet_for: impl FnMut(&FnSite) -> String,
) {
    for site in sites {
        let snippet = snippet_for(&site);
        let text = spliced(corpus, &site.rel, site.insert_at, &snippet);
        out.push(Mutant {
            template: tpl,
            site: format!("{} fn {}", site.rel, site.fn_name),
            overlay: Overlay::single(&site.rel, text),
            behavioral: BEHAVIORAL_RULES.contains(&tpl.rule) && site.rel == BEHAVIORAL_REL,
        });
    }
}

fn synth_d3(corpus: &Corpus, cap: usize, out: &mut Vec<Mutant>) {
    let mut rels: Vec<String> = corpus
        .files
        .iter()
        .filter(|f| {
            matches!(f.target, TargetKind::Lib | TargetKind::Bin)
                && f.rel
                    .file_name()
                    .is_some_and(|n| D3_EXPORT_FILES.contains(&n.to_string_lossy().as_ref()))
        })
        .map(|f| slash_path(&f.rel))
        .collect();
    rels.sort();
    let tpl = template("d3-hash-in-export");
    let variants: &[(&str, &str)] = &[
        (
            "hashmap",
            "fn __mut_d3_index() -> std::collections::HashMap<u64, u64> {\n    std::collections::HashMap::new()\n}",
        ),
        (
            "hashset",
            "fn __mut_d3_seen() -> std::collections::HashSet<u64> {\n    std::collections::HashSet::new()\n}",
        ),
    ];
    let mut made = 0usize;
    'outer: for (vname, snippet) in variants {
        for rel in &rels {
            if made == cap {
                break 'outer;
            }
            out.push(Mutant {
                template: tpl,
                site: format!("{rel} ({vname})"),
                overlay: Overlay::single(rel, appended(corpus, rel, snippet)),
                behavioral: false,
            });
            made += 1;
        }
    }
}

fn synth_m1(corpus: &Corpus, cap: usize, out: &mut Vec<Mutant>) {
    let syms = build_symbols(&corpus.files);
    let Some(info) = syms.structs.get("TieringMetrics") else {
        return;
    };
    let file = &corpus.files[info.file];
    let rel = slash_path(&file.rel);
    let tpl = template("m1-dropped-counter");
    let mut made = 0usize;
    // Variant 1: a field merge() never mentions.
    if let Some(at) = struct_body_insert_at(file, "TieringMetrics") {
        out.push(Mutant {
            template: tpl,
            site: format!("{rel} field __mut_untracked_evictions"),
            overlay: Overlay::single(
                &rel,
                spliced(corpus, &rel, at, "    pub __mut_untracked_evictions: u64,"),
            ),
            behavioral: false,
        });
        made += 1;
    }
    // Variant 2: rename an existing field's mentions inside merge(),
    // so the original field silently stops being aggregated.
    let cg = CallGraph::build(&corpus.files);
    let merge = cg.fns.iter().find(|f| {
        f.item.name == "merge" && f.self_ty.as_deref() == Some("TieringMetrics") && !f.in_test
    });
    if let Some(merge) = merge {
        if let Some(body) = merge.item.body.as_ref() {
            let mfile = &corpus.files[merge.file];
            let mrel = slash_path(&mfile.rel);
            let toks = &mfile.lexed.tokens;
            for field in &info.fields {
                if made == cap {
                    break;
                }
                let hits: Vec<&crate::lexer::Token> = toks[body.span.lo..body.span.hi]
                    .iter()
                    .filter(|t| t.is_ident(&field.name))
                    .collect();
                if hits.is_empty() {
                    continue;
                }
                let src = &corpus.sources[&mrel];
                let mut text = src.clone();
                for t in hits.iter().rev() {
                    text.replace_range(t.offset..t.offset + t.len, "__mut_dropped");
                }
                out.push(Mutant {
                    template: tpl,
                    site: format!("{mrel} merge() drops {}", field.name),
                    overlay: Overlay::single(&mrel, text),
                    behavioral: false,
                });
                made += 1;
            }
        }
    }
}

fn synth_u1(corpus: &Corpus, cap: usize, out: &mut Vec<Mutant>) {
    let sites = pick_sites(fn_sites(corpus, ROOT_CRATES, None, false), cap, None);
    fn_entry_mutants(corpus, out, template("u1-mixed-units"), sites, |_| {
        "        let mut __mut_total_ns: u64 = 0;\n\
         \x20       let __mut_gap_us: u64 = 3;\n\
         \x20       __mut_total_ns += __mut_gap_us;\n\
         \x20       let _ = __mut_total_ns;"
            .to_string()
    });
}

fn synth_c1(corpus: &Corpus, cap: usize, out: &mut Vec<Mutant>) {
    let syms = build_symbols(&corpus.files);
    let tpl = template("c1-dead-knob");
    let mut made = 0usize;
    for sname in C1_STRUCTS {
        if made == cap {
            break;
        }
        let Some(info) = syms.structs.get(*sname) else {
            continue;
        };
        let file = &corpus.files[info.file];
        let Some(at) = struct_body_insert_at(file, sname) else {
            continue;
        };
        let rel = slash_path(&file.rel);
        out.push(Mutant {
            template: tpl,
            site: format!("{rel} {sname}.__mut_dead_knob"),
            overlay: Overlay::single(
                &rel,
                spliced(corpus, &rel, at, "    pub __mut_dead_knob: u64,"),
            ),
            behavioral: false,
        });
        made += 1;
    }
}

fn synth_t1(corpus: &Corpus, cap: usize, out: &mut Vec<Mutant>) {
    use crate::rules::{T1_ANALYSIS_CRATE, T1_EMITTER_CRATES};
    let syms = build_symbols(&corpus.files);
    let Some(variants) = syms.enums.get("TraceEvent") else {
        return;
    };
    // A variant is mutable when it is both emitted (mentioned in an
    // emitter crate) and handled (mentioned in crates/analysis):
    // renaming its analysis mentions makes it emitted-but-unhandled.
    let mention_files = |crate_pred: &dyn Fn(&AnalyzedFile) -> bool, v: &str| -> Vec<usize> {
        let mut hits = Vec::new();
        for (fi, f) in corpus.files.iter().enumerate() {
            if !crate_pred(f) || !matches!(f.target, TargetKind::Lib | TargetKind::Bin) {
                continue;
            }
            let toks = &f.lexed.tokens;
            for w in toks.windows(4) {
                if w[0].is_ident("TraceEvent")
                    && w[1].is_punct(':')
                    && w[2].is_punct(':')
                    && w[3].is_ident(v)
                {
                    hits.push(fi);
                    break;
                }
            }
        }
        hits
    };
    let is_emitter = |f: &AnalyzedFile| T1_EMITTER_CRATES.contains(&f.crate_name.as_str());
    let is_analysis = |f: &AnalyzedFile| f.crate_name == T1_ANALYSIS_CRATE;
    let tpl = template("t1-wildcard-swallow");
    let mut made = 0usize;
    for v in variants {
        if made == cap {
            break;
        }
        if mention_files(&is_emitter, v).is_empty() {
            continue;
        }
        let handled_in = mention_files(&is_analysis, v);
        if handled_in.is_empty() {
            continue;
        }
        let mut overlay = Overlay::default();
        for fi in handled_in {
            let f = &corpus.files[fi];
            let rel = slash_path(&f.rel);
            let toks = &f.lexed.tokens;
            let mut text = corpus.sources[&rel].clone();
            let mut renames: Vec<(usize, usize)> = Vec::new();
            for (i, w) in toks.windows(4).enumerate() {
                if w[0].is_ident("TraceEvent")
                    && w[1].is_punct(':')
                    && w[2].is_punct(':')
                    && w[3].is_ident(v)
                {
                    renames.push((toks[i + 3].offset, toks[i + 3].len));
                }
            }
            for (offset, len) in renames.iter().rev() {
                text.replace_range(*offset..*offset + *len, "__MutUnhandled");
            }
            overlay.files.insert(rel, text);
        }
        out.push(Mutant {
            template: tpl,
            site: format!("TraceEvent::{v} unhandled in crates/analysis"),
            overlay,
            behavioral: false,
        });
        made += 1;
    }
}

fn synth_n1(corpus: &Corpus, cap: usize, out: &mut Vec<Mutant>) {
    let targets = append_targets(corpus, R2_CRATES);
    let tpl = template("n1-hash-order-export");
    let one_hop = "\
use std::collections::HashMap;

pub struct __MutN1Sink;

impl __MutN1Sink {
    pub fn emit(&self, row: u64) {
        let _ = row;
    }
}

pub fn __mut_n1_leak(sink: &__MutN1Sink, m: HashMap<u64, u64>) {
    for __mut_page in m.keys() {
        sink.emit(*__mut_page);
    }
}";
    let two_hop = "\
use std::collections::HashMap;

pub struct __MutN1Relay;

impl __MutN1Relay {
    pub fn to_jsonl(&self, row: u64) {
        let _ = row;
    }
}

fn __mut_n1_relay(sink: &__MutN1Relay, row: u64) {
    __mut_n1_forward(sink, row);
}

fn __mut_n1_forward(sink: &__MutN1Relay, row: u64) {
    sink.to_jsonl(row);
}

pub fn __mut_n1_export(sink: &__MutN1Relay, m: HashMap<u64, u64>) {
    for __mut_key in m.keys() {
        __mut_n1_relay(sink, *__mut_key);
    }
}";
    for (i, rel) in targets.iter().enumerate().take(cap) {
        let (vname, snippet) = if i % 2 == 0 {
            ("one-hop", one_hop)
        } else {
            ("two-hop", two_hop)
        };
        out.push(Mutant {
            template: tpl,
            site: format!("{rel} ({vname})"),
            overlay: Overlay::single(rel, appended(corpus, rel, snippet)),
            behavioral: false,
        });
    }
}

fn synth_a1(corpus: &Corpus, cap: usize, out: &mut Vec<Mutant>) {
    let sites = pick_sites(
        fn_sites(corpus, ROOT_CRATES, Some(PER_EVENT_ROOTS), false),
        cap,
        None,
    );
    fn_entry_mutants(corpus, out, template("a1-hot-loop-alloc"), sites, |_| {
        "        let __mut_scratch: Vec<u64> = Vec::new();\n        drop(__mut_scratch);"
            .to_string()
    });
}

fn synth_g1(corpus: &Corpus, cap: usize, out: &mut Vec<Mutant>) {
    let targets = append_targets(corpus, R2_CRATES);
    let tpl = template("g1-static-mut");
    for rel in targets.iter().take(cap) {
        out.push(Mutant {
            template: tpl,
            site: format!("{rel} static mut __MUT_EVENT_SEQ"),
            overlay: Overlay::single(
                rel,
                appended(corpus, rel, "static mut __MUT_EVENT_SEQ: u64 = 0;"),
            ),
            behavioral: false,
        });
    }
}

fn synth_r2(corpus: &Corpus, cap: usize, out: &mut Vec<Mutant>) {
    let targets = append_targets(corpus, R2_CRATES);
    let tpl = template("r2-new-cell-field");
    let sync_variant = "\
pub struct __MutSharedFit {
    pub samples: u64,
    __mut_inner: std::sync::Arc<std::sync::Mutex<f64>>,
}";
    let cold_cell_variant = "\
pub struct __MutColdModel {
    pub samples: u64,
    __mut_cell: std::cell::RefCell<u64>,
}";
    for (i, rel) in targets.iter().take(cap).enumerate() {
        let (vname, snippet) = if i % 2 == 0 {
            ("arc-mutex", sync_variant)
        } else {
            ("cold-refcell", cold_cell_variant)
        };
        out.push(Mutant {
            template: tpl,
            site: format!("{rel} ({vname})"),
            overlay: Overlay::single(rel, appended(corpus, rel, snippet)),
            behavioral: false,
        });
    }
}

fn synth_o1(corpus: &Corpus, cap: usize, out: &mut Vec<Mutant>) {
    let sites = pick_sites(
        fn_sites(corpus, O1_CRATES, None, true),
        cap,
        Some(BEHAVIORAL_REL),
    );
    fn_entry_mutants(corpus, out, template("o1-hash-float-fold"), sites, |s| {
        let p = s.first_u64_param.as_deref().unwrap_or("_");
        format!(
            "        let mut __mut_m: std::collections::HashMap<u64, f64> =\n\
             \x20           std::collections::HashMap::new();\n\
             \x20       let mut __mut_i: u64 = 0;\n\
             \x20       while __mut_i < 16 {{\n\
             \x20           __mut_m.insert({p} ^ __mut_i, (__mut_i as f64) * 0.5 + 1.25);\n\
             \x20           __mut_i += 1;\n\
             \x20       }}\n\
             \x20       let mut __mut_acc: f64 = 0.0;\n\
             \x20       for __mut_v in __mut_m.values() {{\n\
             \x20           __mut_acc += *__mut_v + __mut_acc * 0.25;\n\
             \x20       }}\n\
             \x20       let {p} = {p} ^ __mut_acc.to_bits();"
        )
    });
}

// ------------------------------------------------------------------
// Static stage
// ------------------------------------------------------------------

/// Runs the static stage: baseline-clean assertion, mutant synthesis,
/// and one cold overlay lint run per mutant.
///
/// # Errors
///
/// Returns a message when the pristine workspace is not deny-clean
/// (recall over a dirty baseline would be meaningless).
pub fn run_static(corpus: &Corpus, quick: bool) -> Result<RecallReport, String> {
    let config = Config::default();
    let baseline = lint_files(&corpus.files, &config);
    if !baseline.report.findings.is_empty() {
        let mut msg = String::from("pristine workspace is not deny-clean; fix before measuring:");
        for f in baseline.report.findings.iter().take(5) {
            let _ = write!(msg, "\n  {} {}:{}", f.rule, f.file.display(), f.line);
        }
        return Err(msg);
    }
    let mutants = synthesize(corpus, quick);
    let mut outcomes = Vec::with_capacity(mutants.len());
    for m in &mutants {
        let files = apply_overlay(&corpus.files, &m.overlay);
        let run = lint_files(&files, &config);
        let fired: BTreeSet<&'static str> = run.report.findings.iter().map(|f| f.rule).collect();
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
            behavioral: m.behavioral,
        });
    }
    Ok(RecallReport {
        mode: if quick { "quick" } else { "full" },
        workspace_clean: true,
        mutants: outcomes,
        behavioral: None,
    })
}

// ------------------------------------------------------------------
// Behavioral stage
// ------------------------------------------------------------------

fn copy_tree(from: &Path, to: &Path) -> io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        let name = entry.file_name();
        if name == "target" || name == ".git" {
            continue;
        }
        let src = entry.path();
        let dst = to.join(&name);
        if entry.file_type()?.is_dir() {
            copy_tree(&src, &dst)?;
        } else {
            fs::copy(&src, &dst)?;
        }
    }
    Ok(())
}

/// The seeded replay the behavioral stage runs twice per mutant. Every
/// random draw flows through `gmt_sim::rng::{seeded, derive}` — the
/// functions the behavioral mutants rewrite — so injected hash-order
/// entropy must surface in the trace bytes.
const PROBE_SOURCE: &str = r#"//! Behavioral probe for the gmt-mutate harness: replays a short seeded
//! event schedule twice and reports whether the traces are identical.

use gmt_sim::events::EventQueue;
use gmt_sim::rng::{derive, seeded};
use gmt_sim::trace::{to_jsonl, TraceEvent, TraceSink};
use gmt_sim::{Dur, Time};
use rand::Rng;

fn replay() -> String {
    let mut rng = seeded(0xC0FF_EE00);
    let sink = TraceSink::bounded(4096);
    let mut q: EventQueue<u64> = EventQueue::new();
    for page in 0..64u64 {
        let delay: u64 = rng.gen_range(1..1_000_000);
        q.schedule(Time::ZERO + Dur::from_nanos(delay), page);
    }
    while let Some((at, page)) = q.pop() {
        sink.set_vt(at.as_nanos());
        let stream = derive(0xC0FF_EE00, page);
        sink.emit(at, TraceEvent::Tier1Hit { page: page ^ (stream & 0xff) });
    }
    to_jsonl(&sink.drain())
}

fn main() {
    let a = replay();
    let b = replay();
    if a == b {
        println!("GMT_MUTPROBE IDENTICAL");
    } else {
        println!("GMT_MUTPROBE DIVERGED");
    }
}
"#;

fn run_probe(scratch: &Path) -> Result<bool, String> {
    let out = Command::new("cargo")
        .args([
            "run",
            "--quiet",
            "--offline",
            "-p",
            "gmt-sim",
            "--example",
            "mutprobe",
        ])
        .current_dir(scratch)
        .output()
        .map_err(|e| format!("spawning cargo failed: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if stdout.contains("GMT_MUTPROBE DIVERGED") {
        return Ok(true);
    }
    if stdout.contains("GMT_MUTPROBE IDENTICAL") {
        return Ok(false);
    }
    let stderr = String::from_utf8_lossy(&out.stderr);
    let tail: String = stderr
        .lines()
        .rev()
        .take(12)
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect::<Vec<_>>()
        .join("\n");
    Err(format!("probe produced no verdict; cargo said:\n{tail}"))
}

/// Runs the behavioral cross-validation stage over the behavioral
/// mutants in `mutants`.
///
/// Builds a scratch copy of the workspace under
/// `target/gmt-mutate/scratch` (never a tracked path), adds a probe
/// example to `crates/sim`, verifies the pristine copy replays
/// bit-identically, then applies each O1 behavioral mutant in turn and
/// requires the probe to diverge.
///
/// # Errors
///
/// Returns a message when the scratch copy cannot be built or a probe
/// run yields no verdict (e.g. the mutant failed to compile).
pub fn run_behavioral(corpus: &Corpus, mutants: &[Mutant]) -> Result<BehavioralReport, String> {
    let scratch = corpus
        .root
        .join("target")
        .join("gmt-mutate")
        .join("scratch");
    if scratch.exists() {
        fs::remove_dir_all(&scratch).map_err(|e| format!("clearing scratch: {e}"))?;
    }
    fs::create_dir_all(&scratch).map_err(|e| format!("creating scratch: {e}"))?;
    for top in ["Cargo.toml", "Cargo.lock"] {
        fs::copy(corpus.root.join(top), scratch.join(top))
            .map_err(|e| format!("copying {top}: {e}"))?;
    }
    for dir in ["src", "crates", "vendor"] {
        copy_tree(&corpus.root.join(dir), &scratch.join(dir))
            .map_err(|e| format!("copying {dir}/: {e}"))?;
    }
    let examples = scratch.join("crates").join("sim").join("examples");
    fs::create_dir_all(&examples).map_err(|e| format!("creating examples/: {e}"))?;
    fs::write(examples.join("mutprobe.rs"), PROBE_SOURCE)
        .map_err(|e| format!("writing probe: {e}"))?;
    let control_identical = !run_probe(&scratch)?;
    let target_abs = scratch.join(BEHAVIORAL_REL);
    let pristine = corpus
        .sources
        .get(BEHAVIORAL_REL)
        .ok_or("behavioral target missing from corpus")?;
    let mut probes = Vec::new();
    for m in mutants.iter().filter(|m| m.behavioral) {
        let Some(text) = m.overlay.files.get(BEHAVIORAL_REL) else {
            continue;
        };
        fs::write(&target_abs, text).map_err(|e| format!("applying mutant: {e}"))?;
        let diverged = run_probe(&scratch);
        fs::write(&target_abs, pristine).map_err(|e| format!("restoring pristine: {e}"))?;
        probes.push(ProbeOutcome {
            rule: m.template.rule,
            template: m.template.name,
            site: m.site.clone(),
            diverged: diverged?,
        });
    }
    let vacuous_rules = BEHAVIORAL_RULES
        .iter()
        .copied()
        .filter(|r| !probes.iter().any(|p| p.rule == *r && p.diverged))
        .collect();
    Ok(BehavioralReport {
        control_identical,
        probes,
        vacuous_rules,
    })
}

/// Runs the whole harness: static stage, plus the behavioral stage in
/// full mode when `behavioral` is set.
///
/// # Errors
///
/// Propagates [`run_static`] / [`run_behavioral`] errors.
pub fn run(root: &Path, quick: bool, behavioral: bool) -> Result<RecallReport, String> {
    let corpus = load_corpus(root).map_err(|e| format!("loading workspace: {e}"))?;
    let mut report = run_static(&corpus, quick)?;
    if behavioral && !quick {
        let mutants = synthesize(&corpus, quick);
        report.behavioral = Some(run_behavioral(&corpus, &mutants)?);
    }
    Ok(report)
}

/// Usage text for the `gmt-mutate` CLI (also `gmt-lint mutate`).
pub const USAGE: &str = "\
gmt-mutate — mutation-injection recall harness for the gmt-lint rule set

USAGE:
    gmt-mutate [OPTIONS]            (also: gmt-lint mutate [OPTIONS])

OPTIONS:
    --root <PATH>       Workspace root (default: nearest [workspace] above cwd)
    --quick             Small mutant matrix (2/rule), skip the behavioral stage
    --check             Exit non-zero unless every recall floor holds (and, in
                        full mode, every deny rule has at least 5 mutants)
    --out <PATH>        Write the gmt-lint-recall/1 report to PATH
    --no-behavioral     Skip the behavioral cross-validation stage
    -h, --help          Print this help

Synthesizes known-bad variants of real workspace files (hash-order
exports, float folds, new cells, dropped counters, ...), lints each one
through an in-memory overlay — mutant source is never written into src/ —
and reports per-rule recall. Deny rules are pinned at a 100% floor. In
full mode, O1 mutants are additionally applied to a scratch copy under
target/gmt-mutate/ and replayed twice with the same seed: the traces must
diverge, or the rule is flagged as vacuous.

EXIT CODES:
    0  harness ran (and, with --check, every gate held)
    1  --check failed: recall or mutant floor missed, control run
       diverged, or a behavioral rule proved vacuous
    2  usage or I/O error";

/// Parses `args` (everything after the program / subcommand name) and
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
    let mut quick = false;
    let mut check = false;
    let mut behavioral = true;
    let mut out_path: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                root = Some(PathBuf::from(it.next().ok_or("--root needs a path")?));
            }
            "--quick" => quick = true,
            "--check" => check = true,
            "--no-behavioral" => behavioral = false,
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
    let report = run(&root, quick, behavioral)?;
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
    if let Some(b) = &report.behavioral {
        eprintln!(
            "gmt-mutate: behavioral control {}, {} probe(s), {} diverged",
            if b.control_identical {
                "identical"
            } else {
                "DIVERGED"
            },
            b.probes.len(),
            b.probes.iter().filter(|p| p.diverged).count()
        );
    }
    eprintln!("gmt-mutate: completed in {:?}", started.elapsed());
    if check && !report.ok() {
        eprintln!("gmt-mutate: recall gate FAILED (see report)");
        return Ok(false);
    }
    Ok(true)
}
