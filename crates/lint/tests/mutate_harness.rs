//! Integration checks for the gmt-mutate mutation-injection harness:
//! the synthesized matrix covers every rule at the depth the recall
//! gate needs, overlays only rewrite real workspace files, and a
//! representative slice of mutants is actually caught end-to-end
//! through the in-memory overlay. The recall gate itself runs as the CI
//! `lint-recall` job, not here — this suite stays inside the regular
//! test budget.

use std::path::PathBuf;

use gmt_lint::engine::{apply_overlay, lint_files};
use gmt_lint::mutate::{load_corpus, synthesize};
use gmt_lint::RULES;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels under the root")
        .to_path_buf()
}

#[test]
fn full_matrix_covers_every_rule_at_the_mutant_floor() {
    let corpus = load_corpus(&repo_root()).expect("workspace loads");
    let mutants = synthesize(&corpus);
    for r in RULES {
        let n = mutants.iter().filter(|m| m.template.rule == r.id).count();
        assert!(n >= 1, "rule {} has no mutants in the full matrix", r.id);
    }
    // The acceptance floor: every rule gets at least five mutants.
    for id in ["U1", "A1"] {
        let n = mutants.iter().filter(|m| m.template.rule == id).count();
        assert!(n >= 5, "rule {id} needs >= 5 mutants, got {n}");
    }
    // Overlays only replace files that exist in the workspace, and
    // always with changed text — mutants never invent paths or no-op.
    for m in &mutants {
        assert!(!m.overlay.files.is_empty(), "{}: empty overlay", m.site);
        for (rel, text) in &m.overlay.files {
            let pristine = corpus
                .sources
                .get(rel)
                .unwrap_or_else(|| panic!("{}: {rel} is not a workspace file", m.site));
            assert_ne!(text, pristine, "{}: no-op mutation of {rel}", m.site);
        }
    }
}

#[test]
fn representative_mutants_are_caught_through_the_overlay() {
    let corpus = load_corpus(&repo_root()).expect("workspace loads");
    let baseline = lint_files(&corpus.files);
    assert!(
        baseline.is_clean(),
        "recall over a dirty baseline is meaningless: {:#?}",
        baseline.findings
    );
    let mutants = synthesize(&corpus);
    // One mutant per rule: function-entry injection checked by the AST
    // walker (U1) and by the call-graph hot set (A1).
    for id in ["U1", "A1"] {
        let m = mutants
            .iter()
            .find(|m| m.template.rule == id)
            .unwrap_or_else(|| panic!("no {id} mutant in the matrix"));
        let files = apply_overlay(&corpus.files, &m.overlay);
        let report = lint_files(&files);
        assert!(
            report.findings.iter().any(|f| f.rule == id),
            "{} escaped: {} mutant at {} produced {:#?}",
            id,
            m.template.name,
            m.site,
            report.findings
        );
    }
}
