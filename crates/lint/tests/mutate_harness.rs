//! Integration checks for the gmt-mutate mutation-injection harness:
//! the synthesized matrix covers every rule at the depth the recall
//! gate needs, overlays only rewrite real workspace files, and a
//! representative slice of mutants is actually caught end-to-end
//! through the in-memory overlay. The full matrix (and the behavioral
//! replay stage) runs as the CI `gmt-mutate` job, not here — this suite
//! stays inside the regular test budget.

use std::path::PathBuf;

use gmt_lint::engine::{apply_overlay, lint_files};
use gmt_lint::mutate::{load_corpus, synthesize};
use gmt_lint::{Config, RULES};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels under the root")
        .to_path_buf()
}

#[test]
fn full_matrix_covers_every_rule_with_a_behavioral_o1_probe() {
    let corpus = load_corpus(&repo_root()).expect("workspace loads");
    let mutants = synthesize(&corpus, false);
    for r in RULES {
        let n = mutants.iter().filter(|m| m.template.rule == r.id).count();
        assert!(n >= 1, "rule {} has no mutants in the full matrix", r.id);
    }
    // The acceptance floor: the nondeterminism and shared-state deny
    // rules each get at least five mutants.
    for id in ["N1", "O1", "R2"] {
        let n = mutants.iter().filter(|m| m.template.rule == id).count();
        assert!(n >= 5, "deny rule {id} needs >= 5 mutants, got {n}");
    }
    // O1 must carry a behavioral probe so the replay stage can prove its
    // mutants actually diverge.
    assert!(
        mutants
            .iter()
            .any(|m| m.template.rule == "O1" && m.behavioral),
        "O1 has no behavioral probe"
    );
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
    let config = Config::default();
    let baseline = lint_files(&corpus.files, &config);
    assert!(
        baseline.report.findings.is_empty(),
        "recall over a dirty baseline is meaningless: {:#?}",
        baseline.report.findings
    );
    let mutants = synthesize(&corpus, true);
    // One of each synthesis mechanism: function-entry injection (U1),
    // end-of-file append with an interprocedural chain (N1), and a
    // multi-file token rename (T1).
    for id in ["U1", "N1", "T1"] {
        let m = mutants
            .iter()
            .find(|m| m.template.rule == id)
            .unwrap_or_else(|| panic!("no {id} mutant in the quick matrix"));
        let files = apply_overlay(&corpus.files, &m.overlay);
        let run = lint_files(&files, &config);
        assert!(
            run.report.findings.iter().any(|f| f.rule == id),
            "{} escaped: {} mutant at {} produced {:#?}",
            id,
            m.template.name,
            m.site,
            run.report.findings
        );
    }
}
