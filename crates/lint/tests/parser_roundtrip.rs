//! Parser round-trip property test over the real workspace.
//!
//! For every `.rs` file gmt-lint analyzes, parse the token stream into
//! the AST, pretty-print it back out, re-lex the printed source, and
//! assert token-stream equality with the original. Because the printer
//! only emits tokens the AST's spans own (plus parent gap tokens), the
//! round trip proves the AST loses nothing the token-level rules relied
//! on — a span bug would drop or duplicate tokens and fail here.

use gmt_lint::ast::print_file;
use gmt_lint::lexer::lex;
use gmt_lint::parser::parse_file;
use gmt_lint::workspace::{find_root, workspace_files};

#[test]
fn every_workspace_file_round_trips_token_for_token() {
    let root = find_root(&std::env::current_dir().expect("cwd")).expect("workspace root");
    let files = workspace_files(&root).expect("workspace walk");
    assert!(
        files.len() >= 130,
        "suspiciously few files: {}",
        files.len()
    );

    let mut checked = 0usize;
    for sf in &files {
        let source = std::fs::read_to_string(&sf.abs).expect("read source");
        let tokens = lex(&source);
        let file = parse_file(&tokens);
        let printed = print_file(&file, &tokens);
        let relexed = lex(&printed);

        assert_eq!(
            tokens.len(),
            relexed.len(),
            "{}: token count drifted {} -> {}",
            sf.rel.display(),
            tokens.len(),
            relexed.len()
        );
        for (i, (a, b)) in tokens.iter().zip(relexed.iter()).enumerate() {
            assert_eq!(
                (a.kind, &a.text),
                (b.kind, &b.text),
                "{}: token {} diverged near line {}",
                sf.rel.display(),
                i,
                a.line
            );
        }
        checked += 1;
    }
    assert!(checked >= 130, "round-tripped only {checked} files");
}
