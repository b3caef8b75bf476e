//! The `gmt-mutate` binary: mutation-injection recall harness for the
//! gmt-lint rule set. See [`gmt_lint::mutate`] for the methodology.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match gmt_lint::mutate::cli_main(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(err) => {
            eprintln!("gmt-mutate: error: {err}");
            ExitCode::from(2)
        }
    }
}
