//! The `gmt-lint` binary: lints the workspace and exits non-zero when a
//! finding survives.

use std::env;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use gmt_lint::RULES;

const USAGE: &str = "\
gmt-lint — determinism, tiering and export invariants for the GMT workspace

USAGE:
    gmt-lint [OPTIONS]

OPTIONS:
    --root <PATH>           Workspace root (default: nearest [workspace] above cwd)
    --format <FMT>          Output format: text (default) or json
    --max-millis <N>        Fail (exit 2) if the lint pass itself exceeds N ms
    --list-rules            Print the rule table and exit
    -h, --help              Print this help

Every rule runs at deny level: any finding fails the run, and no comment
silences one.

EXIT CODES:
    0  no findings        1  findings
    2  usage or I/O error, or the --max-millis budget was exceeded";

fn main() -> ExitCode {
    match run() {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(err) => {
            eprintln!("gmt-lint: error: {err}");
            ExitCode::from(2)
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Json,
}

fn run() -> Result<bool, String> {
    let mut root: Option<PathBuf> = None;
    let mut format = Format::Text;
    let mut max_millis: Option<u64> = None;

    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                root = Some(PathBuf::from(args.next().ok_or("--root needs a path")?));
            }
            "--format" => {
                format = match args.next().as_deref() {
                    Some("json") => Format::Json,
                    Some("text") => Format::Text,
                    other => return Err(format!("unknown format {other:?} (text|json)")),
                };
            }
            "--max-millis" => {
                let n = args.next().ok_or("--max-millis needs a number")?;
                max_millis = Some(
                    n.parse::<u64>()
                        .map_err(|_| format!("--max-millis: `{n}` is not a number"))?,
                );
            }
            "--list-rules" => {
                for r in RULES {
                    println!("{:<3} {:<25} deny  {}", r.id, r.name, r.summary);
                }
                return Ok(true);
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
            let cwd = env::current_dir().map_err(|e| e.to_string())?;
            gmt_lint::workspace::find_root(&cwd)
                .ok_or("no [workspace] Cargo.toml above the current directory")?
        }
    };

    let started = Instant::now();
    let report = gmt_lint::lint_workspace(&root).map_err(|e| e.to_string())?;
    let elapsed = started.elapsed();
    match format {
        Format::Json => println!("{}", report.render_json()),
        Format::Text => {
            println!("{}", report.render_text());
            eprintln!("gmt-lint: completed in {elapsed:?}");
        }
    }
    if let Some(budget) = max_millis {
        if elapsed.as_millis() > u128::from(budget) {
            return Err(format!(
                "lint pass took {elapsed:?}, over the --max-millis {budget} budget"
            ));
        }
    }
    Ok(report.is_clean())
}
