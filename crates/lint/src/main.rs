//! The `gmt-lint` binary: lints the workspace and exits non-zero when a
//! deny-level finding survives.

use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use gmt_lint::rules::rule;
use gmt_lint::symbols::build_symbols;
use gmt_lint::{fix, Config, Level, Report, RULES};

const USAGE: &str = "\
gmt-lint — determinism, tiering and export invariants for the GMT workspace

USAGE:
    gmt-lint [OPTIONS]

OPTIONS:
    --root <PATH>           Workspace root (default: nearest [workspace] above cwd)
    --format <FMT>          Output format: text (default) or json
    --fix                   Apply the safe U1 rewrites, then re-lint
    --allow <RULE>          Run RULE (or `all`) at allow level (repeatable)
    --warn <RULE>           Run RULE (or `all`) at warn level (repeatable)
    --deny <RULE>           Run RULE (or `all`) at deny level (repeatable)
    --max-millis <N>        Fail (exit 2) if the lint pass itself exceeds N ms
    --timings               Report per-rule wall time on stderr
    --include-vendor        Also lint vendor/* stub crates
    --list-rules            Print the rule table and exit
    -h, --help              Print this help

EXIT CODES:
    0  no deny-level findings        1  deny-level findings
    2  usage or I/O error, or the --max-millis budget was exceeded

Suppress a single line with `// gmt-lint: allow(<RULE>): reason`, either
trailing the offending line or on the line directly above it.";

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
    let mut config = Config::default();
    let mut root: Option<PathBuf> = None;
    let mut format = Format::Text;
    let mut apply_fix = false;
    let mut include_vendor = false;
    let mut max_millis: Option<u64> = None;
    let mut show_timings = false;

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
            "--fix" => apply_fix = true,
            "--allow" | "--warn" | "--deny" => {
                let level = Level::parse(&arg[2..]).expect("flag names are levels");
                let id = args
                    .next()
                    .ok_or_else(|| format!("{arg} needs a rule id"))?;
                if id == "all" {
                    for r in RULES {
                        config.overrides.insert(r.id.to_string(), level);
                    }
                } else if rule(&id).is_some() {
                    config.overrides.insert(id, level);
                } else {
                    return Err(format!("unknown rule `{id}` (try --list-rules)"));
                }
            }
            "--max-millis" => {
                let n = args.next().ok_or("--max-millis needs a number")?;
                max_millis = Some(
                    n.parse::<u64>()
                        .map_err(|_| format!("--max-millis: `{n}` is not a number"))?,
                );
            }
            "--timings" => show_timings = true,
            "--include-vendor" => include_vendor = true,
            "--list-rules" => {
                for r in RULES {
                    println!(
                        "{:<3} {:<25} {:<5} {}",
                        r.id, r.name, r.default_level, r.summary
                    );
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
    let mut files =
        gmt_lint::engine::load_workspace(&root, include_vendor).map_err(|e| e.to_string())?;
    let mut run = gmt_lint::engine::lint_files(&files, &config);

    if apply_fix {
        let fixed_files = apply_fixes(&root, &files, &run.report, &config)?;
        if fixed_files > 0 {
            eprintln!(
                "gmt-lint: rewrote {fixed_files} file(s) for U1; \
                 re-linting (run `cargo build` to confirm the rewrite compiles)"
            );
            files = gmt_lint::engine::load_workspace(&root, include_vendor)
                .map_err(|e| e.to_string())?;
            run = gmt_lint::engine::lint_files(&files, &config);
        }
    }
    let (report, timings) = (run.report, run.timings);

    let elapsed = started.elapsed();
    if show_timings {
        let mut by_cost = timings.clone();
        by_cost.sort_by_key(|&(_, d)| std::cmp::Reverse(d));
        eprintln!("gmt-lint: per-rule wall time (total {elapsed:?}):");
        for (name, d) in &by_cost {
            eprintln!("  {name:<10} {:>9.3}ms", d.as_secs_f64() * 1e3);
        }
    }
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
    Ok(!report.has_deny())
}

/// Applies the U1 rewrites to every file the report flags.
fn apply_fixes(
    root: &std::path::Path,
    files: &[gmt_lint::symbols::AnalyzedFile],
    report: &Report,
    config: &Config,
) -> Result<usize, String> {
    let syms = build_symbols(files);
    let mut flagged: Vec<PathBuf> = report
        .findings
        .iter()
        .filter(|f| f.rule == "U1")
        .map(|f| f.file.clone())
        .collect();
    flagged.sort();
    flagged.dedup();
    let mut fixed_files = 0usize;
    for rel in flagged {
        let abs = root.join(&rel);
        let source = fs::read_to_string(&abs).map_err(|e| e.to_string())?;
        let Some(file) = files.iter().find(|f| f.rel == rel) else {
            continue;
        };
        if let Some(text) = fix::fix_to_fixpoint(&source, file, &syms, config) {
            fs::write(&abs, text).map_err(|e| e.to_string())?;
            fixed_files += 1;
        }
    }
    Ok(fixed_files)
}
