//! End-to-end benchmark of the GMT reproduction.
//!
//! One command per workload, from the repository root:
//!
//! ```sh
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload gmt_replay --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with every clock outside the
//! measured code. `--trace 1` re-executes the workload with host-time
//! wrappers around each layer's public entry points and prints the
//! per-layer metrics. Either way the last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`, and the
//! exit code is non-zero when an output check failed.
//!
//! `--emit-reference` prints the simulated statistics the output check
//! compares against, in the format of `reference.txt`.
//!
//! See `README.md` for the workloads, the metrics and what moves them.

mod check;
mod metrics;
mod replay;
mod serve;

use std::process::ExitCode;

use check::Tally;
use metrics::Metrics;
use replay::Suite;

const USAGE: &str = "usage: gmt-e2ebench --workload <paper_suite|gmt_replay|serve_frontend> \
                     [--seed N] [--seconds S] [--trace 0|1] [--emit-reference]";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Replay(Suite),
    ServeFrontend,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "paper_suite" => Some(Workload::Replay(Suite::Paper)),
            "gmt_replay" => Some(Workload::Replay(Suite::GmtOnly)),
            "serve_frontend" => Some(Workload::ServeFrontend),
            _ => None,
        }
    }

    fn run(self, plan: &Plan) -> Outcome {
        match self {
            Workload::Replay(suite) => replay::run(suite, plan),
            Workload::ServeFrontend => serve::run(plan),
        }
    }
}

/// How one invocation runs its workload.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Seed of every seeded input.
    pub seed: u64,
    /// Host seconds the measured passes should last (each workload also
    /// has a minimum pass count).
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Small inputs for the benchmark's own tests; the reference is not
    /// consulted.
    pub quick: bool,
}

/// What one workload run produced.
pub struct Outcome {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Measured values.
    pub metrics: Metrics,
    /// The first pass's checked outputs as `label fields` lines.
    pub reference: Vec<String>,
}

struct Args {
    workload: Workload,
    plan: Plan,
    emit_reference: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut plan = Plan {
        seed: check::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        quick: false,
    };
    let mut emit_reference = false;
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => {
                plan.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                plan.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                plan.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                };
            }
            "--emit-reference" => emit_reference = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        plan,
        emit_reference,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("every tier starts empty; each workload runs in its own process");
    let outcome = args.workload.run(&args.plan);
    if args.emit_reference {
        let name = match args.workload {
            Workload::Replay(suite) => suite.name(),
            Workload::ServeFrontend => "serve_frontend",
        };
        for line in &outcome.reference {
            eprintln!("{name} {line}");
        }
    }
    let table = if args.plan.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let tally = &outcome.tally;
    for why in &tally.reasons {
        println!("FAILED {why}");
    }
    println!(
        "attempted {} failed {}; peak resident memory {:.1} MiB",
        tally.attempted,
        tally.failed,
        metrics::peak_rss_mib()
    );
    outcome.metrics.print(table);
    println!("{}", outcome.metrics.result_json(table, tally));
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64, trace: bool, quick: bool) -> Plan {
        Plan {
            seed,
            seconds: 0.0,
            trace,
            quick,
        }
    }

    fn assert_clean(outcome: &Outcome) {
        let t = &outcome.tally;
        assert!(t.attempted > 0);
        assert_eq!(t.failed, 0, "failures: {:?}", t.reasons);
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_refused() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = args("--workload serve_frontend --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::ServeFrontend);
        assert_eq!((a.plan.seed, a.plan.seconds, a.plan.trace), (7, 3.0, true));
        assert!(args("--workload nope").is_err());
        assert!(args("--workload gmt_replay --trace 2").is_err());
        assert!(args("--seed 1").is_err());
    }

    /// A held-out seed at full scale: the five seed-free applications must
    /// still match the committed reference, and the traced and counting
    /// passes must reproduce the untraced one.
    #[test]
    fn gmt_replay_second_seed_has_no_failures() {
        let outcome = Workload::Replay(Suite::GmtOnly).run(&plan(2, true, false));
        assert_clean(&outcome);
        let m = &outcome.metrics;
        assert!(m.get("core.access_s").unwrap() > 0.0);
        assert!(m.get("pcie.batches").unwrap() > 0.0);
        assert!(m.get("ssd.queue_depth_p99").unwrap() > 0.0);
        assert!(m.get("bench.span_coverage_frac").unwrap() >= 0.9);
    }

    #[test]
    fn paper_suite_traced_passes_reproduce_run_system() {
        let outcome = Workload::Replay(Suite::Paper).run(&plan(2, true, true));
        assert_clean(&outcome);
        let m = &outcome.metrics;
        for name in [
            "baselines.bam_access_s",
            "baselines.hmm_access_s",
            "core.access_s",
            "gpu.self_s",
            "workloads.trace_s",
            "ssd.ring_depth_p99",
        ] {
            assert!(m.get(name).unwrap() > 0.0, "{name} not measured");
        }
    }

    #[test]
    fn serve_frontend_second_seed_has_no_failures() {
        let outcome = Workload::ServeFrontend.run(&plan(2, true, true));
        assert_clean(&outcome);
        let m = &outcome.metrics;
        assert_eq!(m.get("sim.trace_dropped"), Some(0.0));
        assert_eq!(m.get("frontend.shed_frac"), Some(0.0));
        assert!(m.get("sim.export_bytes").unwrap() > 0.0);
        assert!(m.get("analysis.fold_s").unwrap() > 0.0);
    }

    /// The seed reaches exactly the applications the README says it does.
    #[test]
    fn seed_reaches_only_lavamd_and_sssp() {
        let one = Workload::Replay(Suite::Paper).run(&plan(1, false, true));
        let two = Workload::Replay(Suite::Paper).run(&plan(2, false, true));
        assert_clean(&one);
        assert_clean(&two);
        assert_eq!(one.reference.len(), 27);
        for (a, b) in one.reference.iter().zip(&two.reference) {
            let app = a.split('/').next().unwrap();
            assert_eq!(
                a != b,
                replay::SEEDED_APPS.contains(&app),
                "{app}: seed dependence differs from the documented one"
            );
        }
    }

    /// `BENCHMARK.json` at the repository root names the same metrics with
    /// the same units.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        for (name, unit) in metrics::END_TO_END.iter().chain(metrics::PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(doc.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = doc.matches("\"unit\":").count();
        assert_eq!(
            declared,
            metrics::END_TO_END.len() + metrics::PER_LAYER.len(),
            "BENCHMARK.json declares metrics the benchmark does not report"
        );
    }
}
