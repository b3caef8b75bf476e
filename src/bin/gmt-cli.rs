//! Command-line driver for the GMT simulator.
//!
//! ```text
//! gmt-cli run     --app srad --system gmt-reuse [--t1 1024] [--ratio 4] [--os 2] [--seed 1]
//! gmt-cli compare --app srad [--t1 1024] [--ratio 4] [--os 2] [--seed 1]
//! gmt-cli list
//! ```
//!
//! `run` executes one workload on one system and prints its metrics;
//! `compare` runs all five systems on one workload and prints a speedup
//! table; `list` enumerates workloads and systems.

use std::process::ExitCode;

use gmt::analysis::runner::{run_system, Recorded, RunResult, SystemKind};
use gmt::analysis::table::{fmt_pct, fmt_ratio, Table};
use gmt::core::{GmtConfig, PolicyKind};
use gmt::mem::{TierGeometry, WARP_PAGES};
use gmt::workloads::{suite, Workload, WorkloadScale};

const USAGE: &str = "\
usage:
  gmt-cli run          --app <name> --system <name> [--t1 <pages>] [--ratio <f>] [--os <f>] [--seed <n>]
  gmt-cli compare      --app <name> [--t1 <pages>] [--ratio <f>] [--os <f>] [--seed <n>]
  gmt-cli characterize --app <name> [--t1 <pages>] [--ratio <f>] [--os <f>] [--seed <n>]
  gmt-cli sweep        --app <name> [--t1 <pages>] [--os <f>] [--seed <n>]   (ratios 2/4/8)
  gmt-cli list

systems: bam, hmm, gmt-tierorder, gmt-random, gmt-reuse
apps:    lavamd, pathfinder, bfs, multivectoradd, srad, backprop, pagerank, sssp, hotspot";

#[derive(Debug)]
struct Options {
    app: Option<String>,
    system: Option<String>,
    t1: usize,
    ratio: f64,
    os: f64,
    seed: u64,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        app: None,
        system: None,
        t1: 1024,
        ratio: 4.0,
        os: 2.0,
        seed: 1,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--app" => opts.app = Some(value()?),
            "--system" => opts.system = Some(value()?),
            "--t1" => opts.t1 = value()?.parse().map_err(|e| format!("--t1: {e}"))?,
            "--ratio" => opts.ratio = value()?.parse().map_err(|e| format!("--ratio: {e}"))?,
            "--os" => opts.os = value()?.parse().map_err(|e| format!("--os: {e}"))?,
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(opts)
}

fn parse_system(name: &str) -> Result<SystemKind, String> {
    match name.to_ascii_lowercase().as_str() {
        "bam" => Ok(SystemKind::Bam),
        "hmm" => Ok(SystemKind::Hmm),
        "gmt-tierorder" | "tierorder" => Ok(SystemKind::Gmt(PolicyKind::TierOrder)),
        "gmt-random" | "random" => Ok(SystemKind::Gmt(PolicyKind::Random)),
        "gmt-reuse" | "reuse" | "gmt" => Ok(SystemKind::Gmt(PolicyKind::Reuse)),
        other => Err(format!("unknown system '{other}'")),
    }
}

fn find_app(name: &str, opts: &Options) -> Result<Box<dyn Workload>, String> {
    let total = ((opts.t1 as f64) * (1.0 + opts.ratio) * opts.os).round() as usize;
    let scale = WorkloadScale::pages(total.max(64));
    let wanted = name.to_ascii_lowercase();
    suite(&scale)
        .into_iter()
        .find(|w| w.name().to_ascii_lowercase() == wanted)
        .map(Recorded::graph_app)
        .ok_or_else(|| format!("unknown app '{name}' (try `gmt-cli list`)"))
}

fn geometry_for(workload: &dyn Workload, opts: &Options) -> TierGeometry {
    TierGeometry::from_total(workload.total_pages(), opts.ratio, opts.os)
}

/// [`geometry_for`], or the reason GMT would reject it: its Tier-1 must
/// hold the widest access a warp makes.
fn runnable_geometry(workload: &dyn Workload, opts: &Options) -> Result<TierGeometry, String> {
    let geometry = geometry_for(workload, opts);
    let config = GmtConfig::new(geometry);
    config
        .validate()
        .and_then(|()| config.check_access_width(WARP_PAGES, &[]))
        .map_err(|e| e.to_string())?;
    Ok(geometry)
}

fn print_run(r: &RunResult) {
    println!("workload          {}", r.workload);
    println!("system            {}", r.system);
    println!("elapsed           {}", r.elapsed);
    println!("accesses          {}", r.metrics.accesses);
    println!("t1 hit rate       {}", fmt_pct(r.metrics.t1_hit_rate()));
    println!("t2 hit rate       {}", fmt_pct(r.metrics.t2_hit_rate()));
    println!("ssd reads         {}", r.metrics.ssd_reads);
    println!("ssd writes        {}", r.metrics.ssd_writes);
    println!("t2 placements     {}", r.metrics.t2_placements);
    println!("t1 evictions      {}", r.metrics.t1_evictions);
    if r.metrics.predictions > 0 {
        println!(
            "pred. accuracy    {}",
            fmt_pct(r.metrics.prediction_accuracy())
        );
    }
}

fn cmd_run(opts: &Options) -> Result<(), String> {
    let app = opts.app.as_deref().ok_or("run needs --app")?;
    let system = parse_system(opts.system.as_deref().ok_or("run needs --system")?)?;
    let workload = find_app(app, opts)?;
    let geometry = runnable_geometry(workload.as_ref(), opts)?;
    let result = run_system(workload.as_ref(), system, &geometry, opts.seed);
    print_run(&result);
    Ok(())
}

fn cmd_compare(opts: &Options) -> Result<(), String> {
    let app = opts.app.as_deref().ok_or("compare needs --app")?;
    let workload = find_app(app, opts)?;
    let geometry = runnable_geometry(workload.as_ref(), opts)?;
    println!(
        "{} over {} pages (Tier-1 = {}, Tier-2 = {}, seed {})\n",
        workload.name(),
        workload.total_pages(),
        geometry.tier1_pages,
        geometry.tier2_pages,
        opts.seed
    );
    let bam = run_system(workload.as_ref(), SystemKind::Bam, &geometry, opts.seed);
    let mut table = Table::new(vec![
        "system",
        "elapsed",
        "speedup vs BaM",
        "SSD I/Os",
        "T2 hit rate",
    ]);
    for system in [
        SystemKind::Bam,
        SystemKind::Hmm,
        SystemKind::Gmt(PolicyKind::TierOrder),
        SystemKind::Gmt(PolicyKind::Random),
        SystemKind::Gmt(PolicyKind::Reuse),
    ] {
        let r = if system == SystemKind::Bam {
            bam.clone()
        } else {
            run_system(workload.as_ref(), system, &geometry, opts.seed)
        };
        table.row(vec![
            system.name().to_string(),
            r.elapsed.to_string(),
            fmt_ratio(r.speedup_over(&bam)),
            r.metrics.ssd_ios().to_string(),
            fmt_pct(r.metrics.t2_hit_rate()),
        ]);
    }
    println!("{table}");
    Ok(())
}

fn cmd_characterize(opts: &Options) -> Result<(), String> {
    use gmt::analysis::characterize;
    use gmt::reuse::mrc::MissRatioCurve;
    let app = opts.app.as_deref().ok_or("characterize needs --app")?;
    let workload = find_app(app, opts)?;
    let geometry = geometry_for(workload.as_ref(), opts);
    let c = characterize(workload.as_ref(), &geometry, opts.seed);
    println!("workload            {}", c.name);
    println!("address space       {} pages", c.total_pages);
    println!("accesses            {}", c.accesses);
    println!("page reuse          {}", fmt_pct(c.reuse_pct));
    println!("demanded data       {:.2} GB", c.demand_bytes as f64 / 1e9);
    println!(
        "RRD bias            {} short / {} medium / {} long",
        fmt_pct(c.tier_bias[0]),
        fmt_pct(c.tier_bias[1]),
        fmt_pct(c.tier_bias[2])
    );
    let touches = workload
        .trace(opts.seed)
        .into_iter()
        .flat_map(|a| a.pages.iter().collect::<Vec<_>>());
    let mrc = MissRatioCurve::from_trace(touches);
    println!(
        "LRU miss ratio      {} @ |T1|, {} @ |T1|+|T2|",
        fmt_pct(mrc.miss_ratio(geometry.tier1_pages)),
        fmt_pct(mrc.miss_ratio(geometry.tier1_pages + geometry.tier2_pages))
    );
    Ok(())
}

fn cmd_sweep(opts: &Options) -> Result<(), String> {
    use gmt::core::PolicyKind;
    let app = opts.app.as_deref().ok_or("sweep needs --app")?;
    let workload = find_app(app, opts)?;
    let base = runnable_geometry(workload.as_ref(), opts)?;
    println!(
        "{}: GMT-Reuse speedup over BaM as Tier-2 grows (Tier-1 = {} pages)\n",
        workload.name(),
        base.tier1_pages
    );
    let mut table = Table::new(vec!["Tier-2:Tier-1 ratio", "Tier-2 pages", "speedup"]);
    for ratio in [2.0f64, 4.0, 8.0] {
        let geometry = gmt::mem::TierGeometry {
            tier2_pages: ((base.tier1_pages as f64) * ratio).round() as usize,
            ..base
        };
        let bam = run_system(workload.as_ref(), SystemKind::Bam, &geometry, opts.seed);
        let reuse = run_system(
            workload.as_ref(),
            SystemKind::Gmt(PolicyKind::Reuse),
            &geometry,
            opts.seed,
        );
        table.row(vec![
            format!("{ratio:.0}"),
            geometry.tier2_pages.to_string(),
            fmt_ratio(reuse.speedup_over(&bam)),
        ]);
    }
    println!("{table}");
    Ok(())
}

fn cmd_list() {
    println!("workloads:");
    for w in suite(&WorkloadScale::tiny()) {
        println!("  {}", w.name());
    }
    println!("systems:\n  BaM\n  HMM\n  GMT-TierOrder\n  GMT-Random\n  GMT-Reuse");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let outcome = match command.as_str() {
        "list" => {
            cmd_list();
            Ok(())
        }
        "run" => parse_options(rest).and_then(|o| cmd_run(&o)),
        "compare" => parse_options(rest).and_then(|o| cmd_compare(&o)),
        "characterize" => parse_options(rest).and_then(|o| cmd_characterize(&o)),
        "sweep" => parse_options(rest).and_then(|o| cmd_sweep(&o)),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
