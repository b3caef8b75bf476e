//! Regenerates every table and figure of the paper's evaluation in one
//! process, plus the serving extensions: the 20 captures under
//! `results/figures/` and `REPORT.md`.
//!
//! ```sh
//! cargo run -p gmt-bench --release --bin paper [OUTPUT_ROOT]
//! ```
//!
//! The files are written below `OUTPUT_ROOT` (default: the current
//! directory). `GMT_T1_PAGES` (default 1024) sets the Tier-1 size and
//! `GMT_SEED` (default 1) the seed of every figure but `ablate`, which
//! always runs seed 1 on 800-page workloads, and the serving captures
//! (`serve_isolation`, `serve_scaling`, `frontend_slo`), which run
//! [`gmt_bench::serving`]'s scenarios at fixed sizes and seeds.
//!
//! Each serving capture ends in one verdict line per acceptance
//! threshold. All files are written either way; if a threshold fails,
//! the driver then exits 1 naming it.
//!
//! The figures share their inputs: each suite is built once, each
//! (app, system, geometry) run happens once, each app is characterized
//! once, and one traced Zipf(0.8) loop feeds every trace-derived table.

use std::path::PathBuf;
use std::process::ExitCode;

use gmt_analysis::runner::{
    geo_mean, geometry_for, optimistic_hmm_elapsed, run_system, run_system_with, Recorded,
    RunResult, SystemKind,
};
use gmt_analysis::table::{fmt_pct, fmt_ratio, Table};
use gmt_analysis::timeline::run_gmt_timeline;
use gmt_analysis::tracesum::{
    prediction_accuracy_over_time, queue_depth_percentiles, run_gmt_traced, summarize_windows,
    TracedRun,
};
use gmt_analysis::{
    characterize, correlation, eviction_rrd_series, vtd_rd_pairs, Characterization,
};
use gmt_baselines::{Hmm, HmmConfig};
use gmt_bench::serving::{self, Isolation, Verdict};
use gmt_bench::{
    batch_transfer_bandwidth, data_set_pages, prepared_suite, zipf_delivered_bandwidth, Prepared,
};
use gmt_core::{GmtConfig, MarkovScope, PolicyKind, PredictorKind, Tier2Insert};
use gmt_frontend::Frontend;
use gmt_gpu::{Executor, ExecutorConfig};
use gmt_mem::{TierGeometry, WARP_PAGES};
use gmt_pcie::TransferMethod;
use gmt_reuse::mrc::MissRatioCurve;
use gmt_reuse::{Ols, SamplerConfig};
use gmt_serve::PartitionPolicy;
use gmt_sim::Dur;
use gmt_workloads::kron::scale_bits_for_pages;
use gmt_workloads::synthetic::{SequentialScan, ZipfLoop};
use gmt_workloads::{
    hotspot::Hotspot, non_graph_suite, srad::Srad, suite, Workload, WorkloadScale,
};

/// Pages of the default data sets per Tier-1 page: Tier-1 + Tier-2 (4×)
/// over-subscribed 2×. The smallest workload the driver builds spans
/// Tier-1 × `DEFAULT_SCALE` pages.
const DEFAULT_SCALE: usize = 10;

/// The four systems of Figs. 8, 10, 11 and 13, BaM first.
const FIG8_SYSTEMS: [SystemKind; 4] = [
    SystemKind::Bam,
    SystemKind::Gmt(PolicyKind::TierOrder),
    SystemKind::Gmt(PolicyKind::Random),
    SystemKind::Gmt(PolicyKind::Reuse),
];

/// The speedup columns of Figs. 8, 11 and 13.
const FIG8_HEADERS: [&str; 4] = ["Application", "GMT-TierOrder", "GMT-Random", "GMT-Reuse"];

/// Renders one capture from the shared inputs.
type Figure = fn(&mut Inputs) -> String;

/// Every capture, by id: `results/figures/<id>.txt`.
const FIGURES: [(&str, Figure); 20] = [
    ("tab2", tab2),
    ("fig4a", fig4a),
    ("fig4bc", fig4bc),
    ("fig6a", fig6a),
    ("fig6b", fig6b),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("mrc", mrc),
    ("overheads", overheads),
    ("timeline", timeline),
    ("ablate", ablate),
    ("serve_isolation", serve_isolation),
    ("serve_scaling", serve_scaling),
    ("frontend_slo", frontend_slo),
];

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let var = |name| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    let (tier1, seed) = parse_env(var("GMT_T1_PAGES").as_deref(), var("GMT_SEED").as_deref())?;
    let mut args = std::env::args_os().skip(1);
    let root = PathBuf::from(args.next().unwrap_or_else(|| ".".into()));
    if args.next().is_some() {
        return Err("usage: paper [OUTPUT_ROOT]".into());
    }
    let dir = root.join("results/figures");
    std::fs::create_dir_all(&dir)?;
    let mut inputs = Inputs::new(tier1, seed)?;
    let figures = FIGURES.map(|(id, figure)| (dir.join(format!("{id}.txt")), figure));
    for (path, render) in figures
        .into_iter()
        .chain([(root.join("REPORT.md"), report as _)])
    {
        std::fs::write(&path, render(&mut inputs))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    if inputs.failed.is_empty() {
        Ok(())
    } else {
        Err(format!("serving thresholds failed:\n{}", inputs.failed.join("\n")).into())
    }
}

/// Tier-1 pages and seed from `GMT_T1_PAGES` (default 1024) and
/// `GMT_SEED` (default 1).
///
/// Rejects a value that does not parse, and a Tier-1 whose smallest
/// workload (Tier-1 × [`DEFAULT_SCALE`] pages) is below
/// [`WorkloadScale::MIN_PAGES`].
fn parse_env(tier1: Option<&str>, seed: Option<&str>) -> Result<(usize, u64), String> {
    let tier1: usize = match tier1 {
        None => 1024,
        Some(v) => v
            .parse()
            .map_err(|_| format!("GMT_T1_PAGES={v} is not a page count"))?,
    };
    let smallest = tier1.saturating_mul(DEFAULT_SCALE);
    if smallest < WorkloadScale::MIN_PAGES {
        return Err(format!(
            "GMT_T1_PAGES={tier1} is too small: the smallest workload would span \
             {smallest} pages, below the {}-page minimum",
            WorkloadScale::MIN_PAGES
        ));
    }
    let seed = match seed {
        None => 1,
        Some(v) => v
            .parse()
            .map_err(|_| format!("GMT_SEED={v} is not an unsigned integer"))?,
    };
    Ok((tier1, seed))
}

/// Everything more than one figure reads. The default suite (all nine
/// apps at ratio 4, over-subscription 2), its characterizations and the
/// traced run are built up front; runs over the default suite are
/// computed on first use and kept.
struct Inputs {
    tier1: usize,
    seed: u64,
    default: Vec<Prepared>,
    /// `characterize` of each app of the default suite.
    characterizations: Vec<Characterization>,
    /// The skewed point-access loop of Figs. 9–10 and the timeline.
    zipf: ZipfLoop,
    zipf_config: GmtConfig,
    traced: TracedRun,
    /// A tenth of the traced run: the width of every trace window.
    window: Dur,
    runs: Vec<((usize, SystemKind, TierGeometry), RunResult)>,
    /// Every failed serving verdict, as `<capture>: <verdict>`.
    failed: Vec<String>,
}

impl Inputs {
    /// Builds the shared inputs, or names the first app of the default
    /// suite whose Tier-1 cannot hold a warp's widest access: a graph
    /// app's Tier-1 follows its graph's size, which can fall below
    /// [`WARP_PAGES`] although `tier1` does not.
    fn new(tier1: usize, seed: u64) -> Result<Inputs, String> {
        let default = prepared_suite(tier1, 4.0, 2.0);
        for p in &default {
            let checked = GmtConfig::new(p.geometry).check_access_width(WARP_PAGES, &[]);
            checked.map_err(|e| {
                format!(
                    "GMT_T1_PAGES={tier1} is too small: {}: {e}",
                    p.workload.name()
                )
            })?;
        }
        let characterizations = default
            .iter()
            .map(|p| characterize(p.workload.as_ref(), &p.geometry, seed))
            .collect();
        // A skewed point-access loop: hot pages re-touch constantly, so VTD
        // (non-unique) wildly overestimates RD (unique) and the regression's
        // correction is what unlocks Tier-2 placement.
        let zipf_scale = WorkloadScale::pages(tier1 * DEFAULT_SCALE);
        let zipf = ZipfLoop::new(&zipf_scale, 0.8, 0.1, tier1 * 80);
        let zipf_config = GmtConfig::new(geometry_for(&zipf, 4.0, 2.0));
        let traced = run_gmt_traced(&zipf, &zipf_config, seed, 1 << 21);
        let window = (traced.elapsed / 10).max(Dur::from_nanos(1));
        Ok(Inputs {
            tier1,
            seed,
            default,
            characterizations,
            zipf,
            zipf_config,
            traced,
            window,
            runs: Vec::new(),
            failed: Vec::new(),
        })
    }

    /// The default suite's app named `name`.
    fn app(&self, name: &str) -> &Prepared {
        self.default
            .iter()
            .find(|p| p.workload.name() == name)
            .expect("the suite holds all nine apps")
    }

    /// App `app` of the default suite on `system` over `geometry`, run once.
    fn run(&mut self, app: usize, system: SystemKind, geometry: TierGeometry) -> RunResult {
        let key = (app, system, geometry);
        if let Some((_, result)) = self.runs.iter().find(|(k, _)| *k == key) {
            return result.clone();
        }
        let workload = self.default[app].workload.as_ref();
        let result = run_system(workload, system, &geometry, self.seed);
        self.runs.push((key, result.clone()));
        result
    }

    /// Every app of the default suite on each of `systems`, over the app's
    /// own geometry.
    fn matrix(&mut self, systems: &[SystemKind]) -> Vec<Vec<RunResult>> {
        (0..self.default.len())
            .map(|app| {
                let geometry = self.default[app].geometry;
                systems
                    .iter()
                    .map(|&system| self.run(app, system, geometry))
                    .collect()
            })
            .collect()
    }
}

/// Every `(workload, geometry)` of `suite` on each of `systems`, for a
/// suite only one figure runs.
fn run_matrix<'a>(
    suite: impl IntoIterator<Item = (&'a dyn Workload, TierGeometry)>,
    systems: &[SystemKind],
    seed: u64,
) -> Vec<Vec<RunResult>> {
    suite
        .into_iter()
        .map(|(workload, geometry)| {
            systems
                .iter()
                .map(|&system| run_system(workload, system, &geometry, seed))
                .collect()
        })
        .collect()
}

/// One row per app of `runs` (each app's runs, BaM first): the app, each
/// other system's speedup over BaM, then `extra`'s cells for the app. A
/// `geo_label` row of the speedup columns' geo-means, returned alongside,
/// closes the table.
fn speedup_table(
    runs: &[Vec<RunResult>],
    headers: &[&str],
    geo_label: &str,
    extra: impl Fn(&[RunResult]) -> Vec<String>,
) -> (Table, Vec<f64>) {
    let mut table = Table::new(headers.to_vec());
    let mut speedups = Vec::new();
    for app in runs {
        let (bam, rest) = app.split_first().expect("BaM runs first");
        speedups.resize(rest.len(), Vec::new());
        let mut row = vec![bam.workload.clone()];
        for (column, r) in speedups.iter_mut().zip(rest) {
            let s = r.speedup_over(bam);
            column.push(s);
            row.push(fmt_ratio(s));
        }
        row.extend(extra(app));
        table.row(row);
    }
    let means: Vec<f64> = speedups.into_iter().map(geo_mean).collect();
    let mut row = vec![geo_label.to_string()];
    row.extend(means.iter().map(|&m| fmt_ratio(m)));
    row.resize(headers.len(), String::new());
    table.row(row);
    (table, means)
}

/// Per app of the default suite: HMM's and GMT-Reuse's speedups over BaM,
/// then GMT-Reuse over HMM and over the optimistic HMM of §3.6.
fn hmm_comparison(inputs: &mut Inputs) -> Vec<(String, [f64; 4])> {
    let systems = [
        SystemKind::Bam,
        SystemKind::Hmm,
        SystemKind::Gmt(PolicyKind::Reuse),
    ];
    inputs
        .matrix(&systems)
        .iter()
        .map(|runs| {
            let (bam, hmm, reuse) = (&runs[0], &runs[1], &runs[2]);
            let optimistic =
                optimistic_hmm_elapsed(hmm, reuse, Dur::from_micros(130), Dur::from_micros(50));
            let reuse_s = reuse.elapsed.as_secs_f64();
            let ratios = [
                hmm.speedup_over(bam),
                reuse.speedup_over(bam),
                hmm.elapsed.as_secs_f64() / reuse_s,
                optimistic.as_secs_f64() / reuse_s,
            ];
            (bam.workload.clone(), ratios)
        })
        .collect()
}

/// A table over the traced run's windows: each window's start in µs,
/// then its `cells`.
fn window_table(headers: &[&str], windows: impl IntoIterator<Item = (u64, Vec<String>)>) -> Table {
    let mut table = Table::new(headers.to_vec());
    for (start_ns, cells) in windows {
        let mut row = vec![(start_ns / 1_000).to_string()];
        row.extend(cells);
        table.row(row);
    }
    table
}

/// The line noting the early records a full trace ring dropped, if any.
fn dropped_note(traced: &TracedRun) -> String {
    match traced.dropped {
        0 => String::new(),
        n => format!("(trace ring dropped {n} early records; windows cover the tail)\n"),
    }
}

/// Table 2: per-application reuse % and total demanded I/O.
fn tab2(inputs: &mut Inputs) -> String {
    let mut table = Table::new(vec![
        "Application",
        "Reuse % of a Page",
        "Demand I/O (GB)",
        "Dominant RRD tier",
    ]);
    for c in &inputs.characterizations {
        table.row(vec![
            c.name.clone(),
            fmt_pct(c.reuse_pct),
            format!("{:.2}", c.demand_bytes as f64 / 1e9),
            c.dominant_tier().to_string(),
        ]);
    }
    format!(
        "Table 2: application characteristics (Tier-1 = {} pages, ratio 4, OS 2)

{table}
(paper: lavaMD 1.17%, Pathfinder 19.47%, BFS 32.86%, MultiVectorAdd 40.0%,
 Srad 83.38%, Backprop 93.54%, PageRank 90.42%, SSSP 79.96%, Hotspot 81.33%)
",
        inputs.tier1
    )
}

/// Fig. 4a: VTD vs reuse-distance correlation for MultiVectorAdd and
/// PageRank.
fn fig4a(inputs: &mut Inputs) -> String {
    let mut table = Table::new(vec![
        "Application",
        "pairs",
        "Pearson r",
        "OLS slope m",
        "OLS offset b",
    ]);
    for name in ["MultiVectorAdd", "PageRank"] {
        let pairs = vtd_rd_pairs(inputs.app(name).workload.as_ref(), inputs.seed, 200_000);
        let r = correlation(&pairs);
        let mut ols = Ols::new();
        for &(x, y) in &pairs {
            ols.add(x as f64, y as f64);
        }
        // A workload with perfectly constant reuse distances (MVA's
        // signature) has zero VTD variance: the relation is a single
        // point and any slope through it is exact.
        let (slope, intercept) = match ols.fit() {
            Some(fit) => (format!("{:.4}", fit.slope), format!("{:.1}", fit.intercept)),
            None => ("degenerate".into(), "(constant VTD)".into()),
        };
        table.row(vec![
            name.to_string(),
            pairs.len().to_string(),
            format!("{r:.4}"),
            slope,
            intercept,
        ]);
    }
    format!(
        "Fig. 4a: VTD vs reuse distance (Tier-1 = {} pages)

{table}
(paper: a good linear correlation in both applications,
 justifying RD = m*VTD + b as the regression model)
",
        inputs.tier1
    )
}

/// Coefficient of variation of a page's eviction-time RRD sequence.
fn cv(rrds: &[u64]) -> f64 {
    let n = rrds.len() as f64;
    let mean = rrds.iter().sum::<u64>() as f64 / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = rrds.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n;
    var.sqrt() / mean
}

/// Fig. 4b/4c: per-page RRD at successive Tier-1 evictions — constant for
/// MultiVectorAdd, alternating/patterned for PageRank.
fn fig4bc(inputs: &mut Inputs) -> String {
    let mut table = Table::new(vec![
        "Application",
        "pages with >=2 evictions",
        "constant-RRD pages (cv < 0.1)",
        "median cv",
    ]);
    for name in ["MultiVectorAdd", "PageRank"] {
        let app = inputs.app(name);
        let series = eviction_rrd_series(app.workload.as_ref(), &app.geometry, inputs.seed, 2);
        let mut cvs: Vec<f64> = series.values().map(|v| cv(v)).collect();
        cvs.sort_by(|a, b| a.total_cmp(b));
        let constant = cvs.iter().filter(|&&c| c < 0.1).count();
        let median = cvs.get(cvs.len() / 2).copied().unwrap_or(0.0);
        table.row(vec![
            name.to_string(),
            series.len().to_string(),
            fmt_pct(constant as f64 / series.len().max(1) as f64),
            format!("{median:.3}"),
        ]);
    }
    format!(
        "Fig. 4b/4c: RRD at Tier-1 evictions (Tier-1 = {} pages)

{table}
(paper: MultiVectorAdd pages repeat the same RRD every eviction;
 PageRank RRDs are correlated with prior evictions but alternate,
 motivating the 2-level history / Markov predictor)
",
        inputs.tier1
    )
}

/// Fig. 6a: transfer efficiency for non-contiguous page batches —
/// `cudaMemcpyAsync` (DMA) vs warp zero-copy.
fn fig6a(_: &mut Inputs) -> String {
    let mut table = Table::new(vec![
        "pages",
        "cudaMemcpyAsync (GB/s)",
        "zero-copy 32T (GB/s)",
    ]);
    let mut crossover = None;
    for n in [1usize, 2, 4, 6, 8, 10, 12, 16, 24, 32, 48, 64] {
        let dma = batch_transfer_bandwidth(TransferMethod::DmaAsync, n);
        let zc = batch_transfer_bandwidth(TransferMethod::ZeroCopy, n);
        if crossover.is_none() && zc >= dma {
            crossover = Some(n);
        }
        table.row(vec![
            n.to_string(),
            format!("{:.2}", dma / 1e9),
            format!("{:.2}", zc / 1e9),
        ]);
    }
    let verdict = match crossover {
        Some(n) => format!("crossover at ~{n} pages (paper: 8)"),
        None => "no crossover observed (paper: 8) — calibration drift!".to_string(),
    };
    format!(
        "Fig. 6a: achieved bandwidth moving N non-contiguous 64 KB pages\n\n{table}\n{verdict}\n"
    )
}

/// Fig. 6b: delivered bandwidth for Zipf-distributed page accesses under
/// the five transfer schemes.
///
/// Known deviation: in this substrate the employable-thread count for a
/// batch equals its missing lanes and copy warps suffer no SIMT
/// recruitment penalty, so Hybrid-8T can slightly edge out Hybrid-32T;
/// on real hardware divergence penalizes low-`X` hybrids and the paper
/// finds Hybrid-32T best. The qualitative message — hybrids track the
/// best pure method, zero-copy collapses at high skew, DMA is flat —
/// is reproduced.
fn fig6b(inputs: &mut Inputs) -> String {
    let methods = [
        ("ZeroCopy", TransferMethod::ZeroCopy),
        ("DmaAsync", TransferMethod::DmaAsync),
        ("Hybrid-8T", TransferMethod::hybrid(8)),
        ("Hybrid-16T", TransferMethod::hybrid(16)),
        ("Hybrid-32T", TransferMethod::hybrid_32t()),
    ];
    let mut headers = vec!["skew"];
    headers.extend(methods.iter().map(|&(n, _)| n));
    let mut table = Table::new(headers);
    for skew in [1.0f64, 0.9, 0.8, 0.6, 0.4, 0.2, 0.0] {
        let mut row = vec![format!("{skew:.1}")];
        for &(_, m) in &methods {
            let bw = zipf_delivered_bandwidth(m, skew, 4096, 4000, inputs.seed);
            row.push(format!("{:.2}", bw / 1e9));
        }
        table.row(row);
    }
    format!(
        "Fig. 6b: delivered bandwidth (GB/s) vs Zipf skew, 64 KB pages

{table}
(paper: Hybrid-32T does, or is close to, the best across the range;
 pure zero-copy suffers at high skew, pure DMA leaves bandwidth unused at low skew)
"
    )
}

/// Fig. 7: per-application RRD distribution at Tier-1 evictions, split at
/// the tier-capacity lines, plus reuse %.
fn fig7(inputs: &mut Inputs) -> String {
    let mut table = Table::new(vec![
        "Application",
        "Reuse %",
        "RRD < |T1| (short)",
        "|T1| <= RRD < |T1|+|T2| (medium)",
        "RRD >= |T1|+|T2| (long)",
    ]);
    for c in &inputs.characterizations {
        table.row(vec![
            c.name.clone(),
            fmt_pct(c.reuse_pct),
            fmt_pct(c.tier_bias[0]),
            fmt_pct(c.tier_bias[1]),
            fmt_pct(c.tier_bias[2]),
        ]);
    }
    format!(
        "Fig. 7: RRD distribution at Tier-1 evictions (Tier-1 = {} pages, ratio 4, OS 2)

{table}
(paper tier bias: lavaMD/Pathfinder Tier-1; BFS/MultiVectorAdd/Srad/Backprop
 Tier-2; PageRank 94%, SSSP 97%, Hotspot ~100% Tier-3)
",
        inputs.tier1
    )
}

/// Fig. 8a/8b: speedup over BaM and relative SSD I/O for the three GMT
/// policies at the default configuration (ratio 4, OS 2).
fn fig8(inputs: &mut Inputs) -> String {
    let runs = inputs.matrix(&FIG8_SYSTEMS);
    let (speedups, _) = speedup_table(&runs, &FIG8_HEADERS, "geo-mean", |_| Vec::new());
    let mut ios = Table::new(vec![
        "Application",
        "BaM SSD I/Os",
        "TierOrder I/O vs BaM",
        "Random I/O vs BaM",
        "Reuse I/O vs BaM",
    ]);
    for app in &runs {
        let (bam, rest) = app.split_first().expect("BaM runs first");
        let mut row = vec![bam.workload.clone(), bam.metrics.ssd_ios().to_string()];
        row.extend(rest.iter().map(|r| fmt_ratio(r.io_ratio_vs(bam))));
        ios.row(row);
    }
    format!(
        "Fig. 8a/8b: Tier-1 = {} pages, Tier-2 = 4x, over-subscription 2

Fig. 8a: speedup over BaM
{speedups}
(paper averages: TierOrder 1.07x, Random 1.24x, Reuse 1.50x)

Fig. 8b: SSD I/O relative to BaM (lower is better)
{ios}
",
        inputs.tier1
    )
}

/// Fig. 9: GMT-Reuse tier-prediction accuracy per application (for the
/// Fig. 8 configuration), then over time on the traced Zipf loop: how
/// fast the predictor converges (end-of-run numbers hide the warm-up).
fn fig9(inputs: &mut Inputs) -> String {
    let mut table = Table::new(vec!["Application", "graded predictions", "accuracy"]);
    for runs in inputs.matrix(&[SystemKind::Gmt(PolicyKind::Reuse)]) {
        let r = &runs[0];
        table.row(vec![
            r.workload.clone(),
            r.metrics.predictions.to_string(),
            fmt_pct(r.metrics.prediction_accuracy()),
        ]);
    }
    let over_time = window_table(
        &["window start (us)", "graded", "accuracy"],
        prediction_accuracy_over_time(&inputs.traced.records, inputs.window)
            .into_iter()
            .map(|(start_ns, graded, acc)| (start_ns, vec![graded.to_string(), fmt_pct(acc)])),
    );
    format!(
        "Fig. 9: GMT-Reuse prediction accuracy (Tier-1 = {} pages, ratio 4, OS 2)

{table}
(paper: high accuracy on reuse-heavy apps; lavaMD low — too little
 history accumulates before its few reused pages are evicted)

Prediction accuracy over time, Zipf(0.8) loop (trace-derived):
{over_time}
{}",
        inputs.tier1,
        dropped_note(&inputs.traced)
    )
}

/// Fig. 10a/10b: the overheads of adding Tier-2 — wasteful Tier-2 lookups
/// and Tier-1 ⇄ Tier-2 PCIe traffic — then a trace-derived hardware view
/// of the same overheads: PCIe bytes per window and the SSD queue-depth
/// distribution during the traced Zipf loop.
fn fig10(inputs: &mut Inputs) -> String {
    let mut wasteful = Table::new(vec![
        "Application",
        "TierOrder wasteful lookups",
        "Random wasteful lookups",
        "Reuse wasteful lookups",
    ]);
    let mut traffic = Table::new(vec![
        "Application",
        "TierOrder T1->T2 / T2->T1 (% of BaM I/O)",
        "Random T1->T2 / T2->T1",
        "Reuse T1->T2 / T2->T1",
    ]);
    for runs in inputs.matrix(&FIG8_SYSTEMS) {
        let (bam, rest) = runs.split_first().expect("BaM runs first");
        let bam_io = bam.metrics.ssd_ios().max(1) as f64;
        let mut wasteful_row = vec![bam.workload.clone()];
        let mut traffic_row = vec![bam.workload.clone()];
        for r in rest {
            wasteful_row.push(fmt_pct(r.metrics.wasteful_lookup_rate()));
            traffic_row.push(format!(
                "{} / {}",
                fmt_pct(r.metrics.t2_placements as f64 / bam_io),
                fmt_pct(r.metrics.t2_hits as f64 / bam_io),
            ));
        }
        wasteful.row(wasteful_row);
        traffic.row(traffic_row);
    }
    let records = &inputs.traced.records;
    let pcie = window_table(
        &["window start (us)", "to GPU (KiB)", "to host (KiB)"],
        summarize_windows(records, inputs.window)
            .into_iter()
            .map(|w| {
                let kib = |bytes: u64| (bytes / 1024).to_string();
                (
                    w.start_ns,
                    vec![kib(w.pcie_bytes_to_gpu), kib(w.pcie_bytes_to_host)],
                )
            }),
    );
    let depths = match queue_depth_percentiles(records, &[50.0, 95.0, 99.0])[..] {
        [p50, p95, p99] => format!("SSD queue depth: p50 = {p50}, p95 = {p95}, p99 = {p99}\n"),
        _ => String::new(),
    };
    format!(
        "Fig. 10: Tier-2 overheads (Tier-1 = {} pages, ratio 4, OS 2)

Fig. 10a: wasteful Tier-2 lookups as % of Tier-1 misses
{wasteful}
(paper: GMT-Reuse has the fewest; TierOrder the most)

Fig. 10b: Tier-1<->Tier-2 transfers as % of BaM's SSD transfers
{traffic}
(paper: placements should roughly equal retrievals — unmatched
 placements are wasted PCIe traffic; TierOrder is worst at this)

(§3.4: the paper prices these overheads at ~2.41% of execution;
 each wasted lookup costs ~50 ns against multi-second runs here too)

PCIe traffic per window, Zipf(0.8) loop (trace-derived):
{pcie}
{depths}{}",
        inputs.tier1,
        dropped_note(&inputs.traced)
    )
}

/// Fig. 11: speedup over BaM at an over-subscription factor of 4 (double
/// the default datasets / half the capacities).
///
/// A graph app sizes its graph by `kron::scale_bits_for_pages`, which
/// clamps; when both data-set sizes map to the same bits (at the default
/// Tier-1, both are 2^20-vertex graphs), the default suite's graph apps
/// are reused instead of built a second time.
fn fig11(inputs: &mut Inputs) -> String {
    let pages = |os| data_set_pages(inputs.tier1, 4.0, os);
    let scale = WorkloadScale::pages(pages(4.0));
    let fresh: Vec<_> = if scale_bits_for_pages(pages(2.0)) == scale_bits_for_pages(pages(4.0)) {
        non_graph_suite(&scale)
    } else {
        suite(&scale).into_iter().map(Recorded::graph_app).collect()
    };
    let apps = inputs.default.iter().map(|p| {
        let w = fresh
            .iter()
            .find(|w| w.name() == p.workload.name())
            .map_or(p.workload.as_ref(), |w| w.as_ref());
        (w, geometry_for(w, 4.0, 4.0))
    });
    let runs = run_matrix(apps, &FIG8_SYSTEMS, inputs.seed);
    let (table, _) = speedup_table(&runs, &FIG8_HEADERS, "geo-mean", |_| Vec::new());
    format!(
        "Fig. 11: Tier-1 = {} pages, Tier-2 = 4x, over-subscription 4

{table}
(paper averages at OS=4: TierOrder 1.03x, Random 1.14x, Reuse 1.23x —
 lower than OS=2, but GMT-Reuse's advantage persists)
",
        inputs.tier1
    )
}

/// Fig. 12: GMT-Reuse speedup over BaM as the Tier-2:Tier-1 capacity ratio
/// grows (2, 4, 8) — dataset and Tier-1 held fixed, Tier-2 grown, exactly
/// as the paper's caption (16 GB : 32/64/128 GB).
fn fig12(inputs: &mut Inputs) -> String {
    let ratios = [2.0f64, 4.0, 8.0];
    let mut table = Table::new(vec!["Application", "ratio 2", "ratio 4", "ratio 8"]);
    let mut means = vec![Vec::new(); ratios.len()];
    for app in 0..inputs.default.len() {
        // The datasets are the Fig. 8 defaults (sized for ratio 4, OS 2),
        // and so is Tier-1: only Tier-2 grows.
        let base = inputs.default[app].geometry;
        let mut row = vec![inputs.default[app].workload.name().to_string()];
        for (column, &ratio) in means.iter_mut().zip(&ratios) {
            let geometry = TierGeometry {
                tier2_pages: ((base.tier1_pages as f64) * ratio).round() as usize,
                ..base
            };
            let bam = inputs.run(app, SystemKind::Bam, geometry);
            let reuse = inputs.run(app, SystemKind::Gmt(PolicyKind::Reuse), geometry);
            let speedup = reuse.speedup_over(&bam);
            column.push(speedup);
            row.push(fmt_ratio(speedup));
        }
        table.row(row);
    }
    let mut row = vec!["geo-mean".to_string()];
    row.extend(means.into_iter().map(|m| fmt_ratio(geo_mean(m))));
    table.row(row);
    format!(
        "Fig. 12: GMT-Reuse speedup over BaM vs Tier-2:Tier-1 ratio
(Tier-1 = {} pages and datasets fixed; Tier-2 grown)

{table}
(paper: speedups grow with the ratio, most for Tier-2-biased apps)
",
        inputs.tier1
    )
}

/// Fig. 13: the larger-Tier-1 experiment (paper: Tier-1 = 32 GB instead of
/// 16 GB, datasets doubled, non-graph applications). At simulation scale
/// this doubles `GMT_T1_PAGES` and the dataset while keeping
/// over-subscription 2.
fn fig13(inputs: &mut Inputs) -> String {
    let tier1 = inputs.tier1 * 2;
    let suite: Vec<Prepared> = non_graph_suite(&WorkloadScale::pages(tier1 * DEFAULT_SCALE))
        .into_iter()
        .map(|workload| Prepared {
            geometry: geometry_for(workload.as_ref(), 4.0, 2.0),
            workload,
        })
        .collect();
    let runs = run_matrix(
        suite.iter().map(|p| (p.workload.as_ref(), p.geometry)),
        &FIG8_SYSTEMS,
        inputs.seed,
    );
    let (table, _) = speedup_table(&runs, &FIG8_HEADERS, "geo-mean", |_| Vec::new());
    format!(
        "Fig. 13: doubled Tier-1 ({tier1} pages), ratio 4, over-subscription 2,
non-graph applications

{table}
(paper: GMT-Reuse keeps a ~45% average speedup at the larger Tier-1,
 beating Random by ~20% and TierOrder by ~35%)
"
    )
}

/// Fig. 14 and the §3.6 analysis: HMM and GMT-Reuse speedups over BaM,
/// plus the "optimistic HMM" estimate (HMM credited with GMT-Reuse's hit
/// rates).
fn fig14(inputs: &mut Inputs) -> String {
    let mut table = Table::new(vec![
        "Application",
        "HMM vs BaM",
        "GMT-Reuse vs BaM",
        "GMT-Reuse vs HMM",
        "GMT-Reuse vs optimistic-HMM",
    ]);
    let rows = hmm_comparison(inputs);
    for (name, ratios) in &rows {
        let mut row = vec![name.clone()];
        row.extend(ratios.iter().map(|&r| fmt_ratio(r)));
        table.row(row);
    }
    let mut row = vec!["geo-mean".to_string()];
    row.extend((0..4).map(|i| fmt_ratio(geo_mean(rows.iter().map(|(_, r)| r[i])))));
    table.row(row);
    format!(
        "Fig. 14 / §3.6: Tier-1 = {} pages, ratio 4, over-subscription 2

{table}
(paper: BaM outperforms HMM everywhere; GMT-Reuse is 357% faster than
 HMM on average and still 90.3% faster than the optimistic HMM)
",
        inputs.tier1
    )
}

/// Miss-ratio curves: for every workload, the LRU miss ratio at the Tier-1
/// and Tier-1+Tier-2 capacities — the quantitative version of Fig. 7's
/// "where does the reuse fall" picture, plus the capacity each app would
/// need for a 50 % miss ratio.
fn mrc(inputs: &mut Inputs) -> String {
    let mut table = Table::new(vec![
        "Application",
        "miss @ |T1|",
        "miss @ |T1|+|T2|",
        "capacity for 50% miss",
    ]);
    for p in &inputs.default {
        let mut touches = Vec::new();
        p.workload
            .for_each_access(inputs.seed, &mut |a| touches.extend(a.pages.iter()));
        let mrc = MissRatioCurve::from_trace(touches);
        let t1 = p.geometry.tier1_pages;
        let t12 = t1 + p.geometry.tier2_pages;
        table.row(vec![
            p.workload.name().to_string(),
            fmt_pct(mrc.miss_ratio(t1)),
            fmt_pct(mrc.miss_ratio(t12)),
            mrc.capacity_for(0.5)
                .map_or("unreachable".into(), |c| c.to_string()),
        ]);
    }
    format!(
        "Miss-ratio curves (Tier-1 = {} pages, ratio 4, OS 2)

{table}
The gap between the two columns is the ceiling on what any Tier-2
policy can recover; GMT-Reuse's Fig. 8 speedups track it.
",
        inputs.tier1
    )
}

/// The §3.4 overhead accounting: what adding Tier-2 costs (wasteful
/// lookups, placement transfers) against what it saves, per application.
/// The paper prices the costs at ~2.41% of execution on average.
fn overheads(inputs: &mut Inputs) -> String {
    let lookup_ns = GmtConfig::default().host_link.lookup_cost.as_nanos();
    let mut table = Table::new(vec![
        "Application",
        "wasteful lookups",
        "lookup time / runtime",
        "T1->T2 placements",
    ]);
    let mut fractions = Vec::new();
    for runs in inputs.matrix(&[SystemKind::Gmt(PolicyKind::Reuse)]) {
        let r = &runs[0];
        // Wasteful lookups cost ~50 ns of critical-path work each; warp
        // concurrency hides most of it, so this is an upper bound.
        let lookup_time_ns = r.metrics.wasteful_lookups * lookup_ns;
        let fraction = lookup_time_ns as f64 / r.elapsed.as_nanos() as f64;
        fractions.push(fraction);
        table.row(vec![
            r.workload.clone(),
            r.metrics.wasteful_lookups.to_string(),
            fmt_pct(fraction),
            r.metrics.t2_placements.to_string(),
        ]);
    }
    let mean = fractions.iter().sum::<f64>() / fractions.len().max(1) as f64;
    format!(
        "§3.4 Tier-2 overhead accounting (Tier-1 = {} pages, ratio 4, OS 2)

{table}
mean lookup-time share: {}
(paper: all Tier-2 costs together amount to ~2.41% of execution,
 dwarfed by the I/O reduction they buy)
",
        inputs.tier1,
        fmt_pct(mean)
    )
}

/// Warm-up timeline: Tier-2 hit rate and prediction accuracy over the
/// course of one run, with the regression pipelined (the paper's design)
/// vs withheld until sampling ends (the alternative §2.1.3 argues
/// against); then the same warm-up seen from the pipelined run's trace:
/// tier occupancy and peak SSD queue depth per window.
fn timeline(inputs: &mut Inputs) -> String {
    let piped_cfg = inputs.zipf_config;
    let mut held_cfg = piped_cfg;
    held_cfg.reuse.sampler.pipelined = false;
    let exec = ExecutorConfig::default();
    let piped = run_gmt_timeline(&inputs.zipf, &piped_cfg, &exec, inputs.seed, 10);
    let held = run_gmt_timeline(&inputs.zipf, &held_cfg, &exec, inputs.seed, 10);
    let mut table = Table::new(vec![
        "accesses",
        "pipelined T2 hit rate",
        "withheld T2 hit rate",
        "pipelined pred. accuracy",
        "withheld pred. accuracy",
    ]);
    for (p, h) in piped.iter().zip(&held) {
        table.row(vec![
            p.accesses.to_string(),
            fmt_pct(p.metrics.t2_hit_rate()),
            fmt_pct(h.metrics.t2_hit_rate()),
            fmt_pct(p.metrics.prediction_accuracy()),
            fmt_pct(h.metrics.prediction_accuracy()),
        ]);
    }
    let occupancy = window_table(
        &[
            "window start (us)",
            "T1 pages",
            "T2 pages",
            "peak SSD depth",
        ],
        summarize_windows(&inputs.traced.records, inputs.window)
            .into_iter()
            .map(|w| {
                let cells = [w.t1_occupancy, w.t2_occupancy, u64::from(w.max_queue_depth)];
                (w.start_ns, cells.map(|c| c.to_string()).to_vec())
            }),
    );
    format!(
        "Warm-up timeline on a Zipf(0.8) loop (Tier-1 = {} pages)

{table}
(paper §2.1.3: pipelining samples every 10 000 to the CPU \"results in
 better placement for the early part of the execution\")

Tier occupancy over time (trace-derived, pipelined config):
{occupancy}
{}",
        piped_cfg.geometry.tier1_pages,
        dropped_note(&inputs.traced)
    )
}

/// Ablation study of the design choices DESIGN.md calls out: the
/// Tier-3-pressure bypass threshold (§2.2), the Tier-2 insertion mode,
/// the transfer method, the sampling budget, the prefetching extension,
/// the Markov scope, the predictor, and how generous HMM's driver must
/// be to catch BaM. Every arm is one seed-1 run on 800-page workloads,
/// whatever `GMT_T1_PAGES` and `GMT_SEED` say.
fn ablate(_: &mut Inputs) -> String {
    const SEED: u64 = 1;
    // GMT-Reuse on `workload` with the default configuration for its
    // geometry, after `tweak` has changed one knob.
    let reuse = |workload: &dyn Workload, tweak: &dyn Fn(&mut GmtConfig)| -> RunResult {
        let mut config = GmtConfig::new(geometry_for(workload, 4.0, 2.0));
        tweak(&mut config);
        run_system_with(workload, SystemKind::Gmt(PolicyKind::Reuse), &config, SEED)
    };
    let scale = WorkloadScale::pages(800);
    let hotspot = Hotspot::with_scale(&scale);
    let srad = Srad::with_scale(&scale);
    let mut out = String::new();

    // The engine forces a Tier-2 placement only when the Tier-3 fraction
    // exceeds the threshold, so 1.0 turns the heuristic off.
    for threshold in [0.5f64, 0.8, 0.95, 1.0] {
        let r = reuse(&hotspot, &|c| c.reuse.bypass_threshold = threshold);
        out += &format!(
            "ablate_bypass threshold={threshold:.2}: elapsed {} forced {}\n",
            r.elapsed, r.metrics.forced_t2_placements
        );
    }

    for (name, mode) in [
        ("reject_when_full", Tier2Insert::RejectWhenFull),
        ("evict_fifo", Tier2Insert::EvictFifo),
        ("evict_clock", Tier2Insert::EvictClock),
        ("evict_random", Tier2Insert::EvictRandom),
    ] {
        let r = reuse(&srad, &|c| c.tier2_insert = Some(mode));
        out += &format!(
            "ablate_tier2_insert {name}: elapsed {} t2_hits {}\n",
            r.elapsed, r.metrics.t2_hits
        );
    }

    for (name, method) in [
        ("dma", TransferMethod::DmaAsync),
        ("zero_copy", TransferMethod::ZeroCopy),
        ("hybrid_32t", TransferMethod::hybrid_32t()),
    ] {
        let r = reuse(&srad, &|c| c.transfer = method);
        out += &format!("ablate_transfer {name}: elapsed {}\n", r.elapsed);
    }

    for (name, sampler) in [
        (
            "tiny_budget",
            SamplerConfig {
                sample_budget: 1_000,
                batch_size: 100,
                pipelined: true,
            },
        ),
        (
            "end_of_sampling",
            SamplerConfig {
                pipelined: false,
                ..SamplerConfig::default()
            },
        ),
        ("paper_default", SamplerConfig::default()),
    ] {
        let r = reuse(&srad, &|c| c.reuse.sampler = sampler);
        out += &format!(
            "ablate_sampling {name}: elapsed {} accuracy {:.3}\n",
            r.elapsed,
            r.metrics.prediction_accuracy()
        );
    }

    // Hotspot streams sequentially: the best case for the prefetching
    // extension (the paper's runtime is demand-only).
    for degree in [0usize, 2, 8] {
        let r = reuse(&hotspot, &|c| c.prefetch_degree = degree);
        out += &format!(
            "ablate_prefetch degree={degree}: elapsed {} prefetches {} t1_hit {:.3}\n",
            r.elapsed,
            r.metrics.prefetches,
            r.metrics.t1_hit_rate()
        );
    }

    for (name, scope) in [
        ("global", MarkovScope::Global),
        ("per_page", MarkovScope::PerPage),
    ] {
        let r = reuse(&srad, &|c| c.reuse.markov_scope = scope);
        out += &format!(
            "ablate_markov {name}: elapsed {} accuracy {:.3}\n",
            r.elapsed,
            r.metrics.prediction_accuracy()
        );
    }

    for (name, kind) in [
        ("markov", PredictorKind::Markov),
        ("last_tier", PredictorKind::LastTier),
        ("always_host", PredictorKind::AlwaysHost),
    ] {
        let r = reuse(&srad, &|c| c.reuse.predictor = kind);
        out += &format!(
            "ablate_predictor {name}: elapsed {} accuracy {:.3}\n",
            r.elapsed,
            r.metrics.prediction_accuracy()
        );
    }

    // How much driver optimism does HMM need to catch BaM? Sweep fault
    // batching and UVM-style migration chunking; even the generous
    // configurations stay behind (the §3.6 conclusion).
    let geometry = geometry_for(&srad, 4.0, 2.0);
    let bam = run_system(&srad, SystemKind::Bam, &geometry, SEED);
    let trace = srad.trace(SEED);
    for (name, batch, chunk) in [
        ("stock", 1u32, 1usize),
        ("batched_drain", 8, 1),
        ("chunked_migration", 1, 8),
        ("both", 8, 8),
    ] {
        let mut config = HmmConfig::new(geometry);
        config.fault_batch = batch;
        config.migration_chunk_pages = chunk;
        let hmm =
            Executor::new(ExecutorConfig::default()).run(Hmm::new(config), trace.iter().cloned());
        out += &format!(
            "ablate_hmm {name}: elapsed {} ({}x of BaM's {})\n",
            hmm.elapsed,
            hmm.elapsed.as_secs_f64() / bam.elapsed.as_secs_f64(),
            bam.elapsed
        );
    }
    out
}

/// A serving capture's closing verdict lines; the failed ones are also
/// kept in `inputs`, named with capture `id`.
fn verdict_lines(inputs: &mut Inputs, id: &str, verdicts: &[Verdict]) -> String {
    if let Err(failed) = serving::check(verdicts) {
        inputs
            .failed
            .extend(failed.lines().map(|line| format!("{id}: {line}")));
    }
    verdicts.iter().map(|v| format!("{v}\n")).collect()
}

/// Tenant isolation: the Zipf protagonist solo, then beside the scan
/// antagonist under each Tier-1 partitioning policy, at the sizes whose
/// thresholds CI has always gated.
fn serve_isolation(inputs: &mut Inputs) -> String {
    let sweep = serving::isolation(4_000, 88, 1);
    let mut out = format!(
        "Serving isolation: a 192-page Zipf tenant (4000 accesses) beside a 1024-page \
         sequential scan (88 passes), Tier-1 = {} pages

solo zipf (whole Tier-1 to itself): hit rate {:.2}%
",
        serving::TIER1_PAGES,
        100.0 * Isolation::zipf_hit_rate(&sweep.solo)
    );
    for (policy, run) in &sweep.paired {
        out += &format!(
            "\n[{policy}] elapsed {:.2} ms, jain {:.4}, zipf hit-rate drop vs solo {:+.2} pp\n{}\n",
            run.elapsed.as_nanos() as f64 / 1e6,
            run.report.jain_hit_rate,
            100.0 * sweep.zipf_drop(*policy),
            run.report
        );
    }
    out + "\n" + &verdict_lines(inputs, "serve_isolation", &sweep.verdicts())
}

/// Tenant scaling: 1, 2, 4 and 8 Zipf tenants, splitting Tier-1's quota
/// and floors evenly, under every partitioning policy. No threshold.
fn serve_scaling(_: &mut Inputs) -> String {
    const ACCESSES: usize = 1_500;
    let tier1 = serving::TIER1_PAGES;
    let mut out = format!(
        "Serving scaling: 1-8 Zipf tenants ({ACCESSES} accesses each) x every \
         partitioning policy, Tier-1 = {tier1} pages\n"
    );
    for n in [1usize, 2, 4, 8] {
        for policy in PartitionPolicy::ALL {
            let specs = (0..n)
                .map(|i| {
                    let mut spec =
                        serving::zipf_tenant(&format!("zipf{i}"), ACCESSES, 100 + i as u64);
                    spec.quota_pages = tier1 / n;
                    spec.floor_pages = tier1 / (2 * n);
                    spec.weight = 1;
                    spec
                })
                .collect();
            let run = serving::serve(policy, specs);
            out += &format!(
                "\n[{n} tenants, {policy}] elapsed {:.2} ms, accesses {}\n{}\n",
                run.elapsed.as_nanos() as f64 / 1e6,
                run.accesses,
                run.report
            );
        }
    }
    out
}

/// The online front-end's SLO classes under backpressure: the
/// interactive, standard and batch-scan tenants of
/// [`serving::frontend_service`], two connections each.
fn frontend_slo(inputs: &mut Inputs) -> String {
    const REQUESTS_PER_CONN: u32 = 2_000;
    let batch = SequentialScan::new(&WorkloadScale::pages(512), 1);
    let service = serving::frontend_service(Box::new(batch));
    let run = Frontend::new(service, 2024, REQUESTS_PER_CONN, serving::TRACE_CAPACITY).run();
    let verdicts = verdict_lines(
        inputs,
        "frontend_slo",
        &serving::frontend_verdicts(&run.report),
    );
    format!(
        "Front-end SLOs: 3 classes, 6 connections, {REQUESTS_PER_CONN} requests each, \
         Tier-1 = {} pages (shared-qos)

elapsed {:.3} ms, generated {}, shed {}, aggregate t1 hit rate {:.2}%
{}
{verdicts}",
        serving::TIER1_PAGES,
        run.elapsed.as_nanos() as f64 / 1e6,
        run.generated,
        run.shed,
        100.0 * run.aggregate.t1_hit_rate(),
        run.report.render_table()
    )
}

/// `REPORT.md`: the headline tables and verdicts in markdown, the live
/// companion to the hand-annotated `EXPERIMENTS.md`.
fn report(inputs: &mut Inputs) -> String {
    let mut tab2 = Table::new(vec!["Application", "Reuse %", "Dominant RRD tier"]);
    for c in &inputs.characterizations {
        tab2.row(vec![
            c.name.clone(),
            fmt_pct(c.reuse_pct),
            c.dominant_tier().to_string(),
        ]);
    }
    let systems = [
        SystemKind::Bam,
        SystemKind::Hmm,
        SystemKind::Gmt(PolicyKind::TierOrder),
        SystemKind::Gmt(PolicyKind::Random),
        SystemKind::Gmt(PolicyKind::Reuse),
    ];
    let headers = [
        "Application",
        "HMM",
        "GMT-TierOrder",
        "GMT-Random",
        "GMT-Reuse",
        "Reuse I/O vs BaM",
    ];
    let runs = inputs.matrix(&systems);
    let (speedups, means) = speedup_table(&runs, &headers, "**geo-mean**", |runs| {
        vec![fmt_ratio(runs[4].io_ratio_vs(&runs[0]))]
    });
    let hmm = hmm_comparison(inputs);
    let over_hmm = |i: usize| fmt_ratio(geo_mean(hmm.iter().map(|(_, r)| r[i])));
    format!(
        "# GMT reproduction report

Generated by `cargo run -p gmt-bench --release --bin paper` with `GMT_T1_PAGES={}`, `GMT_SEED={}`.

## Workload characteristics (Table 2 / Fig. 7)

{}
## Speedup over BaM (Figs. 8a/8b and 14)

{}
## Headline verdicts

- GMT-Reuse over BaM: **{}** (paper: 1.50x)
- HMM vs BaM: **{}** — loses everywhere (paper agrees)
- GMT-Reuse over HMM: **{}** (paper: 4.57x)
- GMT-Reuse over optimistic-HMM: **{}** (paper: 1.90x)
",
        inputs.tier1,
        inputs.seed,
        tab2.to_markdown(),
        speedups.to_markdown(),
        fmt_ratio(means[3]),
        fmt_ratio(means[0]),
        over_hmm(2),
        over_hmm(3)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_values_parse_or_fail_up_front() {
        assert_eq!(parse_env(None, None), Ok((1024, 1)));
        assert_eq!(parse_env(Some("2048"), Some("7")), Ok((2048, 7)));
        let unparsable = parse_env(Some("1k"), None).unwrap_err();
        assert!(unparsable.contains("GMT_T1_PAGES=1k"), "{unparsable}");
        // 4 × 10 = 40 pages: below the workloads' 64-page floor.
        let tiny = parse_env(Some("4"), None).unwrap_err();
        assert!(tiny.contains("40 pages"), "{tiny}");
        assert!(parse_env(None, Some("-1")).is_err());
    }

    #[test]
    fn a_graph_tier1_narrower_than_a_warp_is_one_error() {
        // 570 pages of data set: BFS's graph rounds down to 288 pages, and
        // a tenth of that cannot hold a 32-page warp access.
        let err = Inputs::new(57, 1).err().expect("rejected before any run");
        assert_eq!(
            err,
            "GMT_T1_PAGES=57 is too small: BFS: tier-1 (29 pages) is narrower than the \
             widest access (32 pages)"
        );
    }

    #[test]
    fn every_committed_capture_has_a_figure() {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/figures");
        let mut committed: Vec<String> = std::fs::read_dir(dir)
            .expect("results/figures exists")
            .map(|entry| {
                let name = entry.expect("readable entry").file_name();
                name.to_string_lossy().into_owned()
            })
            .collect();
        committed.sort();
        let mut written: Vec<String> = FIGURES.iter().map(|(id, _)| format!("{id}.txt")).collect();
        written.sort();
        assert_eq!(written, committed);
    }
}
