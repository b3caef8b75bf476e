//! The serving scenarios, each defined once, and their acceptance
//! thresholds.
//!
//! `paper` renders the scenarios as the `serve_isolation`,
//! `serve_scaling` and `frontend_slo` captures, one verdict line per
//! threshold, and exits 1 naming any threshold that fails. The hotpath
//! suite times the same isolation sweep and front-end service.
//!
//! - **Isolation**: a cache-friendly Zipf tenant runs solo, then beside
//!   an antagonistic sequential-scan tenant under each partitioning
//!   policy. Strict quotas and QoS floors must keep the Zipf tenant's
//!   Tier-1 hit rate within 10 % of its solo run; the fully-shared
//!   baseline shows the interference they prevent.
//! - **Front-end**: an interactive, a standard and a batch tenant share
//!   one hierarchy behind the serving front-end, with enough offered
//!   load that Tier-1 pressure and occupancy backpressure both engage.
//!   The interactive class keeps its SLO while the batch class absorbs
//!   the deferrals, and flushes fall on both sides of the Fig. 6
//!   zero-copy crossover.

use std::fmt;

use gmt_analysis::tracesum::SloClassSummary;
use gmt_core::GmtConfig;
use gmt_frontend::{suggested_floor, FrontendReport};
use gmt_gpu::ExecutorConfig;
use gmt_mem::TierGeometry;
use gmt_serve::{
    ArrivalSchedule, PartitionPolicy, ServeConfig, ServeOutcome, SloClass, TenantRegistry,
    TenantSpec, TieredService,
};
use gmt_workloads::synthetic::{SequentialScan, ZipfLoop};
use gmt_workloads::{Workload, WorkloadScale};

/// Tier-1 capacity every serving scenario contends for, in pages.
pub const TIER1_PAGES: usize = 256;
/// Trace ring large enough for the biggest serving run.
pub const TRACE_CAPACITY: usize = 1 << 22;

/// Tier-2 2× Tier-1, address space 1536 pages: covers the scan tenant's
/// 1024-page stream plus any Zipf tenant's range, and the front-end's
/// 960 pages.
fn geometry() -> TierGeometry {
    TierGeometry::from_tier1(TIER1_PAGES, 2.0, 2.0)
}

/// The protagonist: a skewed loop whose 192-page working set exactly
/// fits its strict quota (and fits Tier-1 solo with room to spare), so
/// any policy that shields it should serve it almost entirely from
/// Tier-1 once warm.
pub fn zipf_tenant(name: &str, accesses: usize, seed: u64) -> TenantSpec {
    TenantSpec {
        name: name.into(),
        workload: Box::new(ZipfLoop::new(
            &WorkloadScale::pages(192),
            1.0,
            0.05,
            accesses,
        )),
        arrival: ArrivalSchedule::Poisson { mean_gap_ns: 4_000 },
        quota_pages: 192,
        weight: 3,
        floor_pages: 184,
        slo: SloClass::Interactive,
        seed,
    }
}

/// The antagonist: a 1024-page sequential scan with zero reuse,
/// arriving in dense bursts — the access pattern that flushes a shared
/// Tier-1.
fn scan_tenant(passes: usize, seed: u64) -> TenantSpec {
    TenantSpec {
        name: "scan".into(),
        workload: Box::new(SequentialScan::new(&WorkloadScale::pages(1_024), passes)),
        arrival: ArrivalSchedule::Bursty {
            burst: 64,
            gap_ns: 100,
            idle_ns: 5_000,
        },
        quota_pages: 64,
        weight: 1,
        floor_pages: 16,
        slo: SloClass::Batch,
        seed,
    }
}

/// Serves `specs` to completion on the 256-page hierarchy under `policy`.
pub fn serve(policy: PartitionPolicy, specs: Vec<TenantSpec>) -> ServeOutcome {
    let mut registry = TenantRegistry::new(TIER1_PAGES, policy);
    for spec in specs {
        registry.admit(spec).expect("bench tenants always fit");
    }
    let config = ServeConfig {
        gmt: GmtConfig::new(geometry()),
        partition: policy,
    };
    let service = TieredService::new(&config, registry).expect("bench config is valid");
    service.serve(ExecutorConfig::default(), TRACE_CAPACITY)
}

/// The isolation sweep's runs.
pub struct Isolation {
    /// The Zipf tenant alone, with the whole Tier-1 to itself.
    pub solo: ServeOutcome,
    /// The Zipf tenant beside the scan, under each of
    /// [`PartitionPolicy::ALL`] in order.
    pub paired: Vec<(PartitionPolicy, ServeOutcome)>,
}

impl Isolation {
    /// The Zipf tenant's Tier-1 hit rate in `out`.
    pub fn zipf_hit_rate(out: &ServeOutcome) -> f64 {
        out.report.tenant("zipf").expect("zipf ran").t1_hit_rate
    }

    /// How far `policy` let the scan pull the Zipf tenant's hit rate
    /// below its solo run.
    pub fn zipf_drop(&self, policy: PartitionPolicy) -> f64 {
        let (_, out) = self
            .paired
            .iter()
            .find(|(p, _)| *p == policy)
            .expect("every policy ran");
        Isolation::zipf_hit_rate(&self.solo) - Isolation::zipf_hit_rate(out)
    }

    /// One verdict per isolation threshold.
    pub fn verdicts(&self) -> Vec<Verdict> {
        isolation_verdicts(
            Isolation::zipf_hit_rate(&self.solo),
            self.zipf_drop(PartitionPolicy::StrictQuota),
            self.zipf_drop(PartitionPolicy::SharedQos),
            self.zipf_drop(PartitionPolicy::FullyShared),
        )
    }
}

/// Runs the isolation sweep: `zipf_accesses` Zipf accesses (seed
/// `seed + 10`) solo, then beside `scan_passes` passes of the scan
/// (seed `seed + 22`) under every policy. The scan's arrival stream is
/// paced to span the Zipf tenant's whole window at 88 passes per 4,000
/// accesses, so a shared clock feels its pressure end to end.
pub fn isolation(zipf_accesses: usize, scan_passes: usize, seed: u64) -> Isolation {
    let zipf = || zipf_tenant("zipf", zipf_accesses, seed + 10);
    let solo = serve(PartitionPolicy::FullyShared, vec![zipf()]);
    let paired = PartitionPolicy::ALL
        .into_iter()
        .map(|policy| {
            let specs = vec![zipf(), scan_tenant(scan_passes, seed + 22)];
            (policy, serve(policy, specs))
        })
        .collect();
    Isolation { solo, paired }
}

/// The three-class front-end service over the 256-page hierarchy under
/// `SharedQos`: an interactive 192-page Zipf tenant, a standard 256-page
/// Zipf tenant and a batch tenant running `batch`, each on the floor
/// [`suggested_floor`] gives its class. The `frontend_slo` capture's
/// batch tenant is a 512-page sequential scan; hotpath's is a 512-page
/// Zipf loop, as in e2ebench's `serve_frontend`.
pub fn frontend_service(batch: Box<dyn Workload>) -> TieredService {
    let mut registry = TenantRegistry::new(TIER1_PAGES, PartitionPolicy::SharedQos);
    let zipf = |pages| -> Box<dyn Workload> {
        Box::new(ZipfLoop::new(&WorkloadScale::pages(pages), 1.0, 0.05, 1))
    };
    for (name, workload, weight, slo, seed) in [
        ("interactive", zipf(192), 3, SloClass::Interactive, 11),
        ("standard", zipf(256), 2, SloClass::Standard, 12),
        ("batch", batch, 1, SloClass::Batch, 13),
    ] {
        registry
            .admit(TenantSpec {
                name: name.into(),
                workload,
                arrival: ArrivalSchedule::Uniform { gap_ns: 1 },
                quota_pages: 0,
                weight,
                floor_pages: suggested_floor(slo, TIER1_PAGES, 1),
                slo,
                seed,
            })
            .expect("bench tenants always fit");
    }
    let mut gmt = GmtConfig::new(geometry());
    // Six connections, two per tenant, arriving fast enough that the
    // batcher and the admission thresholds both see real pressure.
    gmt.frontend.connections = 6;
    gmt.frontend.mean_interarrival_ns = 800_000;
    gmt.frontend.max_request_pages = 12;
    gmt.frontend.max_delay_ns = 30_000;
    gmt.frontend.defer_threshold = 24;
    gmt.frontend.shed_threshold = 96;
    let config = ServeConfig {
        gmt,
        partition: PartitionPolicy::SharedQos,
    };
    TieredService::new(&config, registry).expect("bench config is valid")
}

/// One acceptance threshold, checked: `<what>: <measured> <op> <bound>`
/// and whether it held.
#[derive(Debug)]
pub struct Verdict {
    line: String,
    pass: bool,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let result = if self.pass { "pass" } else { "fail" };
        write!(f, "verdict {}: {result}", self.line)
    }
}

/// `Ok` when every verdict passes, else the failed ones, one per line.
///
/// # Errors
///
/// Returns each failed verdict's line.
pub fn check(verdicts: &[Verdict]) -> Result<(), String> {
    let failed: Vec<String> = verdicts
        .iter()
        .filter(|v| !v.pass)
        .map(Verdict::to_string)
        .collect();
    if failed.is_empty() {
        Ok(())
    } else {
        Err(failed.join("\n"))
    }
}

/// How a measured value must compare with its bound.
#[derive(Debug, Clone, Copy)]
enum Cmp {
    AtMost,
    AtLeast,
    Above,
    Below,
}

/// Checks each `(what, measured, cmp, bound)` row, rendering the two
/// values with `show`.
fn verdicts(show: fn(f64) -> String, rows: &[(&str, f64, Cmp, f64)]) -> Vec<Verdict> {
    let verdict = |&(what, measured, cmp, bound): &(&str, f64, Cmp, f64)| {
        let (op, pass) = match cmp {
            Cmp::AtMost => ("<=", measured <= bound),
            Cmp::AtLeast => (">=", measured >= bound),
            Cmp::Above => (">", measured > bound),
            Cmp::Below => ("<", measured < bound),
        };
        let line = format!("{what}: {} {op} {}", show(measured), show(bound));
        Verdict { line, pass }
    };
    rows.iter().map(verdict).collect()
}

/// The isolation thresholds over the solo hit rate and each policy's
/// drop from it, in percentage points: strict-quota and shared-qos
/// within 10 % of solo, fully-shared past strict-quota, 1.5 ×
/// shared-qos and 3 pp.
fn isolation_verdicts(solo: f64, strict: f64, qos: f64, shared: f64) -> Vec<Verdict> {
    use Cmp::{Above, AtMost};
    let tenth = 0.10 * solo;
    verdicts(
        |rate| format!("{:.2} pp", 100.0 * rate),
        &[
            ("strict-quota drop vs 10% of solo", strict, AtMost, tenth),
            ("shared-qos drop vs 10% of solo", qos, AtMost, tenth),
            ("fully-shared drop vs strict-quota's", shared, Above, strict),
            (
                "fully-shared drop vs 1.5 x shared-qos's",
                shared,
                Above,
                1.5 * qos,
            ),
            ("fully-shared drop vs 3 pp", shared, Above, 0.03),
        ],
    )
}

/// One verdict per front-end threshold: the interactive class's
/// SLO-violation rate at most 0.05, batch absorbing at least 100
/// deferrals and more than the other classes together, and flushes on
/// both sides of the zero-copy crossover.
///
/// # Panics
///
/// Panics if a class served no request.
pub fn frontend_verdicts(report: &FrontendReport) -> Vec<Verdict> {
    let class = |c: SloClass| {
        report
            .class(c)
            .unwrap_or_else(|| panic!("{c} requests must appear in the run"))
    };
    let (interactive, standard) = (class(SloClass::Interactive), class(SloClass::Standard));
    let sum = |field: fn(&SloClassSummary) -> u64| report.classes.iter().map(field).sum();
    frontend_thresholds(
        interactive.violation_rate(),
        class(SloClass::Batch).defers,
        interactive.defers + standard.defers,
        sum(|s| s.zero_copy_flushes),
        sum(|s| s.flushes),
    )
}

/// The front-end thresholds over the interactive violation rate, the
/// batch and the other classes' defers, and the flush counts.
fn frontend_thresholds(
    violation: f64,
    batch: u64,
    others: u64,
    zero_copy: u64,
    flushes: u64,
) -> Vec<Verdict> {
    use Cmp::{Above, AtLeast, AtMost, Below};
    let (batch, zero_copy) = (batch as f64, zero_copy as f64);
    let mut out = verdicts(
        |rate| format!("{rate:.4}"),
        &[("interactive violation rate", violation, AtMost, 0.05)],
    );
    out.extend(verdicts(
        |n| format!("{n:.0}"),
        &[
            ("batch defers", batch, AtLeast, 100.0),
            ("batch defers vs the others'", batch, Above, others as f64),
            ("zero-copy flushes", zero_copy, Above, 0.0),
            ("zero-copy flushes vs all", zero_copy, Below, flushes as f64),
        ],
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Verdict `i` of `verdicts` holds iff `pass`, and is the only one
    /// that can fail.
    fn assert_verdict(verdicts: &[Verdict], i: usize, pass: bool) {
        let others_pass = verdicts.iter().enumerate().all(|(j, v)| j == i || v.pass);
        assert!(others_pass, "only verdict {i} is under test: {verdicts:?}");
        let rendered = verdicts[i].to_string();
        let result = if pass { ": pass" } else { ": fail" };
        assert!(rendered.ends_with(result), "{rendered}");
        assert_eq!(check(verdicts), if pass { Ok(()) } else { Err(rendered) });
    }

    #[test]
    fn isolation_thresholds_pass_at_their_bounds_and_fail_past_them() {
        let solo = 0.95f64;
        let tenth = 0.10 * solo;
        // A strict `>` bound fails at the bound and passes one step past.
        for (strict, qos, shared, i, pass) in [
            (tenth, 0.01, 0.2, 0, true),
            (tenth.next_up(), 0.01, 0.2, 0, false),
            (0.0, tenth, 0.2, 1, true),
            (0.0, tenth.next_up(), 0.2, 1, false),
            (0.05, 0.01, 0.05f64.next_up(), 2, true),
            (0.05, 0.01, 0.05, 2, false),
            (0.0, 0.04, (1.5 * 0.04f64).next_up(), 3, true),
            (0.0, 0.04, 1.5 * 0.04, 3, false),
            (0.0, 0.01, 0.03f64.next_up(), 4, true),
            (0.0, 0.01, 0.03, 4, false),
        ] {
            assert_verdict(&isolation_verdicts(solo, strict, qos, shared), i, pass);
        }
    }

    #[test]
    fn frontend_thresholds_pass_at_their_bounds_and_fail_past_them() {
        for (violation, batch, others, zero_copy, i, pass) in [
            (0.05, 200, 10, 5, 0, true),
            (0.05f64.next_up(), 200, 10, 5, 0, false),
            (0.0, 100, 10, 5, 1, true),
            (0.0, 99, 10, 5, 1, false),
            (0.0, 200, 199, 5, 2, true),
            (0.0, 200, 200, 5, 2, false),
            (0.0, 200, 10, 1, 3, true),
            (0.0, 200, 10, 0, 3, false),
            (0.0, 200, 10, 8, 4, true),
            (0.0, 200, 10, 9, 4, false),
        ] {
            let verdicts = frontend_thresholds(violation, batch, others, zero_copy, 9);
            assert_verdict(&verdicts, i, pass);
        }
    }
}
