//! Every runtime knob changes what a run measures: no config field is
//! dead.
//!
//! Each test destructures one config struct without `..`, so a new field
//! does not compile here (E0027) until it is named, and
//! `unused_variables` is denied, so a named field needs a case. A case
//! changes that one field of a small seeded run's configuration and
//! asserts the run's fingerprint moves: its `TieringMetrics` plus
//! elapsed time, or the front-end's report.
//!
//! The validate() half of the contract is rustc's too: each `validate`
//! destructures its struct the same way, so a new field must be
//! range-checked there or bound as `field: _` with a reason.

#![deny(unused_variables)]

use gmt::core::{
    FrontendConfig, Gmt, GmtConfig, MarkovScope, PolicyKind, PredictorKind, ReuseConfig,
    Tier2Insert,
};
use gmt::frontend::Frontend;
use gmt::gpu::{Executor, ExecutorConfig};
use gmt::mem::TierGeometry;
use gmt::pcie::{HostLinkConfig, TransferMethod};
use gmt::reuse::SamplerConfig;
use gmt::serve::{
    ArrivalSchedule, PartitionPolicy, ServeConfig, SloClass, TenantRegistry, TenantSpec,
    TieredService,
};
use gmt::ssd::SsdConfig;
use gmt::workloads::synthetic::ZipfLoop;
use gmt::workloads::{Workload, WorkloadScale};

const SEED: u64 = 7;

/// `$base` with only `$field` set to `$value`, named after the field.
/// Naming the destructured binding marks the field as covered.
macro_rules! change {
    ($base:expr, $field:ident => $value:expr) => {{
        let _covered = &$field;
        let mut changed = $base;
        changed.$field = $value;
        (stringify!($field), changed)
    }};
}

/// Skewed point accesses with writes: Tier-1 misses, Tier-2 hits and
/// fills, SSD reads and dirty writebacks all occur.
fn workload() -> ZipfLoop {
    ZipfLoop::new(&WorkloadScale::pages(1_000), 0.8, 0.3, 12_000)
}

/// The paper's default runtime over the workload at a Tier-2:Tier-1
/// ratio of 4 and an over-subscription of 2: Tier-1 holds 100 of the
/// 1,000 pages and Tier-2 400.
fn config() -> GmtConfig {
    GmtConfig::new(TierGeometry::from_total(workload().total_pages(), 4.0, 2.0))
}

/// The closed-loop run's counters and elapsed time. Few warps keep
/// the run latency-bound, so every latency on a fetch's path shows.
fn gmt_run(config: &GmtConfig) -> String {
    let executor = Executor::new(ExecutorConfig {
        warp_slots: 2,
        ..ExecutorConfig::default()
    });
    let out = executor.run(Gmt::new(*config), workload().trace(SEED));
    format!("{:?} {}", out.backend.metrics(), out.elapsed)
}

/// Asserts that `changed`, which differs from `base` in `field` only,
/// moves the fingerprint `run` takes.
fn assert_moves(field: &str, run: fn(&GmtConfig) -> String, base: GmtConfig, changed: GmtConfig) {
    assert_ne!(base, changed, "{field}: the case changes nothing");
    assert_ne!(
        run(&base),
        run(&changed),
        "{field}: a changed value moves no output, so the knob is dead"
    );
}

#[test]
fn every_gmt_config_knob_moves_a_run() {
    let base = config();
    let GmtConfig {
        geometry,
        policy,
        transfer,
        tier2_insert,
        // The sub-configs' fields each have a case in their own test.
        host_link: _,
        ssd: _,
        ssd_devices,
        reuse: _,
        prefetch_degree,
        async_eviction,
        frontend: _,
        seed,
    } = base;
    let tier_order = base.with_policy(PolicyKind::TierOrder);
    let random = base.with_policy(PolicyKind::Random);
    let half_tier1 = TierGeometry {
        tier1_pages: geometry.tier1_pages / 2,
        ..geometry
    };
    let cases = [
        (base, change!(base, geometry => half_tier1)),
        (base, change!(base, policy => PolicyKind::TierOrder)),
        (base, change!(base, transfer => TransferMethod::ZeroCopy)),
        // Reuse already rejects when full; TierOrder evicts FIFO.
        (
            tier_order,
            change!(tier_order, tier2_insert => Some(Tier2Insert::RejectWhenFull)),
        ),
        (base, change!(base, ssd_devices => ssd_devices * 4)),
        (base, change!(base, prefetch_degree => 4)),
        (base, change!(base, async_eviction => !async_eviction)),
        // GMT-Random's coin is the seed's consumer.
        (random, change!(random, seed => seed + 1)),
    ];
    for (run_base, (field, changed)) in cases {
        assert_moves(field, gmt_run, run_base, changed);
    }
}

#[test]
fn every_reuse_knob_moves_a_run() {
    let base = config();
    let ReuseConfig {
        sampler,
        markov_scope,
        predictor,
        bypass_threshold,
        bypass_window,
        max_skips,
    } = base.reuse;
    let small_batches = SamplerConfig {
        batch_size: sampler.batch_size / 100,
        ..sampler
    };
    let cases = [
        change!(base.reuse, sampler => small_batches),
        change!(base.reuse, markov_scope => MarkovScope::PerPage),
        change!(base.reuse, predictor => PredictorKind::LastTier),
        change!(base.reuse, bypass_threshold => bypass_threshold / 2.0),
        change!(base.reuse, bypass_window => bypass_window / 8),
        change!(base.reuse, max_skips => 0),
    ];
    for (field, reuse) in cases {
        assert_moves(field, gmt_run, base, GmtConfig { reuse, ..base });
    }
}

#[test]
fn every_ssd_knob_moves_a_run() {
    let base = config();
    let SsdConfig {
        block_bytes,
        read_latency,
        write_latency,
        channels,
        channel_bytes_per_sec,
        link_bytes_per_sec,
        link_latency,
        submit_overhead,
    } = base.ssd;
    let cases = [
        // A power-of-two block divides a 64 KiB page; 1536 bytes does
        // not, so every command rounds up.
        change!(base.ssd, block_bytes => block_bytes * 3),
        change!(base.ssd, read_latency => read_latency * 2),
        change!(base.ssd, write_latency => write_latency * 2),
        change!(base.ssd, channels => channels / 4),
        change!(base.ssd, channel_bytes_per_sec => channel_bytes_per_sec / 2.0),
        change!(base.ssd, link_bytes_per_sec => link_bytes_per_sec / 2.0),
        change!(base.ssd, link_latency => link_latency * 10),
        change!(base.ssd, submit_overhead => submit_overhead * 10),
    ];
    for (field, ssd) in cases {
        assert_moves(field, gmt_run, base, GmtConfig { ssd, ..base });
    }
}

#[test]
fn every_host_link_knob_moves_a_run() {
    let base = config();
    let HostLinkConfig {
        link_bytes_per_sec,
        link_latency,
        dma_call_gap,
        pin_overhead,
        pin_per_page,
        per_thread_bytes_per_sec,
        lookup_cost,
    } = base.host_link;
    // Zero-copy batches are what pinning and per-thread bandwidth cost;
    // 32 threads at a tenth of the per-thread default fall below the
    // link's bandwidth.
    let zero_copy = GmtConfig {
        transfer: TransferMethod::ZeroCopy,
        ..base
    };
    let cases = [
        (
            base,
            change!(base.host_link, link_bytes_per_sec => link_bytes_per_sec / 2.0),
        ),
        (
            base,
            change!(base.host_link, link_latency => link_latency * 10),
        ),
        (
            base,
            change!(base.host_link, dma_call_gap => dma_call_gap * 10),
        ),
        (
            zero_copy,
            change!(base.host_link, pin_overhead => pin_overhead * 10),
        ),
        (
            zero_copy,
            change!(base.host_link, pin_per_page => pin_per_page * 10),
        ),
        (
            zero_copy,
            change!(base.host_link, per_thread_bytes_per_sec => per_thread_bytes_per_sec / 10.0),
        ),
        (
            base,
            change!(base.host_link, lookup_cost => lookup_cost * 10),
        ),
    ];
    for (run_base, (field, host_link)) in cases {
        let changed = GmtConfig {
            host_link,
            ..run_base
        };
        assert_moves(field, gmt_run, run_base, changed);
    }
}

const TIER1: usize = 64;

/// Two tenants behind the front-end: an interactive one, and a standard
/// one that is admitted against `defer_threshold`. `gmt` sets the
/// hierarchy and the front-end knobs.
fn frontend_run(gmt: &GmtConfig) -> String {
    let mut registry = TenantRegistry::new(TIER1, PartitionPolicy::SharedQos);
    for (name, pages, class, floor, seed) in [
        ("lookup", 128usize, SloClass::Interactive, 24usize, 5u64),
        ("churn", 256, SloClass::Standard, 0, 6),
    ] {
        registry
            .admit(TenantSpec {
                name: name.into(),
                workload: Box::new(ZipfLoop::new(&WorkloadScale::pages(pages), 1.0, 0.1, 1)),
                arrival: ArrivalSchedule::Uniform { gap_ns: 1 },
                quota_pages: 0,
                weight: 1,
                floor_pages: floor,
                slo: class,
                seed,
            })
            .expect("test tenants fit");
    }
    let config = ServeConfig {
        gmt: *gmt,
        partition: PartitionPolicy::SharedQos,
    };
    let service = TieredService::new(&config, registry).expect("valid test config");
    let out = Frontend::new(service, SEED, 200, 1 << 18).run();
    format!(
        "{} {} {} {:?} {}",
        out.elapsed,
        out.generated,
        out.shed,
        out.aggregate,
        out.report.render_json()
    )
}

#[test]
fn every_frontend_knob_moves_a_run() {
    // Small requests and tight thresholds: a batch holds several
    // requests before its flush, so arrivals are deferred and shed.
    let base = GmtConfig {
        frontend: FrontendConfig {
            max_request_pages: 4,
            defer_threshold: 8,
            shed_threshold: 16,
            ..FrontendConfig::default()
        },
        ..GmtConfig::new(TierGeometry::from_tier1(TIER1, 2.0, 2.0))
    };
    let FrontendConfig {
        connections,
        mean_interarrival_ns,
        max_request_pages,
        max_delay_ns,
        defer_threshold,
        shed_threshold,
    } = base.frontend;
    let cases = [
        change!(base.frontend, connections => connections / 2),
        change!(base.frontend, mean_interarrival_ns => mean_interarrival_ns * 2),
        change!(base.frontend, max_request_pages => max_request_pages / 2),
        change!(base.frontend, max_delay_ns => max_delay_ns / 4),
        change!(base.frontend, defer_threshold => defer_threshold / 4),
        change!(base.frontend, shed_threshold => shed_threshold / 2),
    ];
    for (field, frontend) in cases {
        assert_moves(field, frontend_run, base, GmtConfig { frontend, ..base });
    }
}
