//! Does host memory still matter when storage gets faster? Sweep BaM and
//! GMT-Reuse over striped SSD arrays (1-8 devices) on a Tier-2-friendly
//! workload.
//!
//! BaM's own evaluation scales to SSD arrays; GMT's thesis is that a
//! *memory* tier beats merely adding flash bandwidth for reuse-heavy
//! workloads. This example tests that thesis on the simulated substrate.
//!
//! ```sh
//! cargo run --release --example ssd_scaling
//! ```

use gmt::analysis::runner::geometry_for;
use gmt::analysis::table::{fmt_ratio, Table};
use gmt::baselines::{Bam, BamConfig};
use gmt::core::{Gmt, GmtConfig};
use gmt::gpu::{Executor, ExecutorConfig};
use gmt::workloads::{srad::Srad, Workload, WorkloadScale};

fn main() {
    let workload = Srad::with_scale(&WorkloadScale::pages(5_120));
    let geometry = geometry_for(&workload, 4.0, 2.0);
    let trace = workload.trace(1);
    let exec = Executor::new(ExecutorConfig::default());

    let baseline = exec.run(Bam::new(BamConfig::new(geometry)), trace.iter().cloned());
    println!(
        "Srad, Tier-1 = {} pages; all speedups vs 1-SSD BaM\n",
        geometry.tier1_pages
    );

    let mut table = Table::new(vec!["SSDs", "BaM", "GMT-Reuse", "GMT edge"]);
    for devices in [1usize, 2, 4, 8] {
        let bam = exec.run(
            Bam::new(BamConfig::new(geometry).with_devices(devices)),
            trace.iter().cloned(),
        );
        let gmt = exec.run(
            Gmt::new(GmtConfig {
                ssd_devices: devices,
                ..GmtConfig::new(geometry)
            }),
            trace.iter().cloned(),
        );
        let bam_speed = baseline.elapsed.as_secs_f64() / bam.elapsed.as_secs_f64();
        let gmt_speed = baseline.elapsed.as_secs_f64() / gmt.elapsed.as_secs_f64();
        table.row(vec![
            devices.to_string(),
            fmt_ratio(bam_speed),
            fmt_ratio(gmt_speed),
            fmt_ratio(gmt_speed / bam_speed),
        ]);
    }
    println!("{table}");
    println!("The \"GMT edge\" column shows how much of Tier-2's advantage survives");
    println!("as raw flash bandwidth grows — it shrinks, but host memory's lower");
    println!("latency keeps it positive until storage stops being the bottleneck.");
}
