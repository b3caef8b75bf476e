//! Per-tenant serving reports distilled from the stamped trace.

use std::fmt;

use gmt_analysis::tracesum::{jain_fairness, TenantTraceSummary};
use gmt_core::TieringMetrics;

use crate::PartitionPolicy;

/// One tenant's view of a serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// The tenant's dense id.
    pub tenant: u32,
    /// The tenant's name, from its [`crate::TenantSpec`].
    pub name: String,
    /// Warp accesses the tenant issued.
    pub accesses: u64,
    /// Coalesced page touches hitting Tier-1.
    pub t1_hits: u64,
    /// Coalesced page touches missing Tier-1.
    pub t1_misses: u64,
    /// Tier-1 hit rate over the tenant's own touches (0.0 if none).
    pub t1_hit_rate: f64,
    /// Median miss-service latency, ns (`None` if every touch hit).
    pub p50_miss_service_ns: Option<u64>,
    /// Tail (p99) miss-service latency, ns.
    pub p99_miss_service_ns: Option<u64>,
}

/// The whole run: every tenant plus the cross-tenant fairness index.
///
/// # Examples
///
/// ```
/// use gmt_serve::{PartitionPolicy, ServeReport};
///
/// let report = ServeReport::from_summaries(
///     PartitionPolicy::FullyShared,
///     &["only".to_string()],
///     &[],
///     &[Default::default()],
/// );
/// assert_eq!(report.tenants.len(), 1);
/// assert_eq!(report.tenants[0].t1_hit_rate, 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// The Tier-1 partitioning the run used.
    pub policy: PartitionPolicy,
    /// One report per tenant, in tenant-id order.
    pub tenants: Vec<TenantReport>,
    /// Jain fairness index over the tenants' Tier-1 hit rates
    /// (1.0 = perfectly even, toward `1/n` = one tenant dominates).
    pub jain_hit_rate: f64,
}

impl ServeReport {
    /// Distills per-tenant results from the tenant summaries of a
    /// stamped trace (folded straight out of the ring by
    /// `TenantSummaryBuilder`) and the per-tenant counters. Tenants that
    /// emitted no trace records still get a (zeroed) row, so the report
    /// always covers `names`.
    pub fn from_summaries(
        policy: PartitionPolicy,
        names: &[String],
        summaries: &[TenantTraceSummary],
        per_tenant: &[TieringMetrics],
    ) -> ServeReport {
        assert_eq!(
            names.len(),
            per_tenant.len(),
            "one metrics entry per tenant name"
        );
        let tenants: Vec<TenantReport> = names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let summary = summaries.iter().find(|s| s.tenant == i as u32);
                let metrics = &per_tenant[i];
                let touches = metrics.t1_hits + metrics.t1_misses;
                TenantReport {
                    tenant: i as u32,
                    name: name.clone(),
                    accesses: metrics.accesses,
                    t1_hits: metrics.t1_hits,
                    t1_misses: metrics.t1_misses,
                    t1_hit_rate: if touches == 0 {
                        0.0
                    } else {
                        metrics.t1_hits as f64 / touches as f64
                    },
                    p50_miss_service_ns: summary.and_then(|s| s.miss_service_percentile(50.0)),
                    p99_miss_service_ns: summary.and_then(|s| s.miss_service_percentile(99.0)),
                }
            })
            .collect();
        let rates: Vec<f64> = tenants.iter().map(|t| t.t1_hit_rate).collect();
        ServeReport {
            policy,
            tenants,
            jain_hit_rate: jain_fairness(&rates),
        }
    }

    /// The report row for the named tenant, if present.
    pub fn tenant(&self, name: &str) -> Option<&TenantReport> {
        self.tenants.iter().find(|t| t.name == name)
    }
}

impl fmt::Display for ServeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "  {:<12} {:>9} {:>9} {:>9} {:>8} {:>12} {:>12}",
            "tenant", "accesses", "t1_hits", "t1_miss", "hit%", "p50_miss_ns", "p99_miss_ns"
        )?;
        for t in &self.tenants {
            writeln!(
                f,
                "  {:<12} {:>9} {:>9} {:>9} {:>7.2}% {:>12} {:>12}",
                t.name,
                t.accesses,
                t.t1_hits,
                t.t1_misses,
                100.0 * t.t1_hit_rate,
                t.p50_miss_service_ns
                    .map_or_else(|| "-".to_string(), |v| v.to_string()),
                t.p99_miss_service_ns
                    .map_or_else(|| "-".to_string(), |v| v.to_string()),
            )?;
        }
        write!(
            f,
            "  jain(hit-rate) = {:.4}  [{}]",
            self.jain_hit_rate, self.policy
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(hits: u64, misses: u64) -> TieringMetrics {
        TieringMetrics {
            accesses: hits + misses,
            t1_hits: hits,
            t1_misses: misses,
            ..Default::default()
        }
    }

    #[test]
    fn silent_tenants_still_get_rows() {
        let names = vec!["loud".to_string(), "silent".to_string()];
        let report = ServeReport::from_summaries(
            PartitionPolicy::StrictQuota,
            &names,
            &[],
            &[metrics(9, 1), metrics(0, 0)],
        );
        assert_eq!(report.tenants.len(), 2);
        assert!((report.tenants[0].t1_hit_rate - 0.9).abs() < 1e-12);
        assert_eq!(report.tenants[1].t1_hit_rate, 0.0);
        assert_eq!(report.tenants[1].p50_miss_service_ns, None);
    }

    #[test]
    fn lookup_by_name() {
        let names = vec!["a".to_string(), "b".to_string()];
        let report = ServeReport::from_summaries(
            PartitionPolicy::FullyShared,
            &names,
            &[],
            &[metrics(1, 0), metrics(0, 1)],
        );
        assert_eq!(report.tenant("b").unwrap().tenant, 1);
        assert!(report.tenant("c").is_none());
    }

    #[test]
    fn even_rates_are_perfectly_fair() {
        let names = vec!["a".to_string(), "b".to_string()];
        let report = ServeReport::from_summaries(
            PartitionPolicy::SharedQos,
            &names,
            &[],
            &[metrics(5, 5), metrics(50, 50)],
        );
        assert!((report.jain_hit_rate - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display_renders_a_table() {
        let names = vec!["zipf".to_string()];
        let report = ServeReport::from_summaries(
            PartitionPolicy::WeightedShares,
            &names,
            &[],
            &[metrics(3, 1)],
        );
        let text = report.to_string();
        assert!(text.contains("zipf"));
        assert!(text.contains("75.00%"));
        assert!(text.contains("jain(hit-rate)"));
        assert!(text.contains("weighted-shares"));
    }
}
