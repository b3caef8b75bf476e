//! Tenant specification and admission control.

use std::fmt;

use gmt_sim::trace::SloClass;
use gmt_workloads::Workload;

use crate::{ArrivalSchedule, PartitionPolicy, TenantId};

/// Everything a tenant brings to admission: its workload, its arrival
/// process, and its resource asks.
///
/// Which ask matters depends on the registry's [`PartitionPolicy`]:
/// `quota_pages` sizes the private slice under
/// [`PartitionPolicy::StrictQuota`], `weight` steers victim selection
/// under [`PartitionPolicy::WeightedShares`], and `floor_pages` is the
/// eviction-exempt reservation under [`PartitionPolicy::SharedQos`].
/// Unused asks are simply ignored, so one spec can be replayed across
/// all four policies for paired comparisons.
pub struct TenantSpec {
    /// Human-readable name for reports.
    pub name: String,
    /// The tenant's workload (page stream in the tenant's own
    /// `0..total_pages` namespace; the service relocates it).
    pub workload: Box<dyn Workload>,
    /// When successive accesses arrive.
    pub arrival: ArrivalSchedule,
    /// Private Tier-1 slice, pages (strict quota).
    pub quota_pages: usize,
    /// Relative share of Tier-1 under contention (weighted shares).
    pub weight: u32,
    /// Eviction-exempt Tier-1 reservation, pages (shared QoS).
    pub floor_pages: usize,
    /// Service-level objective class. The serving front-end uses it to
    /// prioritize flushes and grade completions against the class's
    /// p99 target; replay-only services carry it through to reports.
    pub slo: SloClass,
    /// Seeds this tenant's trace and arrival draws.
    pub seed: u64,
}

impl fmt::Debug for TenantSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TenantSpec")
            .field("name", &self.name)
            .field("workload", &self.workload.name())
            .field("arrival", &self.arrival)
            .field("quota_pages", &self.quota_pages)
            .field("weight", &self.weight)
            .field("floor_pages", &self.floor_pages)
            .field("slo", &self.slo)
            .field("seed", &self.seed)
            .finish()
    }
}

/// Why a tenant was refused admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The tenant's weight is zero — it could never win capacity.
    ZeroWeight {
        /// The refused tenant's name.
        tenant: String,
    },
    /// A strict-quota tenant asked for an empty slice.
    ZeroQuota {
        /// The refused tenant's name.
        tenant: String,
    },
    /// Admitting the tenant would oversubscribe strict quotas.
    QuotaOverflow {
        /// The refused tenant's name.
        tenant: String,
        /// Pages the tenant asked for.
        requested: usize,
        /// Pages still unclaimed.
        available: usize,
    },
    /// Admitting the tenant's floor would leave no evictable Tier-1
    /// page (QoS eviction requires `Σ floors < tier1_pages`).
    FloorOverflow {
        /// The refused tenant's name.
        tenant: String,
        /// Floor pages the tenant asked for.
        requested: usize,
        /// Floor pages still grantable.
        available: usize,
    },
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::ZeroWeight { tenant } => {
                write!(f, "tenant {tenant:?} has zero weight")
            }
            AdmissionError::ZeroQuota { tenant } => {
                write!(f, "tenant {tenant:?} asked for a zero-page quota")
            }
            AdmissionError::QuotaOverflow {
                tenant,
                requested,
                available,
            } => write!(
                f,
                "tenant {tenant:?} asked for {requested} quota pages but only {available} remain"
            ),
            AdmissionError::FloorOverflow {
                tenant,
                requested,
                available,
            } => write!(
                f,
                "tenant {tenant:?} asked for a {requested}-page floor but only {available} \
                 are grantable (floors must sum below tier-1)"
            ),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Admission control: validates each [`TenantSpec`] against the
/// policy's capacity constraints *before* the service is built, and
/// assigns each admitted tenant a disjoint range of the global page
/// namespace.
///
/// # Examples
///
/// ```
/// use gmt_serve::{ArrivalSchedule, PartitionPolicy, SloClass, TenantRegistry, TenantSpec};
/// use gmt_workloads::synthetic::ZipfLoop;
/// use gmt_workloads::WorkloadScale;
///
/// let mut registry = TenantRegistry::new(256, PartitionPolicy::StrictQuota);
/// let id = registry
///     .admit(TenantSpec {
///         name: "zipf".into(),
///         workload: Box::new(ZipfLoop::new(&WorkloadScale::tiny(), 1.1, 0.1, 1_000)),
///         arrival: ArrivalSchedule::Uniform { gap_ns: 200 },
///         quota_pages: 128,
///         weight: 1,
///         floor_pages: 0,
///         slo: SloClass::Standard,
///         seed: 7,
///     })
///     .expect("fits");
/// assert_eq!(id.index(), 0);
/// assert_eq!(registry.len(), 1);
/// ```
#[derive(Debug)]
pub struct TenantRegistry {
    tier1_pages: usize,
    policy: PartitionPolicy,
    specs: Vec<TenantSpec>,
    /// First global page of each tenant's range, ascending.
    bases: Vec<u64>,
    /// One past the last allocated global page.
    next_base: u64,
}

impl TenantRegistry {
    /// An empty registry partitioning `tier1_pages` under `policy`.
    pub fn new(tier1_pages: usize, policy: PartitionPolicy) -> TenantRegistry {
        TenantRegistry {
            tier1_pages,
            policy,
            specs: Vec::new(),
            bases: Vec::new(),
            next_base: 0,
        }
    }

    /// Admits `spec`, or explains why its asks are unsatisfiable.
    ///
    /// Checks are policy-aware: quotas are only accounted under
    /// [`PartitionPolicy::StrictQuota`], floors only under
    /// [`PartitionPolicy::SharedQos`]. Weights must always be positive
    /// (reports divide by them).
    ///
    /// # Errors
    ///
    /// Returns the violated constraint as an [`AdmissionError`].
    pub fn admit(&mut self, spec: TenantSpec) -> Result<TenantId, AdmissionError> {
        if spec.weight == 0 {
            return Err(AdmissionError::ZeroWeight { tenant: spec.name });
        }
        if self.policy == PartitionPolicy::StrictQuota {
            if spec.quota_pages == 0 {
                return Err(AdmissionError::ZeroQuota { tenant: spec.name });
            }
            let claimed: usize = self.specs.iter().map(|s| s.quota_pages).sum();
            let available = self.tier1_pages - claimed;
            if spec.quota_pages > available {
                return Err(AdmissionError::QuotaOverflow {
                    tenant: spec.name,
                    requested: spec.quota_pages,
                    available,
                });
            }
        }
        if self.policy == PartitionPolicy::SharedQos {
            let reserved: usize = self.specs.iter().map(|s| s.floor_pages).sum();
            // Strictly below capacity: a full Tier-1 must always hold at
            // least one page owned by an above-floor tenant, or QoS
            // eviction could not terminate.
            let available = (self.tier1_pages - reserved).saturating_sub(1);
            if spec.floor_pages > available {
                return Err(AdmissionError::FloorOverflow {
                    tenant: spec.name,
                    requested: spec.floor_pages,
                    available,
                });
            }
        }
        let id = TenantId(self.specs.len() as u32);
        self.bases.push(self.next_base);
        self.next_base += spec.workload.total_pages() as u64;
        self.specs.push(spec);
        Ok(id)
    }

    /// Number of admitted tenants.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether no tenant has been admitted.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The policy tenants were admitted under.
    pub fn policy(&self) -> PartitionPolicy {
        self.policy
    }

    /// Tier-1 capacity the registry partitions, in pages.
    pub fn tier1_pages(&self) -> usize {
        self.tier1_pages
    }

    /// The admitted specs, in admission order.
    pub fn specs(&self) -> &[TenantSpec] {
        &self.specs
    }

    /// First global page of each tenant's range, in admission order.
    pub fn bases(&self) -> &[u64] {
        &self.bases
    }

    /// Total global pages across every tenant's range.
    pub fn total_pages(&self) -> usize {
        self.next_base as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmt_workloads::synthetic::SequentialScan;
    use gmt_workloads::WorkloadScale;

    fn spec(name: &str, quota: usize, weight: u32, floor: usize) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            workload: Box::new(SequentialScan::new(&WorkloadScale::tiny(), 1)),
            arrival: ArrivalSchedule::Uniform { gap_ns: 100 },
            quota_pages: quota,
            weight,
            floor_pages: floor,
            slo: SloClass::Standard,
            seed: 1,
        }
    }

    #[test]
    fn strict_quotas_must_fit() {
        let mut r = TenantRegistry::new(100, PartitionPolicy::StrictQuota);
        r.admit(spec("a", 60, 1, 0)).expect("fits");
        let err = r.admit(spec("b", 50, 1, 0)).unwrap_err();
        assert_eq!(
            err,
            AdmissionError::QuotaOverflow {
                tenant: "b".into(),
                requested: 50,
                available: 40,
            }
        );
        r.admit(spec("c", 40, 1, 0)).expect("exactly fills");
    }

    #[test]
    fn zero_asks_are_rejected() {
        let mut r = TenantRegistry::new(100, PartitionPolicy::StrictQuota);
        assert!(matches!(
            r.admit(spec("z", 0, 1, 0)),
            Err(AdmissionError::ZeroQuota { .. })
        ));
        assert!(matches!(
            r.admit(spec("w", 10, 0, 0)),
            Err(AdmissionError::ZeroWeight { .. })
        ));
    }

    #[test]
    fn qos_floors_must_sum_strictly_below_tier1() {
        let mut r = TenantRegistry::new(100, PartitionPolicy::SharedQos);
        r.admit(spec("a", 0, 1, 60)).expect("fits");
        assert!(matches!(
            r.admit(spec("b", 0, 1, 40)),
            Err(AdmissionError::FloorOverflow { available: 39, .. })
        ));
        r.admit(spec("c", 0, 1, 39)).expect("leaves one evictable");
    }

    #[test]
    fn quota_checks_do_not_apply_to_shared_policies() {
        let mut r = TenantRegistry::new(10, PartitionPolicy::FullyShared);
        // Quota far beyond tier-1: irrelevant under a shared clock.
        r.admit(spec("big", 1_000, 1, 0)).expect("admitted");
    }

    #[test]
    fn tenants_get_disjoint_ascending_ranges() {
        let mut r = TenantRegistry::new(100, PartitionPolicy::FullyShared);
        let span = SequentialScan::new(&WorkloadScale::tiny(), 1).total_pages() as u64;
        r.admit(spec("a", 1, 1, 0)).unwrap();
        r.admit(spec("b", 1, 1, 0)).unwrap();
        assert_eq!(r.bases(), &[0, span]);
        assert_eq!(r.total_pages() as u64, 2 * span);
    }

    #[test]
    fn admission_errors_render_readable_messages() {
        let err = AdmissionError::QuotaOverflow {
            tenant: "scan".into(),
            requested: 64,
            available: 8,
        };
        assert_eq!(
            err.to_string(),
            "tenant \"scan\" asked for 64 quota pages but only 8 remain"
        );
    }
}
