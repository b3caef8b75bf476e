//! The engine's tenant table: who owns which pages and how Tier-1 is
//! divided among them.
//!
//! A single-tenant [`crate::Gmt`] is a table of one tenant spanning the
//! whole address space on one shared clock; a serving hierarchy is a
//! table of several, built with [`crate::Gmt::with_tenants`].

use std::fmt;

/// Identifies a tenant of the engine (dense, in table order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The id as a vector index.
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// One tenant's row in the engine's tenant table: its page range and
/// its Tier-1 asks. Which ask matters depends on the
/// [`PartitionPolicy`]; the others are ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantSlice {
    /// First page of the tenant's range in the engine's address space.
    pub base: u64,
    /// Pages in the range.
    pub span: usize,
    /// Private Tier-1 slice, pages ([`PartitionPolicy::StrictQuota`]).
    pub quota_pages: usize,
    /// Relative share of Tier-1 under contention
    /// ([`PartitionPolicy::WeightedShares`]); must be positive.
    pub weight: u32,
    /// Eviction-exempt Tier-1 reservation, pages
    /// ([`PartitionPolicy::SharedQos`]).
    pub floor_pages: usize,
}

/// How Tier-1 (GPU memory) is divided among the engine's tenants.
///
/// Tier-2, the SSD array and both PCIe directions are *always* shared —
/// partitioning governs only the scarce tier. The four policies span
/// the isolation ↔ utilization trade-off:
///
/// | Policy | Capacity isolation | Work-conserving |
/// |---|---|---|
/// | [`StrictQuota`](PartitionPolicy::StrictQuota) | hard | no |
/// | [`WeightedShares`](PartitionPolicy::WeightedShares) | proportional under contention | yes |
/// | [`SharedQos`](PartitionPolicy::SharedQos) | floor only | yes |
/// | [`FullyShared`](PartitionPolicy::FullyShared) | none | yes |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionPolicy {
    /// Each tenant owns a fixed slice of Tier-1 proportional to its
    /// share and may never exceed it, even when the rest sits idle.
    /// Evictions are always self-evictions.
    StrictQuota,
    /// Tenants may use any amount of Tier-1 while it is free; under
    /// pressure the victim comes from the tenant furthest *above* its
    /// weighted share, driving occupancies toward the share ratios
    /// without wasting idle capacity.
    WeightedShares,
    /// One shared clock over all of Tier-1, except that a tenant
    /// holding no more than its reserved floor is exempt from eviction
    /// — the QoS guarantee: a victim is never taken from a tenant at or
    /// below its floor.
    SharedQos,
    /// One shared clock, no protection: pure LRU-approximation across
    /// all tenants. The baseline that shows interference, and the
    /// organization of a single-tenant engine.
    FullyShared,
}

impl PartitionPolicy {
    /// Every policy, in the order benches sweep them.
    pub const ALL: [PartitionPolicy; 4] = [
        PartitionPolicy::StrictQuota,
        PartitionPolicy::WeightedShares,
        PartitionPolicy::SharedQos,
        PartitionPolicy::FullyShared,
    ];

    /// Short stable name for tables and CLI arguments.
    pub fn name(&self) -> &'static str {
        match self {
            PartitionPolicy::StrictQuota => "strict-quota",
            PartitionPolicy::WeightedShares => "weighted-shares",
            PartitionPolicy::SharedQos => "shared-qos",
            PartitionPolicy::FullyShared => "fully-shared",
        }
    }
}

impl fmt::Display for PartitionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_stable() {
        let names: Vec<_> = PartitionPolicy::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            vec![
                "strict-quota",
                "weighted-shares",
                "shared-qos",
                "fully-shared"
            ]
        );
        assert_eq!(PartitionPolicy::StrictQuota.to_string(), "strict-quota");
    }

    #[test]
    fn tenant_ids_index_and_display() {
        assert_eq!(TenantId(3).index(), 3);
        assert_eq!(TenantId(3).to_string(), "tenant3");
    }
}
