//! Configuration of the GMT runtime.

use gmt_mem::TierGeometry;
use gmt_pcie::{HostLinkConfig, TransferMethod};
use gmt_reuse::SamplerConfig;
use gmt_ssd::SsdConfig;

/// Which Tier-1 eviction placement policy runs (paper §2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// GMT-TierOrder: every victim goes to Tier-2; Tier-2's own FIFO
    /// spills to Tier-3 (§2.1.1).
    TierOrder,
    /// GMT-Random: a fair coin decides Tier-2 vs Tier-3 (§2.1.2).
    Random,
    /// GMT-Reuse: the RRD predictor decides Tier-1/Tier-2/Tier-3
    /// (§2.1.3) — the paper's proposal.
    Reuse,
}

impl PolicyKind {
    /// All three policies, in the paper's presentation order.
    pub const ALL: [PolicyKind; 3] = [PolicyKind::TierOrder, PolicyKind::Random, PolicyKind::Reuse];

    /// The paper's display name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::TierOrder => "GMT-TierOrder",
            PolicyKind::Random => "GMT-Random",
            PolicyKind::Reuse => "GMT-Reuse",
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What happens when a victim should enter a full Tier-2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier2Insert {
    /// Evict the oldest Tier-2 page (FIFO, §2.2) to make room — used by
    /// GMT-TierOrder and GMT-Random.
    EvictFifo,
    /// Evict with a clock sweep (ablation; degenerates towards FIFO
    /// because exclusive tiers never re-reference resident pages).
    EvictClock,
    /// Evict a uniformly random resident page (ablation).
    EvictRandom,
    /// Reject the insertion and bypass to Tier-3 — GMT-Reuse's choice,
    /// since every Tier-2 resident is already in the same reuse
    /// equivalence class (§2.1.3 "Overview").
    RejectWhenFull,
}

/// Where the Markov predictor's 3×3 transition weights live.
///
/// The paper keeps per-page state "negligible"; sharing one global matrix
/// is the default here, with a per-page variant for ablation (pages with
/// idiosyncratic patterns predict better per-page; sparse histories train
/// slower).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MarkovScope {
    /// One transition matrix shared by all pages (default).
    Global,
    /// One transition matrix per page.
    PerPage,
}

/// Which history predictor GMT-Reuse consults at eviction time.
///
/// The paper's Fig. 4c shows per-page RRDs that *alternate* between
/// evictions — a pattern a 1-level "same as last time" predictor gets
/// wrong every single time, which is exactly why §2.1.3 builds the
/// 2-level-history Markov chain. The alternatives are kept for ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredictorKind {
    /// The paper's 3-state Markov chain over 2-level history (Fig. 5).
    Markov,
    /// Predict the page's last correct tier (1-level history).
    LastTier,
    /// Always predict Tier-2 (history-blind TierOrder-flavoured default).
    AlwaysHost,
}

/// Knobs specific to GMT-Reuse.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReuseConfig {
    /// VTD sampling / regression pipeline parameters.
    pub sampler: SamplerConfig,
    /// Transition-weight sharing for the Markov predictor.
    pub markov_scope: MarkovScope,
    /// The history predictor (default: the paper's Markov chain).
    pub predictor: PredictorKind,
    /// Fraction of recent Tier-3 predictions beyond which predicted-Tier-3
    /// victims are forced into Tier-2 anyway (paper §2.2: 80 %).
    pub bypass_threshold: f64,
    /// Number of recent evictions the threshold is measured over.
    pub bypass_window: usize,
    /// Maximum short-reuse candidates skipped per eviction before the
    /// clock's pick is evicted regardless (guards against livelock when
    /// every resident page predicts short-reuse).
    pub max_skips: usize,
}

impl Default for ReuseConfig {
    fn default() -> ReuseConfig {
        ReuseConfig {
            sampler: SamplerConfig::default(),
            markov_scope: MarkovScope::Global,
            predictor: PredictorKind::Markov,
            bypass_threshold: 0.8,
            bypass_window: 128,
            max_skips: 8,
        }
    }
}

/// Knobs of the online-serving front-end (`crates/frontend`): the
/// modeled connection fan-in, the batcher's max-delay flush timer, and
/// the admission backpressure thresholds.
///
/// Lives here (rather than in the front-end crate) so a single
/// [`GmtConfig::validate`] call covers the whole stack, mirroring the
/// SSD and host-link sub-configs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontendConfig {
    /// Modeled client connections feeding the front-end.
    pub connections: usize,
    /// Mean inter-arrival gap per connection, nanoseconds (exponential).
    pub mean_interarrival_ns: u64,
    /// Largest request size a connection may frame, in pages.
    pub max_request_pages: usize,
    /// Batcher max-delay: a pending batch older than this flushes even
    /// below the Fig. 6 crossover, bounding latency-class wait time.
    pub max_delay_ns: u64,
    /// Defer-queue backpressure threshold: arrivals queue instead of
    /// admitting once this many requests are already pending in the
    /// batcher and defer queue combined.
    pub defer_threshold: usize,
    /// Shed threshold: arrivals are dropped outright once the defer
    /// queue itself reaches this depth. Must be at least
    /// `defer_threshold`.
    pub shed_threshold: usize,
}

impl FrontendConfig {
    /// Rejects degenerate front-end knobs.
    ///
    /// # Errors
    ///
    /// Returns a description naming the offending field.
    pub fn validate(&self) -> Result<(), &'static str> {
        // No `..`: a new knob does not compile until it is named here.
        let FrontendConfig {
            connections,
            mean_interarrival_ns,
            max_request_pages,
            max_delay_ns,
            defer_threshold,
            shed_threshold,
        } = *self;
        if connections == 0 {
            return Err("connections must model at least one client stream");
        }
        if mean_interarrival_ns == 0 {
            return Err("mean_interarrival_ns must be positive");
        }
        if max_request_pages == 0 {
            return Err("max_request_pages must allow at least one page");
        }
        if max_delay_ns == 0 {
            return Err("max_delay_ns must bound batching delay above zero");
        }
        if defer_threshold == 0 {
            return Err("defer_threshold must admit at least one request");
        }
        if shed_threshold < defer_threshold {
            return Err("shed_threshold must be at least defer_threshold");
        }
        Ok(())
    }
}

impl Default for FrontendConfig {
    fn default() -> FrontendConfig {
        FrontendConfig {
            connections: 8,
            mean_interarrival_ns: 20_000,
            max_request_pages: 16,
            max_delay_ns: 200_000,
            defer_threshold: 64,
            shed_threshold: 256,
        }
    }
}

/// A degenerate configuration caught by [`GmtConfig::validate`].
///
/// Each variant names the offending knob and carries the rejected value,
/// so a bad `GMT_T1_PAGES` surfaces as a one-line message instead of a
/// panic deep inside the manager.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// Tier-1 has zero pages.
    ZeroTier1,
    /// Tier-2 has zero pages.
    ZeroTier2,
    /// The address space holds zero pages.
    ZeroAddressSpace,
    /// Pages are zero bytes long.
    ZeroPageBytes,
    /// The sequential prefetch degree is at least the whole of Tier-1,
    /// so a single demand fetch would evict every resident page.
    PrefetchOverflowsTier1 {
        /// Configured prefetch degree.
        degree: usize,
        /// Tier-1 capacity in pages.
        tier1_pages: usize,
    },
    /// The §2.2 bypass threshold is outside `[0, 1]` (0–100 %).
    BypassThresholdOutOfRange {
        /// Configured threshold.
        threshold: f64,
    },
    /// The bypass window measures the Tier-3 fraction over zero evictions.
    ZeroBypassWindow,
    /// The GMT-Reuse sampler refreshes its fit every zero training pairs.
    ZeroSamplerBatch,
    /// Tier-3 is striped over zero SSD devices.
    ZeroSsdDevices,
    /// The SSD timing model rejected one of its knobs.
    InvalidSsd {
        /// The device model's description of the bad knob.
        reason: &'static str,
    },
    /// The PCIe link calibration rejected one of its knobs.
    InvalidHostLink {
        /// The link model's description of the bad knob.
        reason: &'static str,
    },
    /// The serving front-end rejected one of its knobs.
    InvalidFrontend {
        /// The front-end's description of the bad knob.
        reason: &'static str,
    },
    /// Tier-1 holds fewer pages than the widest access the engine
    /// serves, so one access could need more evictions than Tier-1 has
    /// resident pages.
    Tier1NarrowerThanAccess {
        /// Tier-1 capacity in pages.
        tier1_pages: usize,
        /// The widest access, in distinct pages.
        access_pages: usize,
    },
    /// Under `StrictQuota` a tenant's private Tier-1 slice holds fewer
    /// pages than the widest access the engine serves.
    QuotaNarrowerThanAccess {
        /// The tenant's index in the tenant table.
        tenant: usize,
        /// Its Tier-1 quota in pages.
        quota_pages: usize,
        /// The widest access, in distinct pages.
        access_pages: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroTier1 => write!(f, "tier-1 must hold at least one page"),
            ConfigError::ZeroTier2 => write!(f, "tier-2 must hold at least one page"),
            ConfigError::ZeroAddressSpace => {
                write!(f, "the address space must hold at least one page")
            }
            ConfigError::ZeroPageBytes => write!(f, "pages must be at least one byte"),
            ConfigError::PrefetchOverflowsTier1 {
                degree,
                tier1_pages,
            } => write!(
                f,
                "prefetch degree {degree} would churn the whole of tier-1 \
                 ({tier1_pages} pages) on every demand fetch"
            ),
            ConfigError::BypassThresholdOutOfRange { threshold } => write!(
                f,
                "bypass threshold {threshold} is outside [0, 1] (0-100 %)"
            ),
            ConfigError::ZeroBypassWindow => {
                write!(f, "the bypass window must cover at least one eviction")
            }
            ConfigError::ZeroSamplerBatch => {
                write!(f, "the reuse sampler batch must hold at least one pair")
            }
            ConfigError::ZeroSsdDevices => {
                write!(f, "tier-3 must stripe over at least one SSD device")
            }
            ConfigError::InvalidSsd { reason } => write!(f, "ssd: {reason}"),
            ConfigError::InvalidHostLink { reason } => write!(f, "host link: {reason}"),
            ConfigError::InvalidFrontend { reason } => write!(f, "frontend: {reason}"),
            ConfigError::Tier1NarrowerThanAccess {
                tier1_pages,
                access_pages,
            } => write!(
                f,
                "tier-1 ({tier1_pages} pages) is narrower than the widest access \
                 ({access_pages} pages)"
            ),
            ConfigError::QuotaNarrowerThanAccess {
                tenant,
                quota_pages,
                access_pages,
            } => write!(
                f,
                "tenant {tenant}'s tier-1 quota ({quota_pages} pages) is narrower than the \
                 widest access ({access_pages} pages)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Full configuration of a [`crate::Gmt`] instance.
///
/// # Examples
///
/// ```
/// use gmt_core::{GmtConfig, PolicyKind};
/// use gmt_mem::TierGeometry;
///
/// let config = GmtConfig {
///     policy: PolicyKind::Reuse,
///     ..GmtConfig::new(TierGeometry::default())
/// };
/// assert_eq!(config.policy, PolicyKind::Reuse);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GmtConfig {
    /// Tier capacities.
    pub geometry: TierGeometry,
    /// Eviction placement policy.
    pub policy: PolicyKind,
    /// Tier-1 ⇄ Tier-2 transfer mechanism (paper default: Hybrid-32T).
    pub transfer: TransferMethod,
    /// Tier-2 insertion behaviour when full. `None` picks the paper's
    /// default for the policy (FIFO for TierOrder/Random, reject for
    /// Reuse).
    pub tier2_insert: Option<Tier2Insert>,
    /// PCIe GPU ⇄ host path calibration.
    pub host_link: HostLinkConfig,
    /// SSD calibration.
    pub ssd: SsdConfig,
    /// Number of identical SSDs striped at page granularity (BaM-style
    /// arrays; the paper's platform has 1).
    pub ssd_devices: usize,
    /// GMT-Reuse knobs.
    pub reuse: ReuseConfig,
    /// Sequential prefetch degree: on every demand SSD fetch of page `p`,
    /// also fetch up to this many following pages in the background.
    /// `0` (the default) reproduces the paper's demand-only movement
    /// (§2 common parameter 2); non-zero values implement the
    /// prefetching extension the paper leaves open.
    pub prefetch_degree: usize,
    /// Perform eviction transfers asynchronously instead of on the
    /// faulting warp's critical path — the §5 "future work" background
    /// orchestration. Defaults to `false` (the published behaviour).
    pub async_eviction: bool,
    /// Online-serving front-end knobs (`crates/frontend`): connection
    /// fan-in, batching delay bound, and backpressure thresholds. Inert
    /// for runtimes that replay pre-built schedules.
    pub frontend: FrontendConfig,
    /// Seed for GMT-Random's coin and any other stochastic choice.
    pub seed: u64,
}

impl GmtConfig {
    /// The paper's default runtime for the given capacities: GMT-Reuse
    /// with Hybrid-32T transfers.
    pub fn new(geometry: TierGeometry) -> GmtConfig {
        GmtConfig {
            geometry,
            policy: PolicyKind::Reuse,
            transfer: TransferMethod::hybrid_32t(),
            tier2_insert: None,
            host_link: HostLinkConfig::default(),
            ssd: SsdConfig::default(),
            ssd_devices: 1,
            reuse: ReuseConfig::default(),
            prefetch_degree: 0,
            async_eviction: false,
            frontend: FrontendConfig::default(),
            seed: 0x6d74, // "mt"
        }
    }

    /// Same configuration with a different policy.
    pub fn with_policy(mut self, policy: PolicyKind) -> GmtConfig {
        self.policy = policy;
        self
    }

    /// Rejects degenerate configurations before they can panic deep in
    /// the manager: zero-capacity tiers or pages, a prefetch degree that
    /// would churn all of Tier-1 per fetch, and out-of-range GMT-Reuse
    /// bypass and sampler knobs. How wide an access may be depends on
    /// the workload, not the configuration:
    /// [`check_access_width`](GmtConfig::check_access_width) checks that.
    ///
    /// [`Gmt::new`](crate::Gmt::new) calls this and panics with the
    /// error's message; fallible callers (CLIs parsing `GMT_T1_PAGES`,
    /// services admitting tenant configs) should call it directly.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found.
    ///
    /// # Examples
    ///
    /// ```
    /// use gmt_core::{ConfigError, GmtConfig};
    /// use gmt_mem::TierGeometry;
    ///
    /// let mut config = GmtConfig::new(TierGeometry::from_tier1(64, 4.0, 2.0));
    /// assert!(config.validate().is_ok());
    /// config.prefetch_degree = 64;
    /// assert!(matches!(
    ///     config.validate(),
    ///     Err(ConfigError::PrefetchOverflowsTier1 { .. })
    /// ));
    /// ```
    pub fn validate(&self) -> Result<(), ConfigError> {
        // No `..` here or on `reuse`: a new knob does not compile until
        // it is named here.
        let GmtConfig {
            geometry: g,
            // Every policy, transfer method and insertion mode is valid.
            policy: _,
            transfer: _,
            tier2_insert: _,
            host_link,
            ssd,
            ssd_devices,
            reuse,
            prefetch_degree,
            // Both settings are valid.
            async_eviction: _,
            frontend,
            // Any u64 is a valid PRNG seed; there is no range to check.
            seed: _,
        } = *self;
        let ReuseConfig {
            sampler,
            // Every scope and predictor is valid.
            markov_scope: _,
            predictor: _,
            bypass_threshold: threshold,
            bypass_window,
            // Zero legitimately disables skipping, so every usize is valid.
            max_skips: _,
        } = reuse;
        if g.tier1_pages == 0 {
            return Err(ConfigError::ZeroTier1);
        }
        if g.tier2_pages == 0 {
            return Err(ConfigError::ZeroTier2);
        }
        if g.total_pages == 0 {
            return Err(ConfigError::ZeroAddressSpace);
        }
        if g.page_bytes == 0 {
            return Err(ConfigError::ZeroPageBytes);
        }
        if prefetch_degree >= g.tier1_pages {
            return Err(ConfigError::PrefetchOverflowsTier1 {
                degree: prefetch_degree,
                tier1_pages: g.tier1_pages,
            });
        }
        if !(0.0..=1.0).contains(&threshold) {
            return Err(ConfigError::BypassThresholdOutOfRange { threshold });
        }
        if bypass_window == 0 {
            return Err(ConfigError::ZeroBypassWindow);
        }
        if sampler.batch_size == 0 {
            return Err(ConfigError::ZeroSamplerBatch);
        }
        if ssd_devices == 0 {
            return Err(ConfigError::ZeroSsdDevices);
        }
        ssd.validate()
            .map_err(|reason| ConfigError::InvalidSsd { reason })?;
        host_link
            .validate()
            .map_err(|reason| ConfigError::InvalidHostLink { reason })?;
        frontend
            .validate()
            .map_err(|reason| ConfigError::InvalidFrontend { reason })?;
        Ok(())
    }

    /// Checks that one access of `widest` distinct pages fits where it is
    /// served: in Tier-1, and in each of `quotas`, the tenants' private
    /// Tier-1 slices under `StrictQuota` (empty otherwise). Serving an
    /// access may evict a page for each of its misses, so a narrower
    /// Tier-1 could run out of pages to evict. One warp instruction
    /// touches at most [`gmt_mem::WARP_PAGES`].
    ///
    /// `Gmt`'s `access` panics with this error's message on an access
    /// that does not fit; drivers that know their widest access up front
    /// (CLIs, the serving front-end's widest flush) call it directly.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Tier1NarrowerThanAccess`], or
    /// [`ConfigError::QuotaNarrowerThanAccess`] for the first quota that
    /// is too narrow.
    ///
    /// # Examples
    ///
    /// ```
    /// use gmt_core::{ConfigError, GmtConfig};
    /// use gmt_mem::{TierGeometry, WARP_PAGES};
    ///
    /// let config = GmtConfig::new(TierGeometry::from_tier1(29, 4.0, 2.0));
    /// assert_eq!(
    ///     config.check_access_width(WARP_PAGES, &[]),
    ///     Err(ConfigError::Tier1NarrowerThanAccess { tier1_pages: 29, access_pages: 32 })
    /// );
    /// assert_eq!(config.check_access_width(29, &[]), Ok(()));
    /// ```
    pub fn check_access_width(&self, widest: usize, quotas: &[usize]) -> Result<(), ConfigError> {
        let tier1_pages = self.geometry.tier1_pages;
        if tier1_pages < widest {
            return Err(ConfigError::Tier1NarrowerThanAccess {
                tier1_pages,
                access_pages: widest,
            });
        }
        match quotas.iter().position(|&q| q < widest) {
            Some(tenant) => Err(ConfigError::QuotaNarrowerThanAccess {
                tenant,
                quota_pages: quotas[tenant],
                access_pages: widest,
            }),
            None => Ok(()),
        }
    }

    /// The effective Tier-2 insertion mode (resolving the per-policy
    /// default).
    pub fn effective_tier2_insert(&self) -> Tier2Insert {
        self.tier2_insert.unwrap_or(match self.policy {
            PolicyKind::TierOrder | PolicyKind::Random => Tier2Insert::EvictFifo,
            PolicyKind::Reuse => Tier2Insert::RejectWhenFull,
        })
    }
}

impl Default for GmtConfig {
    fn default() -> GmtConfig {
        GmtConfig::new(TierGeometry::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_names_match_paper() {
        assert_eq!(PolicyKind::Reuse.to_string(), "GMT-Reuse");
        assert_eq!(PolicyKind::TierOrder.to_string(), "GMT-TierOrder");
        assert_eq!(PolicyKind::Random.to_string(), "GMT-Random");
    }

    #[test]
    fn tier2_insert_defaults_follow_policy() {
        let base = GmtConfig::default();
        assert_eq!(
            base.with_policy(PolicyKind::TierOrder)
                .effective_tier2_insert(),
            Tier2Insert::EvictFifo
        );
        assert_eq!(
            base.with_policy(PolicyKind::Reuse).effective_tier2_insert(),
            Tier2Insert::RejectWhenFull
        );
    }

    #[test]
    fn explicit_tier2_insert_overrides() {
        let c = GmtConfig {
            tier2_insert: Some(Tier2Insert::EvictFifo),
            ..GmtConfig::default()
        };
        assert_eq!(c.effective_tier2_insert(), Tier2Insert::EvictFifo);
    }

    #[test]
    fn an_access_wider_than_tier1_or_a_quota_is_named() {
        use gmt_mem::{TierGeometry, WARP_PAGES};
        // A BFS warp access can touch 32 pages; a 29-page Tier-1 cannot
        // make room for all of them.
        let narrow = GmtConfig::new(TierGeometry::from_tier1(29, 4.0, 2.0));
        assert_eq!(
            narrow.check_access_width(WARP_PAGES, &[]),
            Err(ConfigError::Tier1NarrowerThanAccess {
                tier1_pages: 29,
                access_pages: 32
            })
        );
        assert_eq!(narrow.check_access_width(29, &[]), Ok(()));

        let wide = GmtConfig::new(TierGeometry::from_tier1(64, 2.0, 2.0));
        assert_eq!(
            wide.check_access_width(WARP_PAGES, &[40, 24]),
            Err(ConfigError::QuotaNarrowerThanAccess {
                tenant: 1,
                quota_pages: 24,
                access_pages: 32
            })
        );
        assert_eq!(wide.check_access_width(24, &[40, 24]), Ok(()));
    }

    #[test]
    fn validate_accepts_the_defaults_and_names_each_degeneracy() {
        use gmt_mem::TierGeometry;
        assert_eq!(GmtConfig::default().validate(), Ok(()));

        let mut zero_t1 = GmtConfig::default();
        zero_t1.geometry.tier1_pages = 0;
        assert_eq!(zero_t1.validate(), Err(ConfigError::ZeroTier1));

        let mut zero_t2 = GmtConfig::default();
        zero_t2.geometry.tier2_pages = 0;
        assert_eq!(zero_t2.validate(), Err(ConfigError::ZeroTier2));

        let mut zero_space = GmtConfig::default();
        zero_space.geometry.total_pages = 0;
        assert_eq!(zero_space.validate(), Err(ConfigError::ZeroAddressSpace));

        let mut zero_page = GmtConfig::default();
        zero_page.geometry.page_bytes = 0;
        assert_eq!(zero_page.validate(), Err(ConfigError::ZeroPageBytes));

        let mut prefetch = GmtConfig::new(TierGeometry::from_tier1(8, 2.0, 2.0));
        prefetch.prefetch_degree = 8;
        assert!(matches!(
            prefetch.validate(),
            Err(ConfigError::PrefetchOverflowsTier1 {
                degree: 8,
                tier1_pages: 8
            })
        ));
        prefetch.prefetch_degree = 7;
        assert_eq!(prefetch.validate(), Ok(()));

        for bad in [-0.1, 1.1, f64::NAN] {
            let mut config = GmtConfig::default();
            config.reuse.bypass_threshold = bad;
            assert!(
                matches!(
                    config.validate(),
                    Err(ConfigError::BypassThresholdOutOfRange { .. })
                ),
                "threshold {bad} must be rejected"
            );
        }

        let mut window = GmtConfig::default();
        window.reuse.bypass_window = 0;
        assert_eq!(window.validate(), Err(ConfigError::ZeroBypassWindow));

        let mut batch = GmtConfig::default();
        batch.reuse.sampler.batch_size = 0;
        assert_eq!(batch.validate(), Err(ConfigError::ZeroSamplerBatch));

        let devices = GmtConfig {
            ssd_devices: 0,
            ..GmtConfig::default()
        };
        assert_eq!(devices.validate(), Err(ConfigError::ZeroSsdDevices));

        let mut ssd = GmtConfig::default();
        ssd.ssd.channels = 0;
        assert_eq!(
            ssd.validate(),
            Err(ConfigError::InvalidSsd {
                reason: "channels must be at least one flash channel",
            })
        );

        let mut link = GmtConfig::default();
        link.host_link.link_bytes_per_sec = 0.0;
        assert_eq!(
            link.validate(),
            Err(ConfigError::InvalidHostLink {
                reason: "link_bytes_per_sec must be finite and positive",
            })
        );

        let mut fe = GmtConfig::default();
        fe.frontend.connections = 0;
        assert_eq!(
            fe.validate(),
            Err(ConfigError::InvalidFrontend {
                reason: "connections must model at least one client stream",
            })
        );
    }

    #[test]
    fn frontend_validate_names_every_degenerate_knob() {
        assert_eq!(FrontendConfig::default().validate(), Ok(()));
        type Case = (fn(&mut FrontendConfig), &'static str);
        let cases: [Case; 6] = [
            (|f| f.connections = 0, "connections"),
            (|f| f.mean_interarrival_ns = 0, "mean_interarrival_ns"),
            (|f| f.max_request_pages = 0, "max_request_pages"),
            (|f| f.max_delay_ns = 0, "max_delay_ns"),
            (
                |f| {
                    f.defer_threshold = 0;
                    f.shed_threshold = 0;
                },
                "defer_threshold",
            ),
            (|f| f.shed_threshold = 0, "shed_threshold"),
        ];
        for (mutate, field) in cases {
            let mut config = FrontendConfig::default();
            mutate(&mut config);
            let err = config.validate().expect_err(field);
            assert!(err.contains(field), "{field}: {err}");
        }
    }

    #[test]
    fn config_errors_render_readable_messages() {
        let err = ConfigError::PrefetchOverflowsTier1 {
            degree: 9,
            tier1_pages: 4,
        };
        let msg = err.to_string();
        assert!(msg.contains('9') && msg.contains('4'), "{msg}");
        assert!(ConfigError::ZeroTier1.to_string().contains("tier-1"));
    }

    #[test]
    fn default_reuse_knobs_match_paper() {
        let r = ReuseConfig::default();
        assert_eq!(r.bypass_threshold, 0.8);
        assert_eq!(r.sampler.batch_size, 10_000);
    }
}
