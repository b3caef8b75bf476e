//! The serving engine: arrival events in, SLO-graded completions out.
//!
//! [`Frontend`] owns a [`TieredService`] and drives it the way an
//! online server would, rather than replaying a pre-merged schedule:
//!
//! 1. **Arrivals.** Each modeled [`Connection`] schedules its next
//!    request on the engine's [`EventQueue`] with seeded exponential
//!    gaps, and draws the request's pages when it arrives.
//! 2. **Admission.** Every arriving request is admitted, deferred or
//!    shed ([`gmt_sim::trace::TraceEvent::FrontAdmit`] /
//!    `FrontDefer` / `FrontShed`), based on outstanding-request
//!    occupancy against class-graded thresholds and — for `Batch`
//!    class — Tier-1 pressure (resident + pending pages over
//!    capacity). Deferred requests wait in a FIFO and re-enter at the
//!    next flush; shed requests are dropped on the floor.
//! 3. **Batching.** Admitted requests accumulate per tenant and flush
//!    at the Fig. 6 crossover, on a class-scaled max-delay timer, or
//!    at end-of-run drain (see [`crate::batch`]). A flush is one
//!    coalesced [`WarpAccess`] into the hierarchy; its ready time
//!    grades every batched request against its class's p99 target.
//!
//! Arrival gaps, request sizes and page popularity are drawn from
//! per-connection seeded streams, so two runs with the same service
//! and seed produce byte-identical traces.

use std::collections::VecDeque;

use gmt_core::{FrontendConfig, TieringMetrics};
use gmt_gpu::MemoryBackend;
use gmt_mem::WarpAccess;
use gmt_pcie::TransferMethod;
use gmt_serve::{PartitionPolicy, TenantId, TieredService};
use gmt_sim::events::EventQueue;
use gmt_sim::trace::{FlushReason, SloClass, TraceEvent, TraceSink};
use gmt_sim::{Dur, Time, Zipf};

use crate::batch::{self, TenantBatch, WARP_THREADS};
use crate::conn::{ConnPhase, Connection};
use crate::report::FrontendReport;

/// Zipf skew of every connection's page-popularity draws.
const PAGE_SKEW: f64 = 0.9;

/// What the engine's event queue carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrontEvent {
    /// A connection's next request arrives.
    Arrival {
        /// The connection.
        conn: u32,
    },
    /// A tenant's open batch hit its class's max delay.
    FlushTimer {
        /// The tenant whose batch is due.
        tenant: u32,
    },
}

/// A request parked by admission backpressure.
#[derive(Debug)]
struct DeferredRequest {
    conn: u32,
    write: bool,
    /// Original arrival time: queueing delay counts against the SLO.
    arrived: Time,
    /// Pages, held in a pooled vector (recycled on admission).
    pages: Vec<u64>,
}

/// The online serving front-end over one tiered hierarchy.
pub struct Frontend {
    service: TieredService,
    sink: TraceSink,
    fcfg: FrontendConfig,
    method: TransferMethod,
    page_bytes: u64,
    tier1_pages: usize,
    conns: Vec<Connection>,
    /// Per-tenant page-popularity distributions (index = tenant id).
    zipfs: Vec<Zipf>,
    /// Per-tenant SLO classes (index = tenant id).
    classes: Vec<SloClass>,
    /// Per-tenant open batches (index = tenant id).
    batches: Vec<TenantBatch>,
    defer: VecDeque<DeferredRequest>,
    /// Recycled page vectors for deferred requests: the steady state
    /// defers without allocating.
    page_pool: Vec<Vec<u64>>,
    queue: EventQueue<FrontEvent>,
    /// Requests admitted to batches and not yet flushed.
    batched_requests: usize,
    /// Pages admitted to batches and not yet flushed.
    batched_pages: usize,
    /// End-of-run: thresholds and timers no longer apply.
    draining: bool,
    generated: u64,
    shed: u64,
    last_ready: Time,
    /// The arriving request's pages (reused across arrivals).
    scratch_pages: Vec<u64>,
}

/// The result of serving every connection's request stream.
#[derive(Debug)]
pub struct FrontendOutcome {
    /// Simulated time until the last flush's data was ready.
    pub elapsed: Dur,
    /// Requests generated across all connections.
    pub generated: u64,
    /// Requests dropped by admission backpressure.
    pub shed: u64,
    /// Per-SLO-class decision counts and latency distributions.
    pub report: FrontendReport,
    /// Each tenant's SLO class, in tenant-id order (pairs with
    /// `per_tenant` for [`FrontendReport::reconcile`]).
    pub tenant_classes: Vec<SloClass>,
    /// Per-tenant hierarchy counters, in tenant-id order.
    pub per_tenant: Vec<TieringMetrics>,
    /// Sum of every tenant's counters.
    pub aggregate: TieringMetrics,
    /// The trace ring the run filled (front-end and hierarchy events).
    pub sink: TraceSink,
}

impl Frontend {
    /// Builds a front-end over `service`: `fcfg.connections` modeled
    /// streams assigned round-robin to tenants, each generating
    /// `requests_per_conn` requests from streams derived from `seed`.
    ///
    /// Tracing is enabled on the service into a fresh ring of
    /// `trace_capacity` records — the run panics if it overflows, so
    /// size it to the run.
    ///
    /// # Panics
    ///
    /// Panics if the service has no tenants, if `trace_capacity` is 0,
    /// or if a flush could be wider than its tenant's Tier-1 (the whole
    /// of it, or a strict quota): with a size flush, a batch carries at
    /// most one request past the Fig. 6 crossover.
    pub fn new(
        mut service: TieredService,
        seed: u64,
        requests_per_conn: u32,
        trace_capacity: usize,
    ) -> Frontend {
        let tenants = service.tenant_count();
        assert!(tenants > 0, "a front-end needs at least one tenant");
        let fcfg = service.config().gmt.frontend;
        let method = service.config().gmt.transfer;
        let page_bytes = service.config().gmt.geometry.page_bytes;
        let tier1_pages = service.config().gmt.geometry.tier1_pages;
        // A flush is one access into its tenant's Tier-1, so it must fit
        // there: the whole of Tier-1, or the tenant's strict quota. One
        // bound, taken against all of Tier-1, serves every quota: a
        // crossover beyond a quota overflows it however it is counted.
        if let Some(widest) = batch::widest_flush(&method, fcfg.max_request_pages, tier1_pages) {
            let quotas: Vec<usize> = match service.config().partition {
                PartitionPolicy::StrictQuota => (0..tenants)
                    .map(|t| service.tenant_budget(TenantId(t as u32)))
                    .collect(),
                _ => Vec::new(),
            };
            if let Err(err) = service.config().gmt.check_access_width(widest, &quotas) {
                panic!("front-end flushes of up to {widest} pages do not fit: {err}");
            }
        }
        let sink = service.enable_tracing(trace_capacity);

        let mut zipfs = Vec::with_capacity(tenants);
        let mut classes = Vec::with_capacity(tenants);
        let mut batches = Vec::with_capacity(tenants);
        for t in 0..tenants {
            let id = TenantId(t as u32);
            let (_, span) = service.tenant_range(id);
            zipfs.push(Zipf::new(span as u64, PAGE_SKEW));
            classes.push(service.tenant_slo(id));
            batches.push(TenantBatch::with_capacity(fcfg.max_request_pages + 32));
        }

        let mut conns = Vec::with_capacity(fcfg.connections);
        let mut queue = EventQueue::new();
        for c in 0..fcfg.connections {
            let tenant = (c % tenants) as u32;
            let (base, _) = service.tenant_range(TenantId(tenant));
            let mut conn = Connection::new(
                c as u32,
                tenant,
                classes[tenant as usize],
                base,
                requests_per_conn,
                gmt_sim::rng::derive(seed, 0xC04E_0000 + c as u64),
            );
            if conn.phase == ConnPhase::Sending {
                let gap = conn.next_gap_ns(fcfg.mean_interarrival_ns);
                queue.schedule(
                    Time::from_nanos(gap),
                    FrontEvent::Arrival { conn: c as u32 },
                );
            }
            conns.push(conn);
        }

        let page_pool = (0..fcfg.shed_threshold)
            .map(|_| Vec::with_capacity(fcfg.max_request_pages))
            .collect();

        Frontend {
            service,
            sink,
            fcfg,
            method,
            page_bytes,
            tier1_pages,
            conns,
            zipfs,
            classes,
            batches,
            defer: VecDeque::with_capacity(fcfg.shed_threshold + 1),
            page_pool,
            queue,
            batched_requests: 0,
            batched_pages: 0,
            draining: false,
            generated: 0,
            shed: 0,
            last_ready: Time::ZERO,
            scratch_pages: Vec::with_capacity(fcfg.max_request_pages),
        }
    }

    /// The trace sink the run writes into.
    pub fn sink(&self) -> &TraceSink {
        &self.sink
    }

    /// Drives every connection's stream to completion and distills the
    /// per-class report.
    ///
    /// # Panics
    ///
    /// Panics if the trace ring overflows, if any connection fails to
    /// close (a request neither completed nor shed — a front-end bug),
    /// or if the hierarchy's structural invariants break.
    pub fn run(mut self) -> FrontendOutcome {
        while let Some((now, event)) = self.queue.pop() {
            match event {
                FrontEvent::Arrival { conn } => self.on_arrival(now, conn),
                FrontEvent::FlushTimer { tenant } => self.on_timer(now, tenant),
            }
        }
        let end = self.queue.now();
        self.final_drain(end);
        let done = self.service.finish(end.max(self.last_ready));
        assert_eq!(
            self.sink.dropped(),
            0,
            "trace ring overflowed; raise trace_capacity"
        );
        for conn in &self.conns {
            assert_eq!(
                conn.phase,
                ConnPhase::Closed,
                "conn{} left {} request(s) unsettled",
                conn.id,
                conn.outstanding
            );
        }
        self.service
            .check_invariants()
            .expect("hierarchy invariants hold after a front-end run");

        let per_tenant: Vec<TieringMetrics> = (0..self.service.tenant_count())
            .map(|t| self.service.metrics(TenantId(t as u32)))
            .collect();
        let aggregate = self.service.aggregate_metrics();
        let report = FrontendReport::from_sink(&self.sink);
        report
            .check_conservation()
            .expect("every admitted request completes exactly once");
        report
            .reconcile(&self.classes, &per_tenant)
            .expect("per-class flush counts reconcile with the hierarchy's");
        FrontendOutcome {
            elapsed: Dur::from_nanos(done.max(self.last_ready).as_nanos()),
            generated: self.generated,
            shed: self.shed,
            report,
            tenant_classes: self.classes,
            per_tenant,
            aggregate,
            sink: self.sink,
        }
    }

    /// One request arrives on `c`: generate, then admit.
    fn on_arrival(&mut self, now: Time, c: u32) {
        let ci = c as usize;
        let tenant = self.conns[ci].tenant as usize;
        let zipf = self.zipfs[tenant];
        let max_pages = self.fcfg.max_request_pages;
        let write = self.conns[ci].generate_into(&zipf, max_pages, &mut self.scratch_pages);
        self.generated += 1;
        self.decide(now, c, write);
        if self.conns[ci].phase == ConnPhase::Sending {
            let gap = self.conns[ci].next_gap_ns(self.fcfg.mean_interarrival_ns);
            self.queue
                .schedule(now + Dur::from_nanos(gap), FrontEvent::Arrival { conn: c });
        }
    }

    /// A tenant's max-delay timer fired: release whatever is open.
    fn on_timer(&mut self, now: Time, tenant: u32) {
        let t = tenant as usize;
        self.batches[t].timer = None;
        if !self.batches[t].is_empty() {
            self.flush(now, t, FlushReason::Timer);
            self.drain_deferred(now);
        }
    }

    /// Admission control for connection `conn`'s freshly generated
    /// request, whose pages are in `scratch_pages`.
    fn decide(&mut self, now: Time, conn: u32, write: bool) {
        let from = &self.conns[conn as usize];
        let (tenant, class) = (from.tenant, from.class);
        let occupancy = self.batched_requests + self.defer.len();
        let pressed = class == SloClass::Batch && self.tier1_pressed();
        if occupancy < self.admit_limit(class) && !pressed {
            let pages = std::mem::take(&mut self.scratch_pages);
            self.admit(now, conn, write, now, &pages);
            self.scratch_pages = pages;
        } else if self.defer.len() < self.fcfg.shed_threshold {
            let mut pages = self.page_pool.pop().unwrap_or_default();
            pages.clear();
            pages.extend_from_slice(&self.scratch_pages);
            self.sink.set_tenant(Some(tenant));
            self.sink.emit(
                now,
                TraceEvent::FrontDefer {
                    conn,
                    class,
                    queued: self.defer.len() as u32 + 1,
                },
            );
            self.defer.push_back(DeferredRequest {
                conn,
                write,
                arrived: now,
                pages,
            });
        } else {
            self.sink.set_tenant(Some(tenant));
            self.sink.emit(
                now,
                TraceEvent::FrontShed {
                    conn,
                    class,
                    queued: self.defer.len() as u32,
                },
            );
            self.shed += 1;
            self.conns[conn as usize].settle_one();
        }
    }

    /// Admits one of connection `conn`'s requests into its tenant's
    /// batch, arming the timer on a fresh batch and size-flushing at
    /// the Fig. 6 crossover.
    fn admit(&mut self, now: Time, conn: u32, write: bool, arrived: Time, pages: &[u64]) {
        let from = &self.conns[conn as usize];
        let (tenant, class) = (from.tenant, from.class);
        self.sink.set_tenant(Some(tenant));
        self.sink.emit(
            now,
            TraceEvent::FrontAdmit {
                conn,
                class,
                queued: self.defer.len() as u32,
            },
        );
        let t = tenant as usize;
        let was_empty = self.batches[t].is_empty();
        let added = self.batches[t].append(conn, arrived, write, pages);
        self.batched_requests += 1;
        self.batched_pages += added;
        if was_empty && !self.draining {
            let delay = batch::max_delay_ns(class, self.fcfg.max_delay_ns);
            let id = self.queue.schedule(
                now + Dur::from_nanos(delay),
                FrontEvent::FlushTimer { tenant },
            );
            self.batches[t].timer = Some(id);
        }
        if self.batches[t].crossover_reached(&self.method) {
            self.flush(now, t, FlushReason::Size);
        }
    }

    /// Releases tenant `t`'s open batch as one coalesced access and
    /// grades every batched request's end-to-end latency.
    fn flush(&mut self, now: Time, t: usize, reason: FlushReason) {
        if let Some(id) = self.batches[t].timer.take() {
            self.queue.cancel(id);
        }
        let pages = std::mem::take(&mut self.batches[t].pages);
        let n = pages.len();
        let class = self.classes[t];
        let zero_copy = self.method.picks_zero_copy(n, WARP_THREADS);
        self.sink.set_tenant(Some(t as u32));
        self.sink.emit(
            now,
            TraceEvent::FrontFlush {
                class,
                reason,
                pages: n as u32,
                bytes: n as u64 * self.page_bytes,
                zero_copy,
            },
        );
        let write = self.batches[t].write;
        let access = WarpAccess::scattered(pages, write);
        let ready = self.service.access(now, &access);
        self.last_ready = self.last_ready.max(ready);
        for i in 0..self.batches[t].requests.len() {
            let req = self.batches[t].requests[i];
            self.sink.emit(
                now,
                TraceEvent::FrontComplete {
                    conn: req.conn,
                    class,
                    latency_ns: ready.as_nanos().saturating_sub(req.arrived.as_nanos()),
                },
            );
            self.conns[req.conn as usize].settle_one();
        }
        self.batched_requests -= self.batches[t].requests.len();
        self.batched_pages -= n;
        self.batches[t].requests.clear();
        self.batches[t].write = false;
    }

    /// Re-admits deferred requests in FIFO order while room exists.
    ///
    /// Draining grades the head against in-flight (batched) work only,
    /// not against the queue's own depth: a queue whose depth counted
    /// against its own drain limit could never shrink below that limit
    /// once it crossed it, and with every arrival shedding there would
    /// be no flush left to drain it (deadlock until end-of-run).
    fn drain_deferred(&mut self, now: Time) {
        while let Some(front) = self.defer.front() {
            let class = self.conns[front.conn as usize].class;
            if self.batched_requests >= self.admit_limit(class) {
                break;
            }
            if class == SloClass::Batch && self.tier1_pressed() {
                break;
            }
            let req = self.defer.pop_front().expect("front exists");
            self.admit(now, req.conn, req.write, req.arrived, &req.pages);
            self.page_pool.push(req.pages);
        }
    }

    /// End of run: admit everything still deferred (thresholds no
    /// longer serve a purpose) and release every open batch.
    fn final_drain(&mut self, end: Time) {
        self.draining = true;
        while let Some(req) = self.defer.pop_front() {
            self.admit(end, req.conn, req.write, req.arrived, &req.pages);
            self.page_pool.push(req.pages);
        }
        for t in 0..self.batches.len() {
            if !self.batches[t].is_empty() {
                self.flush(end, t, FlushReason::Drain);
            }
        }
    }

    /// Outstanding-request ceiling for a class: latency-sensitive
    /// classes keep admitting after batch-friendly classes defer, so
    /// backpressure lands on the classes with slack in their SLOs.
    fn admit_limit(&self, class: SloClass) -> usize {
        match class {
            SloClass::Interactive => self.fcfg.shed_threshold,
            SloClass::Standard => self.fcfg.defer_threshold,
            SloClass::Batch => (self.fcfg.defer_threshold / 2).max(1),
        }
    }

    /// Tier-1 pressure: would flushing what is already batched force
    /// evictions? (Resident plus pending pages exceed capacity.)
    fn tier1_pressed(&self) -> bool {
        self.service.tier1_resident_total() + self.batched_pages > self.tier1_pages
    }
}
