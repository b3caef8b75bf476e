//! Trace replay across concurrent warp contexts.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use gmt_mem::WarpAccess;
use gmt_sim::trace::{TraceEvent, TraceSink};
use gmt_sim::{Dur, Time};

/// A tiering runtime as seen by the GPU: something that services one
/// coalesced warp access and reports when the warp may resume.
///
/// Implemented by the GMT runtime, BaM and HMM. The executor is generic
/// over this trait so every policy runs on the identical replay engine.
pub trait MemoryBackend {
    /// Services `access` issued at `now`; returns the time at which the
    /// issuing warp's data is available.
    fn access(&mut self, now: Time, access: &WarpAccess) -> Time;

    /// Called once after the trace is exhausted; returns the time at which
    /// the backend considers the run complete (e.g. after draining
    /// in-flight transfers). The default is `now`.
    fn finish(&mut self, now: Time) -> Time {
        now
    }
}

impl<B: MemoryBackend + ?Sized> MemoryBackend for &mut B {
    fn access(&mut self, now: Time, access: &WarpAccess) -> Time {
        (**self).access(now, access)
    }

    fn finish(&mut self, now: Time) -> Time {
        (**self).finish(now)
    }
}

/// Executor parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorConfig {
    /// Resident warp contexts issuing concurrently. An A100 sustains
    /// thousands (108 SMs × up to 64 warps); the default keeps the same
    /// latency-hiding regime at simulation scale.
    pub warp_slots: usize,
    /// Compute time a warp spends between two memory instructions.
    pub compute_per_access: Dur,
}

impl Default for ExecutorConfig {
    fn default() -> ExecutorConfig {
        ExecutorConfig {
            warp_slots: 1024,
            compute_per_access: Dur::from_nanos(150),
        }
    }
}

/// The result of replaying one trace through one backend.
#[derive(Debug)]
pub struct RunOutcome<B> {
    /// Total simulated execution time.
    pub elapsed: Dur,
    /// Number of warp accesses replayed.
    pub accesses: u64,
    /// The backend, for extracting its metrics.
    pub backend: B,
}

/// Replays traces across [`ExecutorConfig::warp_slots`] concurrent warps.
///
/// Each trace entry is handed to the earliest-ready warp context (a global
/// work-queue approximation of the GPU's scheduler). A warp that misses
/// stalls until the backend reports its data ready; all other warps keep
/// issuing — this is the latency-hiding that makes aggregate *throughput*,
/// not single-miss latency, the figure of merit (paper §2).
///
/// # Examples
///
/// ```
/// use gmt_gpu::{Executor, ExecutorConfig, MemoryBackend};
/// use gmt_mem::{PageId, WarpAccess};
/// use gmt_sim::{Dur, Time};
///
/// /// A backend where every access costs 1 us.
/// struct Flat;
/// impl MemoryBackend for Flat {
///     fn access(&mut self, now: Time, _a: &WarpAccess) -> Time {
///         now + Dur::from_micros(1)
///     }
/// }
///
/// let trace = (0..100).map(|i| WarpAccess::read(PageId(i)));
/// let outcome = Executor::new(ExecutorConfig::default()).run(Flat, trace);
/// assert_eq!(outcome.accesses, 100);
/// ```
#[derive(Debug, Clone)]
pub struct Executor {
    config: ExecutorConfig,
    trace: TraceSink,
}

impl Executor {
    /// Creates an executor.
    ///
    /// # Panics
    ///
    /// Panics if `config.warp_slots` is zero.
    pub fn new(config: ExecutorConfig) -> Executor {
        assert!(config.warp_slots > 0, "need at least one warp slot");
        Executor {
            config,
            trace: TraceSink::disabled(),
        }
    }

    /// Records each warp issue into `trace` as a
    /// [`TraceEvent::WarpAccess`], stamped with the warp's issue time.
    pub fn attach_trace(&mut self, trace: &TraceSink) {
        self.trace = trace.clone();
    }

    /// The executor's configuration.
    pub fn config(&self) -> &ExecutorConfig {
        &self.config
    }

    /// Starts a replay through `backend`: every warp slot is free at
    /// time zero. Hand it accesses with [`Replay::issue`] and end it with
    /// [`Replay::finish`].
    ///
    /// This is the engine under [`Executor::run`] and
    /// [`Executor::run_arrivals`], for a caller whose accesses are not an
    /// iterator of owned values, such as a trace decoded in place.
    ///
    /// # Examples
    ///
    /// ```
    /// use gmt_gpu::{Executor, ExecutorConfig, MemoryBackend};
    /// use gmt_mem::{PageId, WarpAccess};
    /// use gmt_sim::{Dur, Time};
    ///
    /// struct Flat;
    /// impl MemoryBackend for Flat {
    ///     fn access(&mut self, now: Time, _a: &WarpAccess) -> Time {
    ///         now + Dur::from_micros(1)
    ///     }
    /// }
    ///
    /// let exec = Executor::new(ExecutorConfig::default());
    /// let mut replay = exec.replay(Flat);
    /// let mut access = WarpAccess::read(PageId(0));
    /// for page in 0..100 {
    ///     access.pages = PageId(page).into(); // one access, reused
    ///     replay.issue(Time::ZERO, &access);
    /// }
    /// assert_eq!(replay.finish().accesses, 100);
    /// ```
    pub fn replay<B: MemoryBackend>(&self, backend: B) -> Replay<'_, B> {
        Replay {
            warps: (0..self.config.warp_slots)
                .map(|_| Reverse(Time::ZERO))
                .collect(),
            accesses: 0,
            horizon: Time::ZERO,
            executor: self,
            backend,
        }
    }

    /// Replays `trace` through `backend`; returns elapsed time, access
    /// count and the backend.
    ///
    /// A closed loop: every access is available at time zero, so each
    /// issues as soon as a warp slot frees up ([`Executor::run_arrivals`]
    /// with every arrival at [`Time::ZERO`]).
    pub fn run<B, I>(&self, backend: B, trace: I) -> RunOutcome<B>
    where
        B: MemoryBackend,
        I: IntoIterator<Item = WarpAccess>,
    {
        let mut replay = self.replay(backend);
        for access in trace {
            replay.issue(Time::ZERO, &access);
        }
        replay.finish()
    }

    /// Replays an *open-arrival* trace: each access carries the wall
    /// time at which its work arrives, and issues at the later of that
    /// arrival and the earliest-ready warp slot.
    ///
    /// This is the serving-system counterpart of [`Executor::run`]
    /// (which models a closed loop where warps re-issue as fast as the
    /// backend allows): under open arrivals an idle stretch really
    /// leaves the hierarchy idle, and a burst really queues. Arrival
    /// times must be non-decreasing; interleaved multi-tenant schedules
    /// should be merged before being handed here.
    ///
    /// # Examples
    ///
    /// ```
    /// use gmt_gpu::{Executor, ExecutorConfig, MemoryBackend};
    /// use gmt_mem::{PageId, WarpAccess};
    /// use gmt_sim::{Dur, Time};
    ///
    /// struct Instant;
    /// impl MemoryBackend for Instant {
    ///     fn access(&mut self, now: Time, _a: &WarpAccess) -> Time {
    ///         now
    ///     }
    /// }
    ///
    /// // One access arriving 5 us in: the run lasts until its arrival.
    /// let exec = Executor::new(ExecutorConfig::default());
    /// let at = Time::ZERO + Dur::from_micros(5);
    /// let out = exec.run_arrivals(Instant, [(at, WarpAccess::read(PageId(0)))]);
    /// assert!(out.elapsed >= Dur::from_micros(5));
    /// ```
    pub fn run_arrivals<B, I>(&self, backend: B, trace: I) -> RunOutcome<B>
    where
        B: MemoryBackend,
        I: IntoIterator<Item = (Time, WarpAccess)>,
    {
        let mut replay = self.replay(backend);
        for (arrival, access) in trace {
            replay.issue(arrival, &access);
        }
        replay.finish()
    }
}

/// One replay in progress: the warp slots' ready times and the backend.
/// Made by [`Executor::replay`].
#[derive(Debug)]
pub struct Replay<'a, B> {
    /// Each warp slot's next issue time.
    warps: BinaryHeap<Reverse<Time>>,
    accesses: u64,
    /// The latest time any warp becomes free.
    horizon: Time,
    executor: &'a Executor,
    backend: B,
}

impl<B: MemoryBackend> Replay<'_, B> {
    /// Issues `access`, whose work arrives at `arrival`, on the
    /// earliest-free warp: it issues at the later of the two, and the
    /// warp is busy until the backend has its data and the warp's
    /// compute time has passed.
    pub fn issue(&mut self, arrival: Time, access: &WarpAccess) {
        // Warps carry no identity, so the warp's heap entry is
        // rewritten in place rather than popped and pushed.
        let mut warp = self.warps.peek_mut().expect("warp heap is never empty");
        let issue = warp.0.max(arrival);
        let trace = &self.executor.trace;
        if trace.is_enabled() {
            if let Some(page) = access.pages.iter().next() {
                trace.emit(
                    issue,
                    TraceEvent::WarpAccess {
                        page: page.0,
                        write: access.write,
                    },
                );
            }
        }
        let data_ready = self.backend.access(issue, access);
        let next_issue = data_ready + self.executor.config.compute_per_access;
        self.horizon = self.horizon.max(next_issue);
        *warp = Reverse(next_issue);
        self.accesses += 1;
    }

    /// The backend, as the accesses issued so far have left it.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// When the last warp to free up does so: the run's length so far,
    /// before the backend drains.
    pub fn horizon(&self) -> Time {
        self.horizon
    }

    /// Ends the replay: lets the backend drain ([`MemoryBackend::finish`])
    /// from the time the last warp frees up, and returns the outcome.
    pub fn finish(mut self) -> RunOutcome<B> {
        let done = self.backend.finish(self.horizon);
        RunOutcome {
            elapsed: done.since(Time::ZERO),
            accesses: self.accesses,
            backend: self.backend,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmt_mem::PageId;

    /// Backend with a fixed per-access stall.
    struct Fixed(Dur);

    impl MemoryBackend for Fixed {
        fn access(&mut self, now: Time, _a: &WarpAccess) -> Time {
            now + self.0
        }
    }

    fn trace(n: u64) -> impl Iterator<Item = WarpAccess> {
        (0..n).map(|i| WarpAccess::read(PageId(i)))
    }

    #[test]
    fn single_warp_serializes() {
        let exec = Executor::new(ExecutorConfig {
            warp_slots: 1,
            compute_per_access: Dur::from_nanos(0),
        });
        let out = exec.run(Fixed(Dur::from_micros(1)), trace(10));
        assert_eq!(out.elapsed, Dur::from_micros(10));
        assert_eq!(out.accesses, 10);
    }

    #[test]
    fn many_warps_hide_latency() {
        let cfg = ExecutorConfig {
            warp_slots: 10,
            compute_per_access: Dur::from_nanos(0),
        };
        let out = Executor::new(cfg).run(Fixed(Dur::from_micros(1)), trace(10));
        // All ten run concurrently.
        assert_eq!(out.elapsed, Dur::from_micros(1));
    }

    #[test]
    fn compute_time_is_charged_per_access() {
        let cfg = ExecutorConfig {
            warp_slots: 1,
            compute_per_access: Dur::from_nanos(100),
        };
        let out = Executor::new(cfg).run(Fixed(Dur::ZERO), trace(5));
        assert_eq!(out.elapsed, Dur::from_nanos(500));
    }

    #[test]
    fn finish_extends_elapsed() {
        struct Draining;
        impl MemoryBackend for Draining {
            fn access(&mut self, now: Time, _a: &WarpAccess) -> Time {
                now
            }
            fn finish(&mut self, now: Time) -> Time {
                now + Dur::from_millis(1)
            }
        }
        let out = Executor::new(ExecutorConfig::default()).run(Draining, trace(1));
        assert!(out.elapsed >= Dur::from_millis(1));
    }

    #[test]
    fn empty_trace_is_instant() {
        let out =
            Executor::new(ExecutorConfig::default()).run(Fixed(Dur::from_micros(1)), trace(0));
        assert_eq!(out.elapsed, Dur::ZERO);
        assert_eq!(out.accesses, 0);
    }

    #[test]
    fn arrivals_gate_issue_times() {
        // One warp, zero-cost backend: accesses 10 us apart finish at
        // the last arrival, not back-to-back.
        let cfg = ExecutorConfig {
            warp_slots: 1,
            compute_per_access: Dur::ZERO,
        };
        let schedule = (0..5).map(|i| {
            (
                Time::ZERO + Dur::from_micros(10 * i),
                WarpAccess::read(PageId(i)),
            )
        });
        let out = Executor::new(cfg).run_arrivals(Fixed(Dur::ZERO), schedule);
        assert_eq!(out.elapsed, Dur::from_micros(40));
        assert_eq!(out.accesses, 5);
    }

    #[test]
    fn arrivals_in_the_past_queue_like_closed_loop() {
        // Everything arrives at t=0: run_arrivals degenerates to run.
        let cfg = ExecutorConfig {
            warp_slots: 1,
            compute_per_access: Dur::ZERO,
        };
        let closed = Executor::new(cfg).run(Fixed(Dur::from_micros(1)), trace(10));
        let open = Executor::new(cfg).run_arrivals(
            Fixed(Dur::from_micros(1)),
            trace(10).map(|a| (Time::ZERO, a)),
        );
        assert_eq!(open.elapsed, closed.elapsed);
    }

    #[test]
    fn backend_by_mut_ref_also_works() {
        let mut fixed = Fixed(Dur::from_micros(1));
        let exec = Executor::new(ExecutorConfig::default());
        let out = exec.run(&mut fixed, trace(3));
        assert_eq!(out.accesses, 3);
    }
}
