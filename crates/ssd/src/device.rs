//! Flash timing model calibrated to the paper's platform.

use gmt_sim::trace::{TraceEvent, TraceSink};
use gmt_sim::{Dur, Link, ServerPool, Time};

/// Timing/topology parameters of the simulated SSD.
///
/// Defaults are calibrated to the paper's Samsung 970 EVO Plus on PCIe
/// Gen3 x4 so that a 64 KB page read completes in ≈130 µs at low queue
/// depth (the latency the paper reports in §3.4) and aggregate read
/// bandwidth saturates around 3.2 GB/s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SsdConfig {
    /// Logical block size in bytes.
    pub block_bytes: u32,
    /// Flash read latency per command (media + controller).
    pub read_latency: Dur,
    /// Flash program latency per command (SLC-cache absorbed).
    pub write_latency: Dur,
    /// Independent flash channels (internal parallelism).
    pub channels: usize,
    /// Per-channel media bandwidth, bytes/second.
    pub channel_bytes_per_sec: f64,
    /// Host-interface (PCIe Gen3 x4) bandwidth, bytes/second.
    pub link_bytes_per_sec: f64,
    /// Host-interface propagation latency.
    pub link_latency: Dur,
    /// Cost of building + submitting one NVMe command (doorbell write,
    /// queue bookkeeping) on the submitting processor.
    pub submit_overhead: Dur,
}

impl SsdConfig {
    /// Rejects degenerate timing/topology parameters before they can
    /// produce division-by-zero bandwidths or a zero-channel device.
    ///
    /// # Errors
    ///
    /// Returns a static description of the first nonsensical knob.
    pub fn validate(&self) -> Result<(), &'static str> {
        // No `..`: a new knob does not compile until it is named here.
        let SsdConfig {
            block_bytes,
            // A `Dur` cannot be negative, and zero is a valid latency.
            read_latency: _,
            write_latency: _,
            channels,
            channel_bytes_per_sec,
            link_bytes_per_sec,
            link_latency: _,
            submit_overhead: _,
        } = *self;
        if block_bytes == 0 {
            return Err("block_bytes must be at least one byte");
        }
        if channels == 0 {
            return Err("channels must be at least one flash channel");
        }
        if !(channel_bytes_per_sec.is_finite() && channel_bytes_per_sec > 0.0) {
            return Err("channel_bytes_per_sec must be finite and positive");
        }
        if !(link_bytes_per_sec.is_finite() && link_bytes_per_sec > 0.0) {
            return Err("link_bytes_per_sec must be finite and positive");
        }
        Ok(())
    }
}

impl Default for SsdConfig {
    fn default() -> SsdConfig {
        SsdConfig {
            block_bytes: 512,
            read_latency: Dur::from_micros(68),
            write_latency: Dur::from_micros(22),
            channels: 8,
            channel_bytes_per_sec: 1.6e9,
            link_bytes_per_sec: 3.2e9,
            link_latency: Dur::from_micros(2),
            submit_overhead: Dur::from_nanos(800),
        }
    }
}

/// Aggregate I/O statistics for one device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SsdStats {
    /// Completed read commands.
    pub reads: u64,
    /// Completed write commands.
    pub writes: u64,
    /// Bytes read from flash.
    pub bytes_read: u64,
    /// Bytes written to flash.
    pub bytes_written: u64,
}

impl SsdStats {
    /// Total completed commands.
    pub fn total_ios(&self) -> u64 {
        self.reads + self.writes
    }

    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }
}

/// The simulated NVMe device: multi-channel flash behind a Gen3 x4 link.
///
/// A command submitted at `now` is modelled as: submission overhead →
/// channel service (latency + media transfer on the earliest-free channel)
/// → host-interface transfer. The [`ServerPool`] backlog reproduces
/// queue-depth effects: at saturation, completion times are dominated by
/// the aggregate bandwidth cap, exactly the regime in which BaM operates.
///
/// # Examples
///
/// ```
/// use gmt_sim::Time;
/// use gmt_ssd::{SsdConfig, SsdDevice};
///
/// let mut ssd = SsdDevice::new(SsdConfig::default());
/// let done = ssd.read(Time::ZERO, 0, 64 * 1024); // one 64 KB page
/// // Low-load page read lands near the paper's ~130 us figure.
/// let us = done.since(Time::ZERO).as_nanos() / 1_000;
/// assert!((100..170).contains(&us), "latency {us} us");
/// ```
#[derive(Debug, Clone)]
pub struct SsdDevice {
    config: SsdConfig,
    flash: ServerPool,
    link: Link,
    stats: SsdStats,
    trace: TraceSink,
    trace_index: u32,
    pending: Vec<PendingIo>,
}

/// An in-flight command tracked only while tracing, so queue depth can be
/// reported on every submission.
#[derive(Debug, Clone, Copy)]
struct PendingIo {
    done: Time,
    write: bool,
}

impl SsdDevice {
    /// Creates a device from `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.channels` is zero or a bandwidth is non-positive.
    pub fn new(config: SsdConfig) -> SsdDevice {
        SsdDevice {
            flash: ServerPool::new(config.channels),
            link: Link::new(config.link_bytes_per_sec, config.link_latency),
            stats: SsdStats::default(),
            trace: TraceSink::disabled(),
            trace_index: 0,
            pending: Vec::new(),
            config,
        }
    }

    /// The device's configuration.
    pub fn config(&self) -> &SsdConfig {
        &self.config
    }

    /// Routes this device's submissions and completions into `trace`,
    /// identified as device `index`.
    pub fn attach_trace(&mut self, trace: &TraceSink, index: u32) {
        self.trace = trace.clone();
        self.trace_index = index;
    }

    /// Emits [`TraceEvent::SsdComplete`] for every in-flight command whose
    /// completion time is at or before `now`. Completions are reaped
    /// lazily — on the next submission or an explicit flush — mirroring
    /// how the runtimes poll NVMe completion queues.
    pub fn flush_trace(&mut self, now: Time) {
        if !self.trace.is_enabled() {
            return;
        }
        // `pending` is kept sorted by completion time at insertion, so
        // reaping is a partition point — no per-poll sort, no scratch
        // allocation.
        let ready = self.pending.partition_point(|io| io.done <= now);
        if ready == 0 {
            return;
        }
        let total = self.pending.len();
        for (i, io) in self.pending[..ready].iter().enumerate() {
            self.trace.emit(
                now,
                TraceEvent::SsdComplete {
                    device: self.trace_index,
                    write: io.write,
                    queue_depth: (total - 1 - i) as u32,
                },
            );
        }
        self.pending.drain(..ready);
    }

    /// Reads `bytes` starting at byte `offset`; returns the completion
    /// time. Only the size matters: the flash model has no address map.
    pub fn read(&mut self, now: Time, _offset: u64, bytes: u64) -> Time {
        self.submit(now, false, bytes)
    }

    /// Writes `bytes` starting at byte `offset`; returns the completion
    /// time. Only the size matters: the flash model has no address map.
    pub fn write(&mut self, now: Time, _offset: u64, bytes: u64) -> Time {
        self.submit(now, true, bytes)
    }

    /// Runs one command of `bytes` (rounded up to whole blocks) submitted
    /// at `now`; returns its completion time.
    fn submit(&mut self, now: Time, write: bool, bytes: u64) -> Time {
        let block = self.config.block_bytes as u64;
        let bytes = bytes.div_ceil(block) * block;
        let media_latency = if write {
            self.stats.writes += 1;
            self.stats.bytes_written += bytes;
            self.config.write_latency
        } else {
            self.stats.reads += 1;
            self.stats.bytes_read += bytes;
            self.config.read_latency
        };
        let submitted = now + self.config.submit_overhead;
        let service = media_latency + Dur::for_bytes(bytes, self.config.channel_bytes_per_sec);
        let flash_done = self.flash.submit(submitted, service);
        let done = self.link.transfer(flash_done, bytes.max(16));
        if self.trace.is_enabled() {
            self.flush_trace(now);
            // Sorted insert (ties keep submission order). Completions
            // mostly finish in submission order, so the insertion point
            // is usually the tail and the shift is empty.
            let at = self.pending.partition_point(|io| io.done <= done);
            self.pending.insert(at, PendingIo { done, write });
            self.trace.emit(
                now,
                TraceEvent::SsdSubmit {
                    device: self.trace_index,
                    write,
                    bytes,
                    queue_depth: self.pending.len() as u32,
                },
            );
        }
        done
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> SsdStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: u64 = 64 * 1024;

    #[test]
    fn validate_names_every_degenerate_knob() {
        assert_eq!(SsdConfig::default().validate(), Ok(()));
        type Case = (fn(&mut SsdConfig), &'static str);
        let cases: [Case; 7] = [
            (|c| c.block_bytes = 0, "block_bytes"),
            (|c| c.channels = 0, "channels"),
            (|c| c.channel_bytes_per_sec = 0.0, "channel_bytes_per_sec"),
            (
                |c| c.channel_bytes_per_sec = f64::NAN,
                "channel_bytes_per_sec",
            ),
            (|c| c.link_bytes_per_sec = -1.0, "link_bytes_per_sec"),
            (
                |c| c.link_bytes_per_sec = f64::INFINITY,
                "link_bytes_per_sec",
            ),
            (|c| c.link_bytes_per_sec = f64::NAN, "link_bytes_per_sec"),
        ];
        for (mutate, field) in cases {
            let mut config = SsdConfig::default();
            mutate(&mut config);
            let err = config.validate().expect_err(field);
            assert!(err.starts_with(field), "{field}: {err}");
        }
    }

    #[test]
    fn single_page_read_near_130us() {
        let mut ssd = SsdDevice::new(SsdConfig::default());
        let done = ssd.read(Time::ZERO, 0, PAGE);
        let us = done.since(Time::ZERO).as_nanos() as f64 / 1e3;
        assert!((110.0..150.0).contains(&us), "page read latency {us} us");
    }

    #[test]
    fn write_is_faster_than_read() {
        let mut r = SsdDevice::new(SsdConfig::default());
        let mut w = SsdDevice::new(SsdConfig::default());
        let read_done = r.read(Time::ZERO, 0, PAGE);
        let write_done = w.write(Time::ZERO, 0, PAGE);
        assert!(write_done < read_done);
    }

    #[test]
    fn saturated_read_bandwidth_near_3_2_gbps() {
        let mut ssd = SsdDevice::new(SsdConfig::default());
        let pages = 4_000u64;
        let mut done = Time::ZERO;
        for i in 0..pages {
            done = done.max(ssd.read(Time::ZERO, i * PAGE, PAGE));
        }
        let gbps = (pages * PAGE) as f64 / done.as_secs_f64() / 1e9;
        assert!(
            (2.6..3.3).contains(&gbps),
            "saturated read bandwidth {gbps} GB/s"
        );
    }

    #[test]
    fn stats_accumulate() {
        let mut ssd = SsdDevice::new(SsdConfig::default());
        ssd.read(Time::ZERO, 0, PAGE);
        ssd.write(Time::ZERO, PAGE, PAGE);
        let s = ssd.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.total_bytes(), 2 * PAGE);
        assert_eq!(s.total_ios(), 2);
    }

    #[test]
    fn queue_depth_hides_latency() {
        // 8 concurrent reads run on 8 parallel flash channels, so the only
        // added cost is the serialized x4 link (~164 us for 512 KB): far
        // better than the 8x a single-channel device would take.
        let mut ssd = SsdDevice::new(SsdConfig::default());
        let solo = SsdDevice::new(SsdConfig::default());
        let mut max_done = Time::ZERO;
        for i in 0..8u64 {
            max_done = max_done.max(ssd.read(Time::ZERO, i * PAGE, PAGE));
        }
        let mut solo_dev = solo;
        let solo_done = solo_dev.read(Time::ZERO, 0, PAGE);
        let ratio = max_done.as_nanos() as f64 / solo_done.as_nanos() as f64;
        assert!(ratio < 3.0, "8-deep queue took {ratio}x a single read");
    }
}
