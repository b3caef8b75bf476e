//! Host userspace I/O (the libnvm path).
//!
//! Tier-2 → Tier-3 write-backs are "not in the critical path of GPU
//! accesses" and use "conventional userspace I/O (using libnvm)"
//! (paper §2.3). Unlike the GPU-direct path, every command here costs a
//! host core some submission work and the number of I/O threads is
//! bounded — a second, milder version of the host-bottleneck the HMM
//! baseline exhibits, applied only to background traffic.

use gmt_sim::{Dur, ServerPool, Time};

use crate::array::SsdArray;

/// Host I/O front-end parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostIoConfig {
    /// Host threads dedicated to background I/O submission.
    pub io_threads: usize,
    /// CPU cost per command (build + doorbell + completion reap).
    pub submit_cost: Dur,
}

impl Default for HostIoConfig {
    fn default() -> HostIoConfig {
        HostIoConfig {
            io_threads: 4,
            submit_cost: Dur::from_micros(4),
        }
    }
}

/// A bounded pool of host submission threads in front of an SSD array.
///
/// # Examples
///
/// ```
/// use gmt_sim::Time;
/// use gmt_ssd::array::{ArrayConfig, SsdArray};
/// use gmt_ssd::host_io::{HostIo, HostIoConfig};
///
/// let mut ssd = SsdArray::new(ArrayConfig::new(1));
/// let mut host = HostIo::new(HostIoConfig::default());
/// let done = host.write(Time::ZERO, &mut ssd, 0, 64 * 1024);
/// assert!(done > Time::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct HostIo {
    config: HostIoConfig,
    threads: ServerPool,
    commands: u64,
}

impl HostIo {
    /// Creates the front-end.
    ///
    /// # Panics
    ///
    /// Panics if `config.io_threads` is zero.
    pub fn new(config: HostIoConfig) -> HostIo {
        HostIo {
            threads: ServerPool::new(config.io_threads),
            commands: 0,
            config,
        }
    }

    /// The front-end's configuration.
    pub fn config(&self) -> &HostIoConfig {
        &self.config
    }

    /// Commands submitted so far.
    pub fn commands(&self) -> u64 {
        self.commands
    }

    /// Submits a write through a host thread; returns its completion time.
    pub fn write(&mut self, now: Time, ssd: &mut SsdArray, offset: u64, bytes: u64) -> Time {
        let submitted = self.threads.submit(now, self.config.submit_cost);
        self.commands += 1;
        ssd.write(submitted, offset, bytes)
    }

    /// Submits a read through a host thread; returns its completion time.
    pub fn read(&mut self, now: Time, ssd: &mut SsdArray, offset: u64, bytes: u64) -> Time {
        let submitted = self.threads.submit(now, self.config.submit_cost);
        self.commands += 1;
        ssd.read(submitted, offset, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::ArrayConfig;

    const PAGE: u64 = 64 * 1024;

    #[test]
    fn host_path_adds_submission_cost() {
        let mut ssd_direct = SsdArray::new(ArrayConfig::new(1));
        let mut ssd_host = SsdArray::new(ArrayConfig::new(1));
        let mut host = HostIo::new(HostIoConfig::default());
        let direct = ssd_direct.write(Time::ZERO, 0, PAGE);
        let via_host = host.write(Time::ZERO, &mut ssd_host, 0, PAGE);
        assert!(via_host > direct, "host submission must cost something");
        assert_eq!(host.commands(), 1);
    }

    #[test]
    fn bounded_threads_throttle_bursts() {
        let config = HostIoConfig {
            io_threads: 2,
            submit_cost: Dur::from_micros(10),
        };
        let mut ssd = SsdArray::new(ArrayConfig::new(8));
        let mut host = HostIo::new(config);
        // 8 simultaneous writes through 2 threads: submissions serialize
        // 4-deep, so the last starts no earlier than 4 x 10 us.
        let mut last_done = Time::ZERO;
        for i in 0..8u64 {
            last_done = last_done.max(host.write(Time::ZERO, &mut ssd, i * PAGE, PAGE));
        }
        assert!(last_done >= Time::from_nanos(40_000));
    }

    #[test]
    fn reads_also_flow_through_the_pool() {
        let mut ssd = SsdArray::new(ArrayConfig::new(1));
        let mut host = HostIo::new(HostIoConfig::default());
        host.read(Time::ZERO, &mut ssd, 0, PAGE);
        assert_eq!(ssd.stats().reads, 1);
        assert_eq!(host.commands(), 1);
    }
}
