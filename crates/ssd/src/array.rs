//! Striped multi-SSD arrays.
//!
//! BaM scales storage bandwidth by striping across several NVMe devices
//! (its evaluation goes up to ten); the GMT paper uses one 970 EVO Plus
//! but inherits the capability. [`SsdArray`] stripes the page address
//! space round-robin across identical devices so aggregate bandwidth
//! scales with the device count while per-command latency stays that of
//! one device.

use gmt_sim::Time;

use crate::{SsdConfig, SsdDevice, SsdStats};

/// Striping configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrayConfig {
    /// Per-device calibration.
    pub device: SsdConfig,
    /// Number of identical devices.
    pub devices: usize,
    /// Stripe unit in bytes (defaults to one 64 KB page: consecutive
    /// pages land on consecutive devices).
    pub stripe_bytes: u64,
}

impl ArrayConfig {
    /// An array of `devices` default-calibrated SSDs striped at page
    /// granularity.
    pub fn new(devices: usize) -> ArrayConfig {
        ArrayConfig {
            device: SsdConfig::default(),
            devices,
            stripe_bytes: 64 * 1024,
        }
    }
}

/// A round-robin striped array of identical [`SsdDevice`]s.
///
/// # Examples
///
/// ```
/// use gmt_sim::Time;
/// use gmt_ssd::array::{ArrayConfig, SsdArray};
///
/// let mut array = SsdArray::new(ArrayConfig::new(4));
/// let done = array.read(Time::ZERO, 0, 64 * 1024);
/// assert!(done > Time::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct SsdArray {
    config: ArrayConfig,
    devices: Vec<SsdDevice>,
}

impl SsdArray {
    /// Builds the array.
    ///
    /// # Panics
    ///
    /// Panics if `devices` is zero or `stripe_bytes` is zero.
    pub fn new(config: ArrayConfig) -> SsdArray {
        assert!(config.devices > 0, "array needs at least one device");
        assert!(config.stripe_bytes > 0, "stripe unit must be positive");
        SsdArray {
            devices: (0..config.devices)
                .map(|_| SsdDevice::new(config.device))
                .collect(),
            config,
        }
    }

    /// Number of devices.
    pub fn devices(&self) -> usize {
        self.devices.len()
    }

    /// Routes every device's submissions and completions into `trace`,
    /// numbering devices by their stripe position.
    pub fn attach_trace(&mut self, trace: &gmt_sim::trace::TraceSink) {
        for (i, d) in self.devices.iter_mut().enumerate() {
            d.attach_trace(trace, i as u32);
        }
    }

    /// Flushes pending completion events on every device (see
    /// [`SsdDevice::flush_trace`]).
    pub fn flush_trace(&mut self, now: Time) {
        for d in &mut self.devices {
            d.flush_trace(now);
        }
    }

    /// Which device serves byte `offset`.
    pub fn device_for(&self, offset: u64) -> usize {
        ((offset / self.config.stripe_bytes) % self.devices.len() as u64) as usize
    }

    /// Reads `bytes` at `offset` (must lie within one stripe unit);
    /// returns the completion time.
    ///
    /// # Panics
    ///
    /// Panics if the request straddles a stripe boundary.
    pub fn read(&mut self, now: Time, offset: u64, bytes: u64) -> Time {
        let d = self.route(offset, bytes);
        self.devices[d].read(now, offset, bytes)
    }

    /// Writes `bytes` at `offset` (must lie within one stripe unit);
    /// returns the completion time.
    ///
    /// # Panics
    ///
    /// Panics if the request straddles a stripe boundary.
    pub fn write(&mut self, now: Time, offset: u64, bytes: u64) -> Time {
        let d = self.route(offset, bytes);
        self.devices[d].write(now, offset, bytes)
    }

    /// Aggregate statistics across all devices.
    pub fn stats(&self) -> SsdStats {
        let mut total = SsdStats::default();
        for d in &self.devices {
            let s = d.stats();
            total.reads += s.reads;
            total.writes += s.writes;
            total.bytes_read += s.bytes_read;
            total.bytes_written += s.bytes_written;
        }
        total
    }

    fn route(&self, offset: u64, bytes: u64) -> usize {
        let stripe = self.config.stripe_bytes;
        assert!(
            offset / stripe == (offset + bytes - 1) / stripe,
            "request [{offset}, {}) straddles a stripe boundary",
            offset + bytes
        );
        self.device_for(offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: u64 = 64 * 1024;

    #[test]
    fn consecutive_pages_hit_consecutive_devices() {
        let array = SsdArray::new(ArrayConfig::new(4));
        let devices: Vec<usize> = (0..8).map(|p| array.device_for(p * PAGE)).collect();
        assert_eq!(devices, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn bandwidth_scales_with_device_count() {
        let pages = 2_000u64;
        let time_for = |n: usize| {
            let mut array = SsdArray::new(ArrayConfig::new(n));
            let mut done = Time::ZERO;
            for p in 0..pages {
                done = done.max(array.read(Time::ZERO, p * PAGE, PAGE));
            }
            done.as_nanos() as f64
        };
        let one = time_for(1);
        let four = time_for(4);
        assert!(
            four < one / 3.0,
            "4 devices took {four} ns vs 1 device {one} ns"
        );
    }

    #[test]
    fn single_read_latency_matches_one_device() {
        let mut array = SsdArray::new(ArrayConfig::new(8));
        let mut single = SsdDevice::new(SsdConfig::default());
        let a = array.read(Time::ZERO, 0, PAGE);
        let b = single.read(Time::ZERO, 0, PAGE);
        assert_eq!(a, b);
    }

    #[test]
    fn stats_aggregate_across_devices() {
        let mut array = SsdArray::new(ArrayConfig::new(2));
        array.read(Time::ZERO, 0, PAGE);
        array.write(Time::ZERO, PAGE, PAGE);
        let s = array.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.total_bytes(), 2 * PAGE);
    }

    #[test]
    #[should_panic(expected = "straddles a stripe boundary")]
    fn straddling_request_rejected() {
        let mut array = SsdArray::new(ArrayConfig::new(2));
        array.read(Time::ZERO, PAGE / 2, PAGE);
    }
}
