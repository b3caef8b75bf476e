//! Property tests for the simulation substrate.

use gmt_sim::stats::Histogram;
use gmt_sim::{Dur, FifoServer, Link, ServerPool, Time};
use proptest::prelude::*;

proptest! {
    #[test]
    fn histogram_fraction_below_is_exact_at_power_of_two_boundaries(
        values in proptest::collection::vec(0u64..100_000, 1..300),
        exp in 1u32..18,
    ) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let threshold = 1u64 << exp;
        let exact = values.iter().filter(|&&v| v < threshold).count() as f64
            / values.len() as f64;
        let est = h.fraction_below(threshold);
        prop_assert!((est - exact).abs() < 1e-9, "at 2^{exp}: {est} vs exact {exact}");
    }

    #[test]
    fn histogram_fraction_below_is_monotone(
        values in proptest::collection::vec(0u64..100_000, 1..200),
        thresholds in proptest::collection::vec(0u64..200_000, 2..16),
    ) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = thresholds;
        sorted.sort_unstable();
        let fracs: Vec<f64> = sorted.iter().map(|&t| h.fraction_below(t)).collect();
        for pair in fracs.windows(2) {
            prop_assert!(pair[0] <= pair[1] + 1e-12);
        }
    }

    #[test]
    fn fifo_server_conserves_work(
        services in proptest::collection::vec(1u64..10_000, 1..100),
    ) {
        let mut server = FifoServer::new();
        let mut last = Time::ZERO;
        for &s in &services {
            last = server.submit(Time::ZERO, Dur::from_nanos(s));
        }
        // All submitted at t=0: the last completion equals total work.
        let total: u64 = services.iter().sum();
        prop_assert_eq!(last.as_nanos(), total);
        prop_assert_eq!(server.busy_time().as_nanos(), total);
        prop_assert_eq!(server.served(), services.len() as u64);
    }

    #[test]
    fn pool_is_no_slower_than_single_server_and_no_faster_than_ideal(
        services in proptest::collection::vec(1u64..10_000, 1..100),
        servers in 1usize..16,
    ) {
        let mut pool = ServerPool::new(servers);
        let mut single = FifoServer::new();
        let mut pool_last = Time::ZERO;
        let mut single_last = Time::ZERO;
        for &s in &services {
            pool_last = pool_last.max(pool.submit(Time::ZERO, Dur::from_nanos(s)));
            single_last = single.submit(Time::ZERO, Dur::from_nanos(s));
        }
        let total: u64 = services.iter().sum();
        let max = *services.iter().max().unwrap();
        prop_assert!(pool_last <= single_last, "pool slower than one server");
        let ideal = (total / servers as u64).max(max);
        prop_assert!(pool_last.as_nanos() >= ideal.min(total), "pool beat the ideal bound");
    }

    #[test]
    fn link_never_exceeds_configured_bandwidth(
        transfers in proptest::collection::vec(1u64..1_000_000, 1..50),
        gbps in 1u64..64,
    ) {
        let bw = gbps as f64 * 1e9;
        let mut link = Link::new(bw, Dur::ZERO);
        let mut last = Time::ZERO;
        for &bytes in &transfers {
            last = link.transfer(Time::ZERO, bytes);
        }
        let total: u64 = transfers.iter().sum();
        let elapsed = last.as_nanos() as f64 / 1e9;
        let achieved = total as f64 / elapsed.max(1e-12);
        prop_assert!(achieved <= bw * 1.01, "achieved {achieved:.3e} over {bw:.3e}");
    }

    #[test]
    fn time_duration_arithmetic_is_consistent(
        a in 0u64..1_000_000_000,
        b in 0u64..1_000_000_000,
    ) {
        let t = Time::from_nanos(a);
        let d = Dur::from_nanos(b);
        prop_assert_eq!((t + d).since(t), d);
        prop_assert_eq!((t + d) - d, t);
        prop_assert_eq!(t.since(t + d), Dur::ZERO);
    }
}
