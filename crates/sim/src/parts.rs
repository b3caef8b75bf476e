//! Splitting host-side work across cores.
//!
//! The simulation itself is single-threaded; what runs in parts is work
//! whose result does not depend on how it is split — building a graph or
//! a trace over one, rendering an exported trace. Each caller cuts its
//! input into contiguous parts, runs them with [`in_parts`] and joins the
//! results in part order, so the output is the same on any core count.
//!
//! # Examples
//!
//! ```
//! use gmt_sim::parts::{even_ranges, in_parts};
//!
//! let sums = in_parts(even_ranges(100, 4), |r| r.sum::<usize>());
//! assert_eq!(sums.iter().sum::<usize>(), (0..100).sum());
//! ```

use std::num::NonZeroUsize;
use std::ops::Range;
use std::thread;

/// How many parts `work` units are split into: one per core the process
/// may run on (`available_parallelism` honours the affinity mask), but
/// never so many that a part gets fewer than `min_part` units. Always at
/// least one.
///
/// # Panics
///
/// Panics if `min_part` is zero.
pub fn part_count(work: usize, min_part: usize) -> usize {
    let cores = thread::available_parallelism().map_or(1, NonZeroUsize::get);
    cores.min(work / min_part).max(1)
}

/// Cuts `0..n` into `parts` contiguous ranges whose lengths differ by at
/// most one.
pub fn even_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    (0..parts)
        .map(|k| k * n / parts..(k + 1) * n / parts)
        .collect()
}

/// Runs `part` on every input and returns the results in input order.
/// An input is owned by its part, so it can carry a range together with
/// the slice the part writes. The first input runs on the calling
/// thread, the rest on scoped threads; a panic in any part resumes on
/// the caller.
pub fn in_parts<I: Send, T: Send>(
    inputs: impl IntoIterator<Item = I>,
    part: impl Fn(I) -> T + Sync,
) -> Vec<T> {
    let mut inputs = inputs.into_iter();
    let Some(first) = inputs.next() else {
        return Vec::new();
    };
    thread::scope(|s| {
        let part = &part;
        let handles: Vec<_> = inputs.map(|input| s.spawn(move || part(input))).collect();
        let mut out = Vec::with_capacity(handles.len() + 1);
        out.push(part(first));
        out.extend(handles.into_iter().map(|h| {
            h.join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        }));
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_ranges_split_evenly() {
        assert_eq!(even_ranges(10, 3), [0..3, 3..6, 6..10]);
        assert_eq!(even_ranges(2, 3), [0..0, 0..1, 1..2]);
    }

    #[test]
    fn in_parts_returns_results_in_input_order() {
        let sums = in_parts(even_ranges(100, 4), |r| r.sum::<usize>());
        assert_eq!(sums.iter().sum::<usize>(), (0..100).sum());
        assert_eq!(sums[0], (0..25).sum());
        assert!(in_parts(Vec::<Range<usize>>::new(), |r| r).is_empty());
    }

    #[test]
    fn in_parts_hands_each_part_its_own_slice() {
        let mut buf = [0u8; 10];
        let (a, b) = buf.split_at_mut(4);
        in_parts([(1, a), (2, b)], |(v, s)| s.fill(v));
        assert_eq!(buf, [1, 1, 1, 1, 2, 2, 2, 2, 2, 2]);
    }

    #[test]
    fn one_part_below_the_minimum() {
        assert_eq!(part_count(0, 10), 1);
        assert_eq!(part_count(19, 10), 1);
        assert!(part_count(usize::MAX, 1) >= 1);
    }
}
