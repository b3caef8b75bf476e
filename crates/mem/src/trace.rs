//! In-memory recordings of access traces.
//!
//! Workload traces can run to millions of accesses; re-generating a graph
//! and re-running BFS for every experiment is wasteful when the same trace
//! is replayed across five systems. A [`Recording`] writes every page id
//! in the fixed width its largest id needs, so a graph trace's small page
//! ids take two bytes. `gmt_analysis::runner::Recorded` keeps one per
//! seed, so the `paper` driver, `gmt-cli` and the end-to-end benchmark
//! generate each graph app's trace once and replay it from the
//! recording, in place, for every further system.
//!
//! # Layout
//!
//! ```text
//! per access:
//!   header u8             bit 7 = write, bits 0..7 = page count (1..=127)
//!   pages  count x id     each id `width` bytes LE, one width for all
//! ```

use crate::{PageId, WarpAccess};

/// A trace held in memory in a compact form, to be replayed any number
/// of times.
///
/// Each access is a header byte followed by its page ids, each in the
/// same fixed width: as few little-endian bytes as the recording's
/// largest id needs. At the default scale a graph app's page ids are
/// below 65,536, so each takes two bytes, a quarter of a `u64`. A fixed
/// width makes reading an id one masked 8-byte load.
///
/// A recording is built from accesses this process holds, so
/// [`Recording::for_each`] has no malformed input to reject.
///
/// # Examples
///
/// ```
/// use gmt_mem::{trace::Recording, PageId, WarpAccess};
/// let t = vec![
///     WarpAccess::read(PageId(1)),
///     WarpAccess::scattered(vec![PageId(300), PageId(70_000)], true),
/// ];
/// let recording = Recording::new(&t);
/// // Two headers and three ids; 70,000 needs three bytes, so all do.
/// assert_eq!(recording.byte_len(), 2 + 3 * 3);
/// assert_eq!(recording.to_trace(), t);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recording {
    /// The encoded accesses, then [`LOAD_SLACK`] zero bytes so that the
    /// last id can be read with a full 8-byte load.
    bytes: Box<[u8]>,
    /// Bytes per page id, 1 to 8.
    width: usize,
    accesses: usize,
}

/// Bytes past a recording's last id that an 8-byte load of it may read.
const LOAD_SLACK: usize = 7;

impl Recording {
    /// Records `accesses`.
    ///
    /// # Panics
    ///
    /// Panics if an access touches no page or more than 127 distinct
    /// pages (a warp can touch at most 32).
    pub fn new(accesses: &[WarpAccess]) -> Recording {
        let widest = accesses
            .iter()
            .flat_map(|access| access.pages.iter())
            .map(|page| page.0)
            .max()
            .unwrap_or(0);
        let width = (widest.max(1).ilog2() / 8 + 1) as usize;
        let mut bytes = Vec::with_capacity(accesses.len() * (1 + width) + LOAD_SLACK);
        for access in accesses {
            bytes.push(header(access));
            for page in access.pages.iter() {
                bytes.extend_from_slice(&page.0.to_le_bytes()[..width]);
            }
        }
        bytes.resize(bytes.len() + LOAD_SLACK, 0);
        Recording {
            bytes: bytes.into_boxed_slice(),
            width,
            accesses: accesses.len(),
        }
    }

    /// Bytes the recorded accesses take: a header byte each, and each
    /// page id in the recording's fixed width.
    pub fn byte_len(&self) -> usize {
        self.bytes.len() - LOAD_SLACK
    }

    /// Calls `visit` on each recorded access, in order.
    ///
    /// Nothing is allocated per access: each is decoded into one access
    /// kept for its page count and reused, so an access lives only for
    /// its `visit` call.
    pub fn for_each(&self, mut visit: impl FnMut(&WarpAccess)) {
        let width = self.width;
        let mask = u64::MAX >> (64 - 8 * width);
        // `slots[n]`: the reused access of `n` pages, made on first use.
        let mut slots: Vec<Option<WarpAccess>> = vec![None; 128];
        let mut at = 0;
        let end = self.byte_len();
        while at < end {
            let header = self.bytes[at];
            let n = usize::from(header & 0x7F);
            let access =
                slots[n].get_or_insert_with(|| WarpAccess::scattered(vec![PageId(0); n], false));
            access.write = header & 0x80 != 0;
            at += 1;
            for page in access.pages.ids_mut() {
                let word = self.bytes[at..]
                    .first_chunk::<8>()
                    .map_or(0, |word| u64::from_le_bytes(*word));
                *page = PageId(word & mask);
                at += width;
            }
            visit(access);
        }
    }

    /// Rebuilds the recorded trace, equal to the one passed to
    /// [`Recording::new`].
    pub fn to_trace(&self) -> Vec<WarpAccess> {
        let mut out = Vec::with_capacity(self.accesses);
        self.for_each(|access| out.push(access.clone()));
        out
    }
}

/// An access's header byte: bit 7 the write flag, bits 0..7 the page
/// count.
///
/// # Panics
///
/// Panics if the access touches no page or more than 127.
fn header(access: &WarpAccess) -> u8 {
    let n = access.pages.len();
    assert!(n > 0 && n <= 127, "access page count {n} out of range");
    (n as u8) | if access.write { 0x80 } else { 0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PageSet;

    fn sample() -> Vec<WarpAccess> {
        vec![
            WarpAccess::read(PageId(0)),
            WarpAccess::write(PageId(u64::MAX)),
            WarpAccess::scattered(vec![PageId(5), PageId(9), PageId(1)], false),
            WarpAccess::scattered((0..32).map(PageId).collect(), true),
        ]
    }

    #[test]
    fn single_page_accesses_decode_inline() {
        let replayed = Recording::new(&sample()).to_trace();
        assert!(matches!(replayed[0].pages, PageSet::One(PageId(0))));
        assert!(matches!(replayed[1].pages, PageSet::One(PageId(u64::MAX))));
        assert!(matches!(replayed[2].pages, PageSet::Many(_)));
    }

    #[test]
    fn recording_replays_the_sample() {
        let t = sample();
        let recording = Recording::new(&t);
        assert_eq!(recording.to_trace(), t);
        assert_eq!(
            recording.to_trace(),
            t,
            "a recording replays any number of times"
        );
        let mut visited = Vec::new();
        recording.for_each(|access| visited.push(access.clone()));
        assert_eq!(visited, t, "for_each visits the accesses in order");
        // Headers 4; u64::MAX sets the width to eight bytes for all 37 ids.
        assert_eq!(recording.byte_len(), 4 + 37 * 8);
        assert_eq!(Recording::new(&[]).byte_len(), 0);
        assert_eq!(Recording::new(&[]).to_trace(), Vec::new());
    }

    #[test]
    fn recording_page_ids_take_the_widest_ids_bytes() {
        for (id, bytes) in [
            (0, 1),
            (255, 1),
            (256, 2),
            (65_535, 2),
            (65_536, 3),
            (1 << 63, 8),
            (u64::MAX, 8),
        ] {
            let t = [WarpAccess::read(PageId(id))];
            let recording = Recording::new(&t);
            assert_eq!(recording.byte_len(), 1 + bytes, "page {id}");
            assert_eq!(recording.to_trace(), t, "page {id}");
        }
        // One wide id widens every id of the recording.
        let t = [
            WarpAccess::read(PageId(1)),
            WarpAccess::scattered(vec![PageId(2), PageId(256)], true),
        ];
        let recording = Recording::new(&t);
        assert_eq!(recording.byte_len(), 2 + 3 * 2);
        assert_eq!(recording.to_trace(), t);
    }

    #[test]
    fn recording_reuses_one_access_per_page_count() {
        let t = [
            WarpAccess::scattered(vec![PageId(1), PageId(2)], false),
            WarpAccess::read(PageId(3)),
            WarpAccess::scattered(vec![PageId(4), PageId(5)], true),
            WarpAccess::write(PageId(6)),
        ];
        let mut seen = Vec::new();
        Recording::new(&t).for_each(|access| {
            let at = match &access.pages {
                PageSet::One(page) => std::ptr::from_ref(page).cast::<u8>(),
                PageSet::Many(pages) => pages.as_ptr().cast::<u8>(),
            };
            seen.push((std::ptr::from_ref(access), at));
        });
        assert_eq!(seen[0], seen[2], "two-page accesses share one box");
        assert_eq!(seen[1], seen[3], "one-page accesses share one access");
        assert_ne!(seen[0].0, seen[1].0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn recording_rejects_an_empty_access() {
        Recording::new(&[WarpAccess::scattered(Vec::new(), false)]);
    }
}
