//! Property tests for the memory vocabulary crate.

use gmt_mem::{trace, PageId, WarpAccess};
use proptest::prelude::*;

fn arb_access() -> impl Strategy<Value = WarpAccess> {
    (
        proptest::collection::vec(any::<u64>(), 1..32),
        any::<bool>(),
    )
        .prop_map(|(mut pages, write)| {
            // Distinct pages, as the coalescer guarantees.
            pages.sort_unstable();
            pages.dedup();
            WarpAccess::scattered(pages.into_iter().map(PageId).collect(), write)
        })
}

proptest! {
    #[test]
    fn recording_roundtrips_arbitrary_accesses(
        accesses in proptest::collection::vec(arb_access(), 0..200),
        shift in 0u32..64,
    ) {
        // The last two accesses pin the widest id, so every id of this
        // recording takes eight bytes.
        let mut trace: Vec<WarpAccess> = accesses
            .iter()
            .map(|a| {
                let pages = a.pages.iter().map(|p| PageId(p.0 >> shift)).collect();
                WarpAccess::scattered(pages, a.write)
            })
            .collect();
        trace.push(WarpAccess::write(PageId(u64::MAX)));
        trace.push(WarpAccess::scattered(vec![PageId(u64::MAX), PageId(0)], false));
        let recording = trace::Recording::new(&trace);
        prop_assert_eq!(recording.to_trace(), trace);
    }

    #[test]
    fn recording_for_each_visits_arbitrary_accesses_in_place(
        accesses in proptest::collection::vec(arb_access(), 0..200),
        shift in 0u32..64,
    ) {
        // Shifting the uniform ids moves the widest one, and with it the
        // recording's id width, over every width from one byte to eight.
        let trace: Vec<WarpAccess> = accesses
            .iter()
            .map(|a| {
                let pages = a.pages.iter().map(|p| PageId(p.0 >> shift)).collect();
                WarpAccess::scattered(pages, a.write)
            })
            .collect();
        let recording = trace::Recording::new(&trace);
        let mut visited = Vec::new();
        recording.for_each(|access| visited.push(access.clone()));
        prop_assert_eq!(&visited, &trace);
        let widest = trace.iter().flat_map(|a| a.pages.iter()).map(|p| p.0).max();
        let bits = widest.map_or(0, |id| 64 - id.leading_zeros() as usize);
        let width = bits.div_ceil(8).max(1);
        let ids: usize = trace.iter().map(|a| a.pages.len()).sum();
        prop_assert_eq!(recording.byte_len(), trace.len() + ids * width);
    }

    #[test]
    fn pageset_iteration_matches_len(access in arb_access()) {
        prop_assert_eq!(access.pages.iter().count(), access.pages.len());
        prop_assert!(!access.pages.is_empty());
    }
}
