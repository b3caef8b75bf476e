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
    fn trace_roundtrips_arbitrary_accesses(
        accesses in proptest::collection::vec(arb_access(), 0..200),
    ) {
        let bytes = trace::encode(&accesses);
        let decoded = trace::decode(&bytes).expect("well-formed encoding decodes");
        prop_assert_eq!(decoded, accesses);
    }

    #[test]
    fn recording_roundtrips_arbitrary_accesses(
        accesses in proptest::collection::vec(arb_access(), 0..200),
        shift in 0u32..64,
    ) {
        // Shifting the uniform ids spreads them over every LEB128 width,
        // one byte to ten; the last two accesses pin the widest id.
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
    fn truncated_traces_never_panic(
        accesses in proptest::collection::vec(arb_access(), 1..50),
        cut_fraction in 0.0f64..1.0,
    ) {
        let bytes = trace::encode(&accesses);
        let cut = ((bytes.len() as f64) * cut_fraction) as usize;
        // Any prefix must decode cleanly or return an error — no panic.
        let _ = trace::decode(&bytes[..cut]);
    }

    #[test]
    fn corrupted_headers_never_panic(
        accesses in proptest::collection::vec(arb_access(), 1..20),
        index in any::<prop::sample::Index>(),
        byte in any::<u8>(),
    ) {
        let mut bytes = trace::encode(&accesses);
        let i = index.index(bytes.len());
        bytes[i] = byte;
        let _ = trace::decode(&bytes);
    }

    #[test]
    fn pageset_iteration_matches_len(access in arb_access()) {
        prop_assert_eq!(access.pages.iter().count(), access.pages.len());
        prop_assert!(!access.pages.is_empty());
    }
}
