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
