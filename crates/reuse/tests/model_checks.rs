//! Model-based property tests: the predictor and the reuse tree checked
//! against straightforward reference implementations.

use gmt_mem::{PageId, Tier};
use gmt_reuse::{MarkovPredictor, PageHistory, ReuseTracker};
use proptest::prelude::*;

fn arb_tier() -> impl Strategy<Value = Tier> {
    (0usize..3).prop_map(Tier::from_index)
}

proptest! {
    #[test]
    fn markov_matches_reference_counts(
        transitions in proptest::collection::vec((arb_tier(), arb_tier()), 0..200),
    ) {
        let mut predictor = MarkovPredictor::new();
        let mut reference = std::collections::BTreeMap::<(Tier, Tier), u64>::new();
        for &(from, to) in &transitions {
            predictor.reinforce(from, to);
            *reference.entry((from, to)).or_default() += 1;
        }
        for from in Tier::ALL {
            for to in Tier::ALL {
                prop_assert_eq!(
                    predictor.weight(from, to),
                    reference.get(&(from, to)).copied().unwrap_or(0)
                );
            }
        }
        // The prediction is always an argmax of the reference row (or the
        // state itself when the row is empty).
        for from in Tier::ALL {
            let predicted = predictor.predict(from);
            let row_max = Tier::ALL
                .iter()
                .map(|&t| reference.get(&(from, t)).copied().unwrap_or(0))
                .max()
                .unwrap_or(0);
            if row_max == 0 {
                prop_assert_eq!(predicted, from);
            } else {
                prop_assert_eq!(
                    reference.get(&(from, predicted)).copied().unwrap_or(0),
                    row_max,
                    "prediction must carry the row's maximum weight"
                );
            }
        }
    }

    #[test]
    fn history_trains_exactly_consecutive_pairs(
        outcomes in proptest::collection::vec(arb_tier(), 0..100),
    ) {
        let mut predictor = MarkovPredictor::new();
        let mut history = PageHistory::default();
        for &t in &outcomes {
            history.observe(t, &mut predictor);
        }
        let expected_total = outcomes.len().saturating_sub(1) as u64;
        prop_assert_eq!(predictor.total(), expected_total);
        prop_assert_eq!(history.last(), outcomes.last().copied());
        if outcomes.len() >= 2 {
            prop_assert_eq!(
                history.second_last(),
                Some(outcomes[outcomes.len() - 2])
            );
        }
    }

    #[test]
    fn distinct_since_matches_reference(
        stream in proptest::collection::vec(0u64..20, 1..200),
        snapshot_at in any::<prop::sample::Index>(),
    ) {
        let mut tracker = ReuseTracker::new();
        let cut = snapshot_at.index(stream.len());
        for &p in &stream[..cut] {
            tracker.record(PageId(p));
        }
        let snapshot = tracker.position();
        for &p in &stream[cut..] {
            tracker.record(PageId(p));
        }
        let mut reference: Vec<u64> = stream[cut..].to_vec();
        reference.sort_unstable();
        reference.dedup();
        prop_assert_eq!(tracker.distinct_since(snapshot), reference.len() as u64);
    }
}
