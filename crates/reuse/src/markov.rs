//! The 3-state Markov tier predictor (paper §2.1.3 step 2, Fig. 5).
//!
//! Each state is the "correct" tier a page *should have been* placed in at
//! one of its Tier-1 evictions — computable in hindsight when the page
//! returns to Tier-1, because its exact RVTD/RRD since eviction is then
//! known. A page carries its last two correct tiers; when the newer one
//! becomes known, the transition `older → newer` is reinforced. At the
//! next eviction, the predictor follows the heaviest transition out of the
//! page's last correct tier.
//!
//! The paper notes that per-page state is "negligible"; we keep the
//! two-tier history per page ([`PageHistory`], 2 × 2 bits' worth) and the
//! 3×3 transition weights either globally shared (the default) or per page
//! (an ablation configuration).

use gmt_mem::Tier;

/// A 3×3 transition-weight matrix over tiers.
///
/// # Examples
///
/// ```
/// use gmt_mem::Tier;
/// use gmt_reuse::MarkovPredictor;
///
/// let mut m = MarkovPredictor::new();
/// m.reinforce(Tier::Host, Tier::Ssd);
/// m.reinforce(Tier::Host, Tier::Ssd);
/// m.reinforce(Tier::Host, Tier::Gpu);
/// assert_eq!(m.predict(Tier::Host), Tier::Ssd);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MarkovPredictor {
    weights: [[u64; 3]; 3],
}

impl MarkovPredictor {
    /// Creates a predictor with all-zero weights.
    pub fn new() -> MarkovPredictor {
        MarkovPredictor::default()
    }

    /// Reinforces the transition `from → to` by one.
    pub fn reinforce(&mut self, from: Tier, to: Tier) {
        let w = &mut self.weights[from.index()][to.index()];
        *w = w.saturating_add(1);
    }

    /// Predicts the next correct tier given the last correct tier `from`:
    /// the heaviest outgoing transition. With no evidence for `from`, the
    /// prediction is `from` itself (a page that was medium-reuse last time
    /// is assumed medium-reuse again); ties go to the nearest tier, which
    /// errs towards keeping data close to the GPU.
    pub fn predict(&self, from: Tier) -> Tier {
        let row = &self.weights[from.index()];
        if row.iter().all(|&w| w == 0) {
            return from;
        }
        let mut best = Tier::Gpu;
        let mut best_w = 0u64;
        for t in Tier::ALL {
            let w = row[t.index()];
            if w > best_w {
                best = t;
                best_w = w;
            }
        }
        best
    }

    /// The raw weight of the transition `from → to`.
    pub fn weight(&self, from: Tier, to: Tier) -> u64 {
        self.weights[from.index()][to.index()]
    }

    /// Total observed transitions.
    pub fn total(&self) -> u64 {
        self.weights.iter().flatten().sum()
    }
}

/// A page's last two *correct* tiers, in eviction order.
///
/// Updated when the page returns to Tier-1 and its true RRD since the last
/// eviction becomes known; read when the page next comes up for eviction.
///
/// # Examples
///
/// ```
/// use gmt_mem::Tier;
/// use gmt_reuse::{MarkovPredictor, PageHistory};
///
/// let mut predictor = MarkovPredictor::new();
/// let mut history = PageHistory::default();
/// history.observe(Tier::Host, &mut predictor);        // first outcome
/// history.observe(Tier::Ssd, &mut predictor);         // trains Host -> Ssd
/// assert_eq!(history.last(), Some(Tier::Ssd));
/// assert_eq!(predictor.weight(Tier::Host, Tier::Ssd), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PageHistory {
    prev: Option<Tier>,
    prev2: Option<Tier>,
}

impl PageHistory {
    /// Records the newest known correct tier; if an older one exists, the
    /// `older → newer` transition is reinforced in `predictor`.
    pub fn observe(&mut self, correct: Tier, predictor: &mut MarkovPredictor) {
        if let Some(prev) = self.prev {
            predictor.reinforce(prev, correct);
        }
        self.prev2 = self.prev;
        self.prev = Some(correct);
    }

    /// The most recent correct tier, if any eviction has completed a
    /// round trip.
    pub fn last(&self) -> Option<Tier> {
        self.prev
    }

    /// The second most recent correct tier.
    pub fn second_last(&self) -> Option<Tier> {
        self.prev2
    }

    /// Whether any history has accumulated.
    pub fn is_empty(&self) -> bool {
        self.prev.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_pattern_predicts_itself() {
        // MultiVectorAdd-like: the same correct tier at every eviction
        // (paper Fig. 4b).
        let mut p = MarkovPredictor::new();
        let mut h = PageHistory::default();
        for _ in 0..5 {
            h.observe(Tier::Host, &mut p);
        }
        assert_eq!(p.predict(h.last().unwrap()), Tier::Host);
    }

    #[test]
    fn alternating_pattern_is_learned() {
        // PageRank-like: tiers alternate between evictions (paper Fig. 4c).
        let mut p = MarkovPredictor::new();
        let mut h = PageHistory::default();
        for i in 0..10 {
            let t = if i % 2 == 0 { Tier::Host } else { Tier::Ssd };
            h.observe(t, &mut p);
        }
        // Last correct tier was Ssd; the learned transition says Host next.
        assert_eq!(h.last(), Some(Tier::Ssd));
        assert_eq!(p.predict(Tier::Ssd), Tier::Host);
        assert_eq!(p.predict(Tier::Host), Tier::Ssd);
    }

    #[test]
    fn no_evidence_predicts_same_tier() {
        let p = MarkovPredictor::new();
        for t in Tier::ALL {
            assert_eq!(p.predict(t), t);
        }
    }

    #[test]
    fn heavier_transition_wins() {
        let mut p = MarkovPredictor::new();
        for _ in 0..3 {
            p.reinforce(Tier::Gpu, Tier::Ssd);
        }
        p.reinforce(Tier::Gpu, Tier::Host);
        assert_eq!(p.predict(Tier::Gpu), Tier::Ssd);
        assert_eq!(p.total(), 4);
    }

    #[test]
    fn history_shifts_like_a_two_entry_queue() {
        let mut p = MarkovPredictor::new();
        let mut h = PageHistory::default();
        assert!(h.is_empty());
        h.observe(Tier::Gpu, &mut p);
        h.observe(Tier::Host, &mut p);
        h.observe(Tier::Ssd, &mut p);
        assert_eq!(h.last(), Some(Tier::Ssd));
        assert_eq!(h.second_last(), Some(Tier::Host));
        // Transitions recorded: Gpu->Host, Host->Ssd.
        assert_eq!(p.weight(Tier::Gpu, Tier::Host), 1);
        assert_eq!(p.weight(Tier::Host, Tier::Ssd), 1);
        assert_eq!(p.weight(Tier::Ssd, Tier::Gpu), 0);
    }

    #[test]
    fn first_observation_trains_nothing() {
        let mut p = MarkovPredictor::new();
        let mut h = PageHistory::default();
        h.observe(Tier::Ssd, &mut p);
        assert_eq!(p.total(), 0);
    }
}
