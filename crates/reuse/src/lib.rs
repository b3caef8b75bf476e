//! Reuse-distance machinery for GMT's placement policy (paper §2.1.3).
//!
//! GMT-Reuse decides, at every Tier-1 eviction, which tier the victim's
//! *Remaining Reuse Distance* (RRD) falls into. Doing that practically
//! requires four pieces, each a module here:
//!
//! * [`olken`] — exact (unique) reuse distances from an access stream via
//!   the classic tree-based method, used on the "CPU side" to turn sampled
//!   VTDs into training pairs,
//! * [`ols`] — incremental Ordinary Least Squares fitting of the linear
//!   `RD = m·VTD + b` relation the paper observes (Fig. 4a),
//! * [`sampler`] — the GPU→CPU sampling pipeline: samples are batched
//!   (10 000 at a time in the paper) and the regression is refined
//!   iteratively while the application runs,
//! * [`classify`] — Eq. 1: mapping a predicted RRD onto
//!   short/medium/long-reuse, i.e. onto a tier,
//! * [`markov`] — the 3-state Markov chain (Fig. 5) that predicts the
//!   *next* RVTD class of an eviction candidate from its last two
//!   "correct tier" outcomes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod markov;
pub mod mrc;
pub mod olken;
pub mod ols;
pub mod sampler;

pub use classify::TierClassifier;
pub use markov::{MarkovPredictor, PageHistory};
pub use olken::{Distance, ReuseTracker};
pub use ols::{LinearFit, Ols};
pub use sampler::{SamplerConfig, SamplingRegression};
