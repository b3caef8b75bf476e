//! Output checks and failure accounting.
//!
//! Simulated statistics are deterministic, so every run can be checked:
//! against the committed reference (`reference.txt`, recorded at
//! [`DEFAULT_SEED`]), against the run's own first pass, and between the
//! untraced and traced passes. Each check failure, panic or failed
//! invariant marks the operation failed.

use std::panic::{self, AssertUnwindSafe};

use gmt_core::TieringMetrics;

/// The seed the committed reference was recorded at.
pub const DEFAULT_SEED: u64 = 1;

/// The committed reference statistics: one line per checked output,
/// `<workload> <label> <field>=<value> ...`.
const REFERENCE: &str = include_str!("../reference.txt");

/// Attempted and failed operations of one run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// ... of which failed.
    pub failed: u64,
    /// Why, for the first few failures.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Counts `ops` operations whose joint verdict is `verdict`.
    pub fn record(&mut self, ops: u64, verdict: Result<(), String>) {
        self.attempted += ops;
        if let Err(why) = verdict {
            self.fail(ops, why);
        }
    }

    /// Counts `ops` already-attempted operations as failed.
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        if self.reasons.len() < 8 {
            self.reasons.push(why);
        }
    }
}

/// Runs `f`, turning a panic into an error carrying its message.
pub fn catch<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    panic::catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".into());
        format!("panicked: {msg}")
    })
}

/// Compares one output line with the committed reference.
pub fn against_reference(workload: &str, label: &str, fields: &str) -> Result<(), String> {
    let prefix = format!("{workload} {label} ");
    match REFERENCE.lines().find(|l| l.starts_with(&prefix)) {
        None => Err("no reference line".into()),
        Some(line) if &line[prefix.len()..] == fields => Ok(()),
        Some(line) => Err(format!(
            "differs from the reference\n    got  {fields}\n    want {}",
            &line[prefix.len()..]
        )),
    }
}

/// Every `TieringMetrics` counter as `name=value` fields.
pub fn metrics_fields(m: &TieringMetrics) -> String {
    format!(
        "accesses={} t1_hits={} t1_misses={} t2_hits={} wasteful_lookups={} ssd_reads={} \
         ssd_writes={} t1_evictions={} t2_placements={} discards={} t2_writebacks={} \
         t2_drops={} short_reuse_keeps={} forced_t2_placements={} prefetches={} \
         predictions={} predictions_correct={}",
        m.accesses,
        m.t1_hits,
        m.t1_misses,
        m.t2_hits,
        m.wasteful_lookups,
        m.ssd_reads,
        m.ssd_writes,
        m.t1_evictions,
        m.t2_placements,
        m.discards,
        m.t2_writebacks,
        m.t2_drops,
        m.short_reuse_keeps,
        m.forced_t2_placements,
        m.prefetches,
        m.predictions,
        m.predictions_correct
    )
}

/// FNV-1a 64 of `bytes`: a cheap, stable fingerprint of exported traces.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_counts_failures_and_keeps_reasons() {
        let mut t = Tally::default();
        t.record(3, Ok(()));
        t.record(2, Err("bad".into()));
        assert_eq!((t.attempted, t.failed), (5, 2));
        assert_eq!(t.reasons, vec!["bad".to_string()]);
    }

    #[test]
    fn panics_become_errors() {
        let err = catch(|| -> u32 { panic!("boom {}", 7) }).unwrap_err();
        assert!(err.contains("boom 7"), "{err}");
        assert_eq!(catch(|| 5), Ok(5));
    }

    #[test]
    fn reference_covers_every_workload() {
        for workload in ["paper_suite", "gmt_replay", "serve_frontend"] {
            assert!(
                REFERENCE
                    .lines()
                    .any(|l| l.starts_with(&format!("{workload} "))),
                "no reference lines for {workload}"
            );
        }
        assert!(against_reference("gmt_replay", "nope/none", "x=1").is_err());
    }

    #[test]
    fn fnv_is_the_published_function() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
