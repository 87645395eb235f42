//! The shared sweep/cache accounting report.
//!
//! Every consumer that used to print its own ad-hoc counters — the
//! experiment regenerators, the benches, the CLI — renders this one
//! struct instead, so replay and cache accounting always reads the
//! same everywhere.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::cache::CacheStats;

/// Replay and cache accounting for one sweep (or one whole process).
///
/// # Examples
///
/// ```
/// use rebalance_trace::{Report, SweepEngine};
///
/// let engine = SweepEngine::new();
/// // ... run sweeps ...
/// let report = engine.report();
/// assert_eq!(report.replays, engine.replays());
/// println!("{report}");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Report {
    /// Fan-out replays performed (one per `(workload, scale)` item,
    /// regardless of tool count — live and cached alike).
    pub replays: u64,
    /// Cache accounting, when a [`TraceCache`](crate::TraceCache)
    /// mediated the replays.
    pub cache: Option<CacheStats>,
}

impl Report {
    /// Trace generations performed: with a cache this is the cache's
    /// generation counter; without one every replay generated.
    pub fn generations(&self) -> u64 {
        match &self.cache {
            Some(stats) => stats.generations,
            None => self.replays,
        }
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "replays: {} | generations: {}",
            self.replays,
            self.generations()
        )?;
        if let Some(stats) = &self.cache {
            write!(f, " | cache: {stats}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SweepEngine, TraceCache};

    #[test]
    fn cacheless_report_counts_every_replay_as_a_generation() {
        let engine = SweepEngine::new();
        let r = engine.report();
        assert_eq!(r.replays, 0);
        assert_eq!(r.generations(), 0);
        assert!(r.cache.is_none());
        assert!(r.to_string().starts_with("replays: 0"));
    }

    #[test]
    fn cached_report_uses_cache_generations() {
        let mut r = Report {
            replays: 41,
            ..Report::default()
        };
        assert_eq!(r.generations(), 41);
        r.cache = Some(CacheStats {
            hits: 38,
            misses: 3,
            generations: 3,
            ..CacheStats::default()
        });
        assert_eq!(r.generations(), 3);
        let text = r.to_string();
        assert!(text.contains("replays: 41"), "{text}");
        assert!(text.contains("38 hits"), "{text}");
    }

    #[test]
    fn with_cache_reads_live_counters() {
        let engine = SweepEngine::new().with_cache(TraceCache::scratch().unwrap());
        let r = engine.report();
        assert_eq!(r.cache, Some(CacheStats::default()));
        let _ = std::fs::remove_dir_all(engine.cache().unwrap().dir());
    }
}
