//! Round, message, bit, and cut accounting.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Statistics for one protocol run (one "phase" of an algorithm).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunStats {
    /// Synchronous rounds consumed.
    pub rounds: u64,
    /// Messages delivered.
    pub messages: u64,
    /// Total declared message bits.
    pub bits: u64,
    /// Bits that crossed the labelled Alice/Bob cut (0 when no cut is
    /// configured).
    pub cut_bits: u64,
    /// Largest declared size of any single message, in bits.
    pub max_message_bits: u64,
}

impl RunStats {
    /// Accumulates another run into this one (rounds add up; sizes max).
    pub fn absorb(&mut self, other: &RunStats) {
        self.rounds += other.rounds;
        self.messages += other.messages;
        self.bits += other.bits;
        self.cut_bits += other.cut_bits;
        self.max_message_bits = self.max_message_bits.max(other.max_message_bits);
    }
}

impl fmt::Display for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} rounds, {} msgs, {} bits",
            self.rounds, self.messages, self.bits
        )
    }
}

/// A named phase in an algorithm's metric log.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseStats {
    /// Human-readable phase label (e.g. `"hop-bfs"`).
    pub name: String,
    /// Statistics for that phase.
    pub stats: RunStats,
}

/// Telemetry from the engine's adaptive inline/fanned-out dispatcher.
///
/// Pure wall-clock bookkeeping: how rounds were routed and what the
/// cost model currently believes. Unlike [`RunStats`], none of this is
/// part of a run's deterministic outcome — two bit-identical runs at
/// different thread counts legitimately dispatch differently — so
/// [`Metrics`] equality deliberately ignores it.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct DispatchStats {
    /// Rounds whose step phase fanned out over the worker shards (the
    /// commit always runs on the caller thread).
    pub par_rounds: u64,
    /// Contested rounds (at or above the work floor) the cost model
    /// stepped inline on the caller thread.
    pub seq_rounds: u64,
    /// Rounds below the work floor, stepped inline without consulting
    /// the cost model.
    pub floor_rounds: u64,
    /// Latest EWMA estimate of inline-round nanoseconds per unit of
    /// work (0 when never measured).
    pub ewma_seq_ns_per_unit: f64,
    /// Latest EWMA estimate of fanned-out-round nanoseconds per unit of
    /// work (0 when never measured).
    pub ewma_par_ns_per_unit: f64,
}

/// Telemetry from an artifact cache consulted while producing a run's
/// answers (see `rpaths_core::cache`).
///
/// Like [`DispatchStats`], this is *not* part of a run's deterministic
/// outcome: a warm cache legitimately answers with zero rounds where a
/// cold one recomputes, and the accounting of the phases that *did* run
/// is what [`Metrics`] equality pins. Cache telemetry is therefore
/// deliberately excluded from equality.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing (the artifact was then recomputed).
    pub misses: u64,
    /// Artifacts inserted (fresh computations and imports).
    pub insertions: u64,
    /// Artifacts evicted to respect the capacity bound.
    pub evictions: u64,
}

impl CacheStats {
    /// Accumulates another cache's telemetry into this one.
    pub fn absorb(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.insertions += other.insertions;
        self.evictions += other.evictions;
    }

    /// Total lookups (hits plus misses).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups answered from the cache (`0.0` when no
    /// lookup happened).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }

    /// The counter increments since `earlier` (a snapshot taken from the
    /// same monotonically growing stats).
    pub fn delta_since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            insertions: self.insertions - earlier.insertions,
            evictions: self.evictions - earlier.evictions,
        }
    }

    /// `true` when no cache activity was recorded at all.
    pub fn is_zero(&self) -> bool {
        self.lookups() == 0 && self.insertions == 0 && self.evictions == 0
    }
}

/// Telemetry from fault injection (see `congest::faults`).
///
/// Unlike [`DispatchStats`], this *is* part of a run's deterministic
/// outcome: a [`crate::FaultPlan`] decides every message's fate from
/// `(seed, round, link, direction)` alone, so two runs of the same plan
/// at different thread counts must produce bit-identical `FaultStats` —
/// and [`Metrics`] equality deliberately includes it to pin that down.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Messages dropped because their link was down when they were sent.
    pub dropped_link_down: u64,
    /// Messages dropped because their sender or receiver was crashed.
    pub dropped_node_down: u64,
    /// Messages dropped by the plan's per-message drop probability.
    pub dropped_random: u64,
    /// Messages taken off the wire for late delivery.
    pub delayed: u64,
    /// Delayed messages that were eventually delivered (a drive that
    /// ends on an exact round budget may strand the difference
    /// in flight).
    pub delivered_late: u64,
    /// Rounds in which at least one fault event occurred.
    pub faulty_rounds: u64,
}

impl FaultStats {
    /// Accumulates another run's fault telemetry into this one.
    pub fn absorb(&mut self, other: &FaultStats) {
        self.dropped_link_down += other.dropped_link_down;
        self.dropped_node_down += other.dropped_node_down;
        self.dropped_random += other.dropped_random;
        self.delayed += other.delayed;
        self.delivered_late += other.delivered_late;
        self.faulty_rounds += other.faulty_rounds;
    }

    /// Total messages lost to any cause (late deliveries are not
    /// losses).
    pub fn total_dropped(&self) -> u64 {
        self.dropped_link_down + self.dropped_node_down + self.dropped_random
    }

    /// `true` when no fault event was recorded at all.
    pub fn is_zero(&self) -> bool {
        *self == FaultStats::default()
    }
}

/// Cumulative metrics for a [`crate::Network`] across all phases.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Metrics {
    /// Aggregate over all phases.
    pub total: RunStats,
    /// Per-phase breakdown, in execution order.
    pub phases: Vec<PhaseStats>,
    /// Adaptive-dispatch telemetry (excluded from equality; see
    /// [`DispatchStats`]).
    pub dispatch: DispatchStats,
    /// Fault-injection telemetry (included in equality; see
    /// [`FaultStats`]).
    pub faults: FaultStats,
    /// Artifact-cache telemetry (excluded from equality; see
    /// [`CacheStats`]).
    pub cache: CacheStats,
}

/// Equality covers the deterministic accounting only (`total`, `phases`,
/// and `faults`); [`Metrics::dispatch`] is wall-clock telemetry that may
/// differ between bit-identical runs.
impl PartialEq for Metrics {
    fn eq(&self, other: &Metrics) -> bool {
        self.total == other.total && self.phases == other.phases && self.faults == other.faults
    }
}

impl Eq for Metrics {}

impl Metrics {
    /// Records a finished phase.
    pub fn record(&mut self, name: impl Into<String>, stats: RunStats) {
        self.total.absorb(&stats);
        self.phases.push(PhaseStats {
            name: name.into(),
            stats,
        });
    }

    /// Accumulates dispatcher telemetry from one drive: round counters
    /// add up, EWMA estimates are replaced by the latest measured
    /// (non-zero) model state.
    pub fn record_dispatch(&mut self, d: DispatchStats) {
        self.dispatch.par_rounds += d.par_rounds;
        self.dispatch.seq_rounds += d.seq_rounds;
        self.dispatch.floor_rounds += d.floor_rounds;
        if d.ewma_seq_ns_per_unit != 0.0 {
            self.dispatch.ewma_seq_ns_per_unit = d.ewma_seq_ns_per_unit;
        }
        if d.ewma_par_ns_per_unit != 0.0 {
            self.dispatch.ewma_par_ns_per_unit = d.ewma_par_ns_per_unit;
        }
    }

    /// Accumulates fault-injection telemetry from one drive.
    pub fn record_faults(&mut self, f: FaultStats) {
        self.faults.absorb(&f);
    }

    /// Accumulates artifact-cache telemetry from one solve.
    pub fn record_cache(&mut self, c: CacheStats) {
        self.cache.absorb(&c);
    }

    /// Total rounds across all phases.
    pub fn rounds(&self) -> u64 {
        self.total.rounds
    }

    /// Appends every phase of `other` onto this log by draining it,
    /// preserving execution order and leaving `other` empty.
    ///
    /// This is the by-reference way to merge the accounting of two runs
    /// (e.g. a sub-solver's network into an outer solver's metrics):
    /// phase names move instead of being cloned, so merging costs
    /// `O(phases)` pointer moves rather than a deep copy of every name.
    pub fn merge_from(&mut self, other: &mut Metrics) {
        self.total.absorb(&other.total);
        other.total = RunStats::default();
        self.phases.append(&mut other.phases);
        self.record_dispatch(other.dispatch);
        other.dispatch = DispatchStats::default();
        self.faults.absorb(&other.faults);
        other.faults = FaultStats::default();
        self.cache.absorb(&other.cache);
        other.cache = CacheStats::default();
    }

    /// Looks up the accumulated stats of all phases whose name contains
    /// `needle`.
    pub fn phase_total(&self, needle: &str) -> RunStats {
        let mut acc = RunStats::default();
        for p in &self.phases {
            if p.name.contains(needle) {
                acc.absorb(&p.stats);
            }
        }
        acc
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "total: {}", self.total)?;
        for p in &self.phases {
            writeln!(f, "  {:<28} {}", p.name, p.stats)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_adds_and_maxes() {
        let mut a = RunStats {
            rounds: 3,
            messages: 10,
            bits: 100,
            cut_bits: 5,
            max_message_bits: 12,
        };
        let b = RunStats {
            rounds: 2,
            messages: 1,
            bits: 9,
            cut_bits: 0,
            max_message_bits: 30,
        };
        a.absorb(&b);
        assert_eq!(a.rounds, 5);
        assert_eq!(a.messages, 11);
        assert_eq!(a.bits, 109);
        assert_eq!(a.cut_bits, 5);
        assert_eq!(a.max_message_bits, 30);
    }

    #[test]
    fn merge_from_drains_phases_in_order() {
        let mut outer = Metrics::default();
        outer.record(
            "a",
            RunStats {
                rounds: 1,
                messages: 2,
                ..Default::default()
            },
        );
        let mut inner = Metrics::default();
        inner.record(
            "b",
            RunStats {
                rounds: 3,
                max_message_bits: 9,
                ..Default::default()
            },
        );
        inner.record(
            "c",
            RunStats {
                rounds: 4,
                ..Default::default()
            },
        );
        outer.merge_from(&mut inner);
        assert_eq!(outer.rounds(), 8);
        assert_eq!(outer.total.messages, 2);
        assert_eq!(outer.total.max_message_bits, 9);
        assert_eq!(
            outer
                .phases
                .iter()
                .map(|p| p.name.as_str())
                .collect::<Vec<_>>(),
            vec!["a", "b", "c"]
        );
        assert!(inner.phases.is_empty());
        assert_eq!(inner.total, RunStats::default());
    }

    #[test]
    fn cache_stats_rates_and_deltas() {
        let mut c = CacheStats::default();
        assert!(c.is_zero());
        assert_eq!(c.hit_rate(), 0.0);
        c.hits = 3;
        c.misses = 1;
        c.insertions = 1;
        assert_eq!(c.lookups(), 4);
        assert_eq!(c.hit_rate(), 0.75);
        let later = CacheStats {
            hits: 5,
            misses: 2,
            insertions: 2,
            evictions: 1,
        };
        let d = later.delta_since(&c);
        assert_eq!((d.hits, d.misses, d.insertions, d.evictions), (2, 1, 1, 1));
        // Equality ignores cache telemetry, like dispatch telemetry.
        let mut a = Metrics::default();
        let mut b = Metrics::default();
        a.record_cache(later);
        assert_eq!(a, b);
        b.merge_from(&mut a);
        assert_eq!(b.cache.hits, 5);
        assert!(a.cache.is_zero());
    }

    #[test]
    fn metrics_record_and_query() {
        let mut m = Metrics::default();
        m.record(
            "bfs/forward",
            RunStats {
                rounds: 4,
                ..Default::default()
            },
        );
        m.record(
            "bfs/backward",
            RunStats {
                rounds: 6,
                ..Default::default()
            },
        );
        m.record(
            "broadcast",
            RunStats {
                rounds: 10,
                ..Default::default()
            },
        );
        assert_eq!(m.rounds(), 20);
        assert_eq!(m.phase_total("bfs").rounds, 10);
        assert_eq!(m.phase_total("broadcast").rounds, 10);
        assert_eq!(m.phases.len(), 3);
    }
}
