//! Replay accounting: per-session [`CacheStats`] and the serializable
//! per-policy [`PolicyReport`] that `BENCH_cache.json` rows embed.
//!
//! Everything here is bit-deterministic for a given (trace, config,
//! policy) triple — wall-clock numbers live in the bench harness, not in
//! these types — so the determinism contract can be asserted by direct
//! equality.

use serde::{Deserialize, Serialize};

/// Cycle/energy/event accounting for one replay session.
///
/// Cycle counters are device cycles. *Demand* shift cycles sit on the
/// access critical path (the tape moving to serve the access); *restore*
/// cycles are background repositioning a policy orders after an access;
/// *migration* cycles pay for hotness-driven row swaps. All three are
/// real shifts and all three count toward
/// [`total_shift_cycles`](CacheStats::total_shift_cycles).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Total accesses replayed.
    pub accesses: u64,
    /// Loads.
    pub reads: u64,
    /// Stores.
    pub writes: u64,
    /// Tag-match hits.
    pub hits: u64,
    /// Misses (compulsory + conflict + capacity).
    pub misses: u64,
    /// Misses on loads.
    pub read_misses: u64,
    /// Misses on stores.
    pub write_misses: u64,
    /// Dirty evictions written back.
    pub writebacks: u64,
    /// Lines filled.
    pub fills: u64,
    /// Hotness-driven row swaps.
    pub migrations: u64,
    /// SRAM tag-check cycles.
    pub tag_cycles: u64,
    /// Critical-path shift cycles (serving accesses, writebacks, fills).
    pub demand_shift_cycles: u64,
    /// Background shift cycles restoring a policy's rest position.
    pub restore_shift_cycles: u64,
    /// Shift cycles spent swapping rows for hotness placement.
    pub migration_shift_cycles: u64,
    /// Port access cycles (point reads/writes of whole rows).
    pub access_cycles: u64,
    /// Shift energy, picojoules (all nanowires of the DBC move in
    /// lock-step, so energy fans out across the line width).
    pub shift_energy_pj: f64,
    /// Port read/write energy, picojoules.
    pub access_energy_pj: f64,
}

impl CacheStats {
    /// Every shift the session ordered: demand + restore + migration.
    pub fn total_shift_cycles(&self) -> u64 {
        self.demand_shift_cycles + self.restore_shift_cycles + self.migration_shift_cycles
    }

    /// Hit fraction in `[0, 1]` (1 for an empty session).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            1.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    /// Mean total shift cycles per access (0 for an empty session).
    pub fn avg_shift_per_access(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.total_shift_cycles() as f64 / self.accesses as f64
        }
    }

    /// The books balance: every access is a hit or a miss, every miss
    /// splits into read/write, and every fill came from a miss.
    pub fn balanced(&self) -> bool {
        self.accesses == self.hits + self.misses
            && self.accesses == self.reads + self.writes
            && self.misses == self.read_misses + self.write_misses
            && self.fills == self.misses
            && self.writebacks <= self.misses
    }
}

/// The deterministic summary of one (trace, policy) replay: what the
/// bench rows embed and what the determinism contract compares.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PolicyReport {
    /// Placement-policy name.
    pub policy: String,
    /// Hit fraction in `[0, 1]`.
    pub hit_rate: f64,
    /// Demand + restore + migration shift cycles.
    pub total_shift_cycles: u64,
    /// Critical-path shift cycles only.
    pub demand_shift_cycles: u64,
    /// Mean total shift cycles per access.
    pub avg_shift_per_access: f64,
    /// Misses converted into runtime jobs.
    pub miss_jobs: u64,
    /// Ones surviving the PIM filter over all fetched lines (0 when the
    /// filter op is disabled).
    pub filter_ones: u64,
    /// The full counter set.
    pub stats: CacheStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::json;

    fn sample() -> CacheStats {
        CacheStats {
            accesses: 100,
            reads: 70,
            writes: 30,
            hits: 80,
            misses: 20,
            read_misses: 15,
            write_misses: 5,
            writebacks: 3,
            fills: 20,
            migrations: 2,
            tag_cycles: 100,
            demand_shift_cycles: 250,
            restore_shift_cycles: 40,
            migration_shift_cycles: 12,
            access_cycles: 123,
            shift_energy_pj: 19.5,
            access_energy_pj: 7.25,
        }
    }

    #[test]
    fn derived_rates() {
        let s = sample();
        assert!(s.balanced());
        assert_eq!(s.total_shift_cycles(), 302);
        assert!((s.hit_rate() - 0.8).abs() < 1e-12);
        assert!((s.avg_shift_per_access() - 3.02).abs() < 1e-12);
    }

    #[test]
    fn empty_session_rates() {
        let s = CacheStats::default();
        assert!(s.balanced());
        assert_eq!(s.hit_rate(), 1.0);
        assert_eq!(s.avg_shift_per_access(), 0.0);
    }

    #[test]
    fn unbalanced_books_detected() {
        let mut s = sample();
        s.hits += 1;
        assert!(!s.balanced());
    }

    #[test]
    fn cache_stats_round_trip() {
        let s = sample();
        let text = json::to_string(&s);
        let back: CacheStats = json::from_str(&text).expect("stats deserialize");
        assert_eq!(back, s, "{text}");
    }

    #[test]
    fn policy_report_round_trip() {
        let r = PolicyReport {
            policy: "hotness".into(),
            hit_rate: 0.8,
            total_shift_cycles: 302,
            demand_shift_cycles: 250,
            avg_shift_per_access: 3.02,
            miss_jobs: 20,
            filter_ones: 512,
            stats: sample(),
        };
        let text = json::to_string(&r);
        let back: PolicyReport = json::from_str(&text).expect("report deserializes");
        assert_eq!(back, r, "{text}");
    }
}
