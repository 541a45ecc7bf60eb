//! Runtime observability: histograms, per-bank occupancy, and the
//! serializable [`RuntimeStats`] roll-up.

use coruscant_mem::controller::{BankStats, ControllerStats};
use coruscant_mem::ScrubOutcome;
use serde::{Deserialize, Serialize};

/// A power-of-two-bucket histogram of `u64` samples. Bucket `i` counts
/// samples in `[2^(i-1), 2^i)` (bucket 0 counts zeros and ones), which
/// keeps the serialized form compact at any dynamic range.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Histogram {
    /// Bucket counts; index `i` covers values below `2^i` and at or above
    /// `2^(i-1)`.
    pub buckets: Vec<u64>,
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Adds one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = (64 - value.leading_zeros()) as usize;
        if self.buckets.len() <= bucket {
            self.buckets.resize(bucket + 1, 0);
        }
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest sample recorded.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Folds another histogram into this one bucket-wise (used to merge
    /// per-domain histograms into the session roll-up).
    pub fn merge(&mut self, other: &Histogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (i, c) in other.buckets.iter().enumerate() {
            self.buckets[i] += c;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// One bank's share of a run.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct BankOccupancy {
    /// Bank index.
    pub bank: usize,
    /// Jobs that ran on this bank.
    pub jobs: u64,
    /// Busy (service) memory cycles the bank accumulated.
    pub busy_cycles: u64,
    /// Memory cycles jobs spent waiting for this bank before starting.
    pub wait_cycles: u64,
}

/// Fault-tolerance counters of a runtime session (all zero when neither
/// fault injection nor a protection policy is configured).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct FaultStats {
    /// Distinct jobs that ran under an active protection policy.
    pub protected_jobs: u64,
    /// Program executions across all jobs and attempts (replication and
    /// retries included) — the detection overhead in units of runs.
    pub replicas_run: u64,
    /// Faults detected by protection: mismatching compare-pairs plus
    /// voted readouts whose replicas disagreed.
    pub faults_detected: u64,
    /// Extra compare-pairs run after a mismatch (re-execute policy).
    pub retries: u64,
    /// Readouts where the NMR majority overruled at least one replica.
    pub votes_overturned: u64,
    /// Unverified jobs the scheduler re-dispatched to a different bank.
    pub redispatches: u64,
    /// Jobs whose final attempt still failed verification.
    pub unverified_jobs: u64,
    /// Position-code scrub passes dispatched to suspect banks.
    pub scrubs: u64,
    /// Aggregate wires checked/realigned/repaired across all scrubs.
    pub scrub: ScrubOutcome,
    /// Banks in the Suspect state at session end.
    pub suspect_banks: u64,
    /// Banks quarantined during the session (sticky).
    pub quarantined_banks: u64,
    /// Fraction of banks lost to quarantine, `0.0..=1.0`.
    pub degraded_capacity: f64,
}

/// Same-bank batch-fusion counters of a runtime session (all zero when
/// batching is disabled).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct BatchStats {
    /// Batched dispatches (≥2 jobs spliced into one program).
    pub batches: u64,
    /// Jobs that executed as members of a batched dispatch.
    pub batched_jobs: u64,
    /// Batched dispatches whose spliced+optimized program was served from
    /// the batched-splice cache (same ordered member shapes seen before).
    pub splice_hits: u64,
    /// Batched dispatches that had to run the splice+optimize pipeline.
    pub splice_misses: u64,
}

/// Dependency-gating and resident-weight counters of a runtime session
/// (all zero when neither chains nor pins are used).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct PipelineStats {
    /// Jobs that waited in the dependency tracker before placement.
    pub deferred_jobs: u64,
    /// Deferred jobs released after their predecessors retired.
    pub released_jobs: u64,
    /// Jobs dropped because a predecessor failed, was cancelled, or a
    /// binder refused to build (they never ran; reported as cancelled).
    pub cascade_cancelled: u64,
    /// Resident weight pins materialized.
    pub residents: u64,
    /// Re-materialization jobs quarantine forced (pinned weights
    /// re-loaded on a healthy bank).
    pub rematerializations: u64,
}

/// One scheduler domain's share of a session.
///
/// Under [`SchedMode::Classic`](crate::SchedMode) a "domain" is one
/// worker shard (the single scheduler thread does all placement); under
/// [`SchedMode::Parallel`](crate::SchedMode) it is one fused
/// scheduler+executor domain owning `bank % domains == d` banks.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DomainStats {
    /// Domain (shard) index.
    pub domain: usize,
    /// Dispatches this domain issued (batched dispatches count once).
    pub issued: u64,
    /// Member jobs this domain completed.
    pub jobs: u64,
    /// Submissions this domain stole from sibling injectors (parallel
    /// mode only).
    pub steals: u64,
    /// Wall-clock microseconds the domain's thread spent working (not
    /// waiting). This is the denominator of the scheduler-capacity
    /// metric the bench harness reports.
    pub busy_micros: u64,
    /// Deepest the domain's completion ring got before a drain
    /// (parallel mode only).
    pub ring_peak: u64,
}

/// The scheduler-occupancy profile of a session: where the scheduling
/// hot path spent its time, stage by stage.
///
/// Everything here is **wall-clock measurement**, not modeled time — two
/// otherwise identical runs will report different micros. Consumers that
/// compare reports for determinism should compare the modeled fields of
/// [`RuntimeStats`] and ignore `sched`, or compare only the counter
/// fields (`steals`, `per_domain[].issued`/`jobs`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SchedStats {
    /// Which scheduling engine ran: `"classic"` or `"parallel"`.
    pub mode: String,
    /// Scheduler domains (1 for classic's single loop; the shard count
    /// for parallel).
    pub domains: usize,
    /// Microseconds the scheduler spent popping the submission queue.
    pub pop_micros: u64,
    /// Microseconds spent admitting submissions (compile-cache front,
    /// dependency gating, chain admission).
    pub admit_micros: u64,
    /// Microseconds spent resolving placements to units and queueing.
    pub place_micros: u64,
    /// Microseconds spent batching, splicing, and dispatching work.
    pub dispatch_micros: u64,
    /// Microseconds spent draining and applying completion acks.
    pub ack_micros: u64,
    /// Busy microseconds of the busiest single thread (scheduler or any
    /// worker/domain) — the serial bottleneck a scaling claim is made
    /// against.
    pub busy_micros: u64,
    /// Wall-clock microseconds the scheduling engine was live.
    pub wall_micros: u64,
    /// Busy fraction of the busiest thread over the engine's lifetime,
    /// `0.0..=100.0`.
    pub occupancy_pct: f64,
    /// Submissions moved between domains by work-stealing (parallel
    /// mode only).
    pub steals: u64,
    /// Per-domain breakdown, in domain order.
    pub per_domain: Vec<DomainStats>,
}

impl SchedStats {
    /// Sum of the per-stage scheduler micros.
    pub fn stage_micros(&self) -> u64 {
        self.pop_micros
            + self.admit_micros
            + self.place_micros
            + self.dispatch_micros
            + self.ack_micros
    }
}

/// Aggregate, serializable statistics of a runtime session.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct RuntimeStats {
    /// Jobs completed.
    pub jobs: u64,
    /// Jobs dropped by cancellation before reaching a bank (they report
    /// no outcome and are not in `jobs`).
    pub cancelled: u64,
    /// Jobs dropped at issue time because their queueing deadline had
    /// already passed (they report no outcome and are not in `jobs`).
    pub expired: u64,
    /// `cpim` instructions executed.
    pub instructions: u64,
    /// Worker shards the run used.
    pub shards: usize,
    /// Jobs the on-enqueue compiler changed (fusion, elimination, or
    /// estimated-cycle reduction).
    pub optimized_jobs: u64,
    /// Instructions the compiler removed across all submitted jobs.
    pub instructions_eliminated: u64,
    /// Estimated device cycles the compiler removed across all jobs.
    pub est_device_cycles_saved: u64,
    /// Modeled end-to-end makespan in memory cycles (all banks drained).
    pub makespan_cycles: u64,
    /// Total internal PIM device cycles across all jobs.
    pub device_cycles: u64,
    /// Jobs per thousand modeled memory cycles ×1000 would overflow
    /// nothing but stays integer-hostile; this is jobs per modeled
    /// microsecond assuming the configured memory cycle time.
    pub jobs_per_us: f64,
    /// Per-bank occupancy, densest first.
    pub per_bank: Vec<BankOccupancy>,
    /// Distribution of per-bank scheduler queue depths at enqueue.
    pub queue_depth: Histogram,
    /// Distribution of per-job wait times (memory cycles).
    pub wait: Histogram,
    /// The timing controller's aggregate statistics.
    pub controller: ControllerStats,
    /// The timing controller's per-bank request distribution.
    pub bank_stats: BankStats,
    /// Fault detection, retry, and quarantine counters.
    pub faults: FaultStats,
    /// Compiled-program cache counters.
    pub cache: crate::cache::CacheStats,
    /// Same-bank batch-fusion counters.
    pub batch: BatchStats,
    /// Dependency-gating and resident-weight counters.
    pub pipeline: PipelineStats,
    /// Software-fault supervision counters (panics caught, shard
    /// restarts, hung attempts, quarantined programs).
    pub supervision: crate::supervise::SupervisionStats,
    /// Scheduler-occupancy profile (wall-clock; see [`SchedStats`] for
    /// the determinism caveat).
    pub sched: SchedStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 1025.0 / 8.0).abs() < 1e-9);
        // 0 -> bucket 0; 1 -> bucket 1; 2,3 -> bucket 2; 4,7 -> bucket 3;
        // 8 -> bucket 4; 1000 -> bucket 10.
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[2], 2);
        assert_eq!(h.buckets[3], 2);
        assert_eq!(h.buckets[4], 1);
        assert_eq!(h.buckets[10], 1);
    }

    #[test]
    fn stats_serialize_to_json() {
        let mut stats = RuntimeStats {
            jobs: 3,
            shards: 2,
            ..RuntimeStats::default()
        };
        stats.wait.record(17);
        let json = serde::json::to_string(&stats);
        assert!(json.contains("\"jobs\":3"));
        assert!(json.contains("\"queue_depth\""));
        assert!(json.contains("\"buckets\""));
    }
}
