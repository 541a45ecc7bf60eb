//! Server-level accounting: submission/rejection/completion counters
//! plus the wrapped runtime's final [`RuntimeStats`].

use coruscant_qos::QosStats;
use coruscant_runtime::{RuntimeStats, SchedStats};
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};

/// Final statistics a drained server hands back from
/// [`crate::Server::shutdown`].
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct ServerStats {
    /// All submission attempts (accepted + rejected).
    pub submitted: u64,
    /// Submissions that passed admission and entered the runtime queue.
    pub accepted: u64,
    /// Accepted jobs that executed and produced outputs.
    pub completed: u64,
    /// Accepted jobs that executed and hit a PIM error.
    pub failed: u64,
    /// Submissions shed by admission control (depth or rate).
    pub rejected_overload: u64,
    /// Submissions shed by the weighted-fair QoS stage (per-client rate
    /// quota or fair-share lag under congestion).
    pub rejected_throttled: u64,
    /// Submissions refused because the runtime queue was at capacity.
    pub rejected_queue_full: u64,
    /// Submissions refused because their deadline had already expired.
    pub rejected_deadline: u64,
    /// Submissions refused because the server was draining.
    pub rejected_closed: u64,
    /// Pipeline members refused because the chain was structurally
    /// invalid (forward or self dependency).
    pub rejected_invalid: u64,
    /// Submissions refused because their program fingerprint is
    /// quarantined as poison (it kept hanging workers).
    pub rejected_poison: u64,
    /// Accepted jobs cancelled by deadline expiry while still queued.
    pub expired: u64,
    /// Accepted jobs cancelled by an explicit client cancel while queued.
    pub cancelled: u64,
    /// Accepted jobs supervision gave up after their attempts exceeded
    /// the watchdog budget (abandoned as hung).
    pub hung: u64,
    /// Accepted jobs supervision gave up after their attempts kept
    /// crashing workers (crash-retry budget exhausted).
    pub crashed: u64,
    /// Accepted jobs whose fate the server never learned (worker lost or
    /// session failure).
    pub lost: u64,
    /// Per-client weighted-fair QoS accounting (empty when QoS is off).
    pub qos: QosStats,
    /// The wrapped runtime session's aggregate statistics.
    pub runtime: RuntimeStats,
}

impl ServerStats {
    /// All rejections, across reasons.
    pub fn rejected(&self) -> u64 {
        self.rejected_overload
            + self.rejected_throttled
            + self.rejected_queue_full
            + self.rejected_deadline
            + self.rejected_closed
            + self.rejected_invalid
            + self.rejected_poison
    }

    /// The wrapped session's scheduler-occupancy profile: engine mode,
    /// per-stage micros, work-steal counts, and per-domain breakdowns
    /// (ring depths included). Serialized with the rest of the stats, so
    /// an operator dashboard reads it straight off the shutdown JSON.
    pub fn sched(&self) -> &SchedStats {
        &self.runtime.sched
    }

    /// The accounting invariant every drained server satisfies: every
    /// submission is either accepted or rejected, and every accepted job
    /// resolves exactly one way.
    pub fn balanced(&self) -> bool {
        self.submitted == self.accepted + self.rejected()
            && self.accepted
                == self.completed
                    + self.failed
                    + self.expired
                    + self.cancelled
                    + self.hung
                    + self.crashed
                    + self.lost
    }
}

/// Live atomic counters behind the final [`ServerStats`].
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub submitted: AtomicU64,
    pub accepted: AtomicU64,
    pub completed: AtomicU64,
    pub failed: AtomicU64,
    pub rejected_overload: AtomicU64,
    pub rejected_throttled: AtomicU64,
    pub rejected_queue_full: AtomicU64,
    pub rejected_deadline: AtomicU64,
    pub rejected_closed: AtomicU64,
    pub rejected_invalid: AtomicU64,
    pub rejected_poison: AtomicU64,
    pub expired: AtomicU64,
    pub cancelled: AtomicU64,
    pub hung: AtomicU64,
    pub crashed: AtomicU64,
    pub lost: AtomicU64,
}

impl Counters {
    pub(crate) fn snapshot(&self, runtime: RuntimeStats, qos: QosStats) -> ServerStats {
        ServerStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            accepted: self.accepted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            rejected_overload: self.rejected_overload.load(Ordering::Relaxed),
            rejected_throttled: self.rejected_throttled.load(Ordering::Relaxed),
            rejected_queue_full: self.rejected_queue_full.load(Ordering::Relaxed),
            rejected_deadline: self.rejected_deadline.load(Ordering::Relaxed),
            rejected_closed: self.rejected_closed.load(Ordering::Relaxed),
            rejected_invalid: self.rejected_invalid.load(Ordering::Relaxed),
            rejected_poison: self.rejected_poison.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            hung: self.hung.load(Ordering::Relaxed),
            crashed: self.crashed.load(Ordering::Relaxed),
            lost: self.lost.load(Ordering::Relaxed),
            qos,
            runtime,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balance_checks_both_levels() {
        let stats = ServerStats {
            submitted: 10,
            accepted: 7,
            completed: 5,
            failed: 1,
            expired: 1,
            rejected_overload: 2,
            rejected_queue_full: 1,
            ..ServerStats::default()
        };
        assert!(stats.balanced());
        let unbalanced = ServerStats {
            completed: 6,
            ..stats
        };
        assert!(!unbalanced.balanced());
    }

    #[test]
    fn stats_serialize_to_json() {
        let json = serde::json::to_string(&ServerStats::default());
        assert!(json.contains("\"rejected_overload\""));
        assert!(json.contains("\"runtime\""));
        // The scheduler-occupancy profile rides along.
        assert!(json.contains("\"sched\""));
        assert!(json.contains("\"per_domain\""));
    }

    #[test]
    fn sched_profile_round_trips_through_json() {
        use coruscant_runtime::DomainStats;
        let sched = SchedStats {
            mode: "parallel".into(),
            domains: 2,
            pop_micros: 11,
            admit_micros: 22,
            place_micros: 33,
            dispatch_micros: 44,
            ack_micros: 55,
            busy_micros: 120,
            wall_micros: 300,
            occupancy_pct: 40.0,
            steals: 7,
            per_domain: vec![
                DomainStats {
                    domain: 0,
                    issued: 10,
                    jobs: 12,
                    steals: 7,
                    busy_micros: 120,
                    ring_peak: 3,
                },
                DomainStats {
                    domain: 1,
                    issued: 8,
                    jobs: 8,
                    steals: 0,
                    busy_micros: 90,
                    ring_peak: 2,
                },
            ],
        };
        let json = serde::json::to_string(&sched);
        let back: SchedStats = serde::json::from_str(&json).unwrap();
        assert_eq!(back, sched);
        // The fields an occupancy dashboard keys on survive the trip.
        assert!(json.contains("\"occupancy_pct\""));
        assert!(json.contains("\"ring_peak\""));
        assert!(json.contains("\"steals\""));
    }

    #[test]
    fn drained_parallel_server_surfaces_its_sched_profile() {
        use coruscant_core::isa::{BlockSize, CpimInstr, CpimOpcode};
        use coruscant_core::program::{PimProgram, Step};
        use coruscant_mem::{DbcLocation, MemoryConfig, RowAddress};
        use coruscant_runtime::{RuntimeOptions, SchedMode};

        let loc = DbcLocation::new(0, 0, 0, 0);
        let program = PimProgram {
            steps: vec![
                Step::Load {
                    addr: RowAddress::new(loc, 4),
                    values: vec![3; 8],
                    lane: 8,
                },
                Step::Load {
                    addr: RowAddress::new(loc, 5),
                    values: vec![4; 8],
                    lane: 8,
                },
                Step::Exec(
                    CpimInstr::new(
                        CpimOpcode::Add,
                        RowAddress::new(loc, 4),
                        2,
                        BlockSize::new(8).unwrap(),
                        Some(RowAddress::new(loc, 20)),
                    )
                    .unwrap(),
                ),
                Step::Readout {
                    label: "sum".into(),
                    addr: RowAddress::new(loc, 20),
                    lane: 8,
                },
            ],
        };
        let server = crate::Server::start(
            MemoryConfig::tiny(),
            crate::ServerOptions {
                runtime: RuntimeOptions::default()
                    .with_shards(2)
                    .with_sched_mode(SchedMode::Parallel),
                ..crate::ServerOptions::default()
            },
        )
        .expect("parallel server starts");
        let client = server.client();
        let handles: Vec<_> = (0..16)
            .map(|_| client.submit(program.clone()).expect("accepted"))
            .collect();
        for h in handles {
            h.wait().expect("completes");
        }
        let stats = server.shutdown().expect("drains");
        assert!(stats.balanced(), "{stats:?}");
        let sched = stats.sched();
        assert_eq!(sched.mode, "parallel");
        assert_eq!(sched.domains, 2);
        assert_eq!(
            sched.per_domain.iter().map(|d| d.jobs).sum::<u64>(),
            stats.completed
        );
    }
}
