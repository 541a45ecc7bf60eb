//! Job protection policies and the bank health state machine.
//!
//! Detection in a PIM memory cannot rely on ECC (it is not homomorphic
//! under transverse reads, paper §III-F), so the runtime detects silent
//! data corruption *behaviorally*: re-execute-and-compare or N-modular
//! replication per job ([`ProtectionPolicy`]). Detected faults feed a
//! per-bank leaky-bucket score (`HealthTracker`) that walks each bank
//! through `Healthy → Suspect → Quarantined`:
//!
//! * **Healthy** — faults decay one-for-one with clean jobs.
//! * **Suspect** — the score crossed [`HealthPolicy::suspect_after`]; the
//!   scheduler dispatches a position-code scrub pass over the bank and
//!   the bank recovers to Healthy once the score decays to zero.
//! * **Quarantined** — the score crossed
//!   [`HealthPolicy::quarantine_after`]; the state is sticky, queued
//!   non-[`Fixed`](crate::Placement::Fixed) jobs are re-routed to healthy
//!   banks, and automatic placement skips the bank for the rest of the
//!   session.

use serde::Serialize;

/// How each job is protected against silent data corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProtectionPolicy {
    /// No protection: run once and report whatever came out. Corrupt
    /// results are *not* detected.
    #[default]
    None,
    /// Re-execute-and-compare: run the program twice and compare the raw
    /// readout rows. On mismatch, retry with a fresh pair, up to
    /// `max_retries` extra pairs, before giving the job back to the
    /// scheduler unverified (which may re-dispatch it to another bank).
    Reexecute {
        /// Extra compare-pairs to run after the first mismatching one.
        max_retries: u32,
    },
    /// N-modular redundancy: run `n` replicas and majority-vote every
    /// readout row through the super-carry gate
    /// ([`NmrVoter`](coruscant_core::nmr::NmrVoter), paper §III-F).
    /// `n` must be odd, at most TRD, with `(TRD - n)` even.
    Nmr {
        /// Redundancy degree (3, 5, or 7).
        n: usize,
    },
}

impl ProtectionPolicy {
    /// Whether this policy performs any detection at all.
    pub fn is_active(&self) -> bool {
        !matches!(self, ProtectionPolicy::None)
    }
}

/// Thresholds governing the bank health state machine and the scheduler's
/// recovery actions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthPolicy {
    /// Leaky-bucket score at which a bank becomes `BankState::Suspect`.
    pub suspect_after: u32,
    /// Score at which a bank is quarantined (sticky).
    pub quarantine_after: u32,
    /// Dispatch a position-code scrub pass when a bank turns suspect.
    pub scrub_on_suspect: bool,
    /// Jobs the scheduler keeps in flight per bank before acks gate
    /// further issue (bounds how much work a failing bank can poison
    /// before its score catches up).
    pub max_inflight_per_bank: usize,
    /// Times an unverified job may be re-dispatched to a different bank.
    pub max_redispatch: u32,
}

impl Default for HealthPolicy {
    fn default() -> HealthPolicy {
        HealthPolicy {
            suspect_after: 2,
            quarantine_after: 5,
            scrub_on_suspect: true,
            max_inflight_per_bank: 2,
            max_redispatch: 2,
        }
    }
}

impl HealthPolicy {
    /// Checks the thresholds are internally consistent.
    pub(crate) fn check(&self) -> Result<(), String> {
        if self.suspect_after == 0 {
            return Err("suspect_after must be at least 1".into());
        }
        if self.quarantine_after < self.suspect_after {
            return Err("quarantine_after must be >= suspect_after".into());
        }
        if self.max_inflight_per_bank == 0 {
            return Err("max_inflight_per_bank must be at least 1".into());
        }
        Ok(())
    }
}

/// A bank's position in the health state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub(crate) enum BankState {
    /// No outstanding fault pressure.
    #[default]
    Healthy,
    /// Faulting above the decay rate; scrubbed and watched.
    Suspect,
    /// Taken out of automatic placement for the rest of the session.
    Quarantined,
}

/// A state transition reported by [`HealthTracker::record`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Transition {
    /// No state change.
    None,
    /// The bank just became suspect (score attached).
    Suspect(u32),
    /// A suspect bank's score decayed to zero.
    Recovered,
    /// The bank just crossed the quarantine threshold (score attached).
    Quarantined(u32),
}

/// Per-bank leaky-bucket fault accounting.
///
/// Every job completion reports whether its protection detected a fault;
/// a faulty job adds one to the bank's score, a clean job subtracts one
/// (saturating at zero). Crossing the policy thresholds moves the bank
/// through the state machine. Quarantine is sticky: a bank that faults
/// persistently enough to cross it is presumed to have a hard defect
/// (stuck shift driver, marginal sense amp) rather than transient noise.
#[derive(Debug)]
pub(crate) struct HealthTracker {
    policy: HealthPolicy,
    scores: Vec<u32>,
    states: Vec<BankState>,
}

impl HealthTracker {
    /// A tracker over `banks` healthy banks.
    pub(crate) fn new(banks: usize, policy: HealthPolicy) -> HealthTracker {
        HealthTracker {
            policy,
            scores: vec![0; banks],
            states: vec![BankState::Healthy; banks],
        }
    }

    /// Records one job completion on `bank` and returns any transition.
    pub(crate) fn record(&mut self, bank: usize, faulty: bool) -> Transition {
        if faulty {
            self.scores[bank] = self.scores[bank].saturating_add(1);
        } else {
            self.scores[bank] = self.scores[bank].saturating_sub(1);
        }
        let score = self.scores[bank];
        match self.states[bank] {
            BankState::Quarantined => Transition::None,
            BankState::Suspect => {
                if score >= self.policy.quarantine_after {
                    self.states[bank] = BankState::Quarantined;
                    Transition::Quarantined(score)
                } else if score == 0 {
                    self.states[bank] = BankState::Healthy;
                    Transition::Recovered
                } else {
                    Transition::None
                }
            }
            BankState::Healthy => {
                if score >= self.policy.quarantine_after {
                    self.states[bank] = BankState::Quarantined;
                    Transition::Quarantined(score)
                } else if score >= self.policy.suspect_after {
                    self.states[bank] = BankState::Suspect;
                    Transition::Suspect(score)
                } else {
                    Transition::None
                }
            }
        }
    }

    /// Whether `bank` is quarantined.
    pub(crate) fn is_quarantined(&self, bank: usize) -> bool {
        self.states[bank] == BankState::Quarantined
    }

    /// Banks currently suspect.
    pub(crate) fn suspect_count(&self) -> u64 {
        self.states
            .iter()
            .filter(|&&s| s == BankState::Suspect)
            .count() as u64
    }

    /// Banks quarantined.
    pub(crate) fn quarantined_count(&self) -> u64 {
        self.states
            .iter()
            .filter(|&&s| s == BankState::Quarantined)
            .count() as u64
    }

    /// Fraction of banks lost to quarantine, `0.0..=1.0`.
    pub(crate) fn degraded_capacity(&self) -> f64 {
        if self.states.is_empty() {
            0.0
        } else {
            self.quarantined_count() as f64 / self.states.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protection_policies_report_activity() {
        assert!(!ProtectionPolicy::None.is_active());
        assert!(ProtectionPolicy::Reexecute { max_retries: 0 }.is_active());
        assert!(ProtectionPolicy::Nmr { n: 3 }.is_active());
    }

    #[test]
    fn default_policy_is_consistent() {
        HealthPolicy::default().check().unwrap();
        assert!(HealthPolicy {
            suspect_after: 0,
            ..HealthPolicy::default()
        }
        .check()
        .is_err());
        assert!(HealthPolicy {
            suspect_after: 4,
            quarantine_after: 2,
            ..HealthPolicy::default()
        }
        .check()
        .is_err());
        assert!(HealthPolicy {
            max_inflight_per_bank: 0,
            ..HealthPolicy::default()
        }
        .check()
        .is_err());
    }

    #[test]
    fn healthy_to_suspect_to_quarantine() {
        let mut t = HealthTracker::new(2, HealthPolicy::default());
        assert_eq!(t.record(0, true), Transition::None); // score 1
        assert_eq!(t.record(0, true), Transition::Suspect(2));
        assert_eq!(t.states[0], BankState::Suspect);
        assert_eq!(t.record(0, true), Transition::None); // 3
        assert_eq!(t.record(0, true), Transition::None); // 4
        assert_eq!(t.record(0, true), Transition::Quarantined(5));
        assert!(t.is_quarantined(0));
        // Sticky: clean jobs do not rehabilitate a quarantined bank.
        for _ in 0..10 {
            assert_eq!(t.record(0, false), Transition::None);
        }
        assert!(t.is_quarantined(0));
        assert_eq!(t.quarantined_count(), 1);
        assert_eq!(t.states[1], BankState::Healthy);
        assert!((t.degraded_capacity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn suspect_bank_recovers_when_score_decays() {
        let mut t = HealthTracker::new(1, HealthPolicy::default());
        t.record(0, true);
        assert_eq!(t.record(0, true), Transition::Suspect(2));
        assert_eq!(t.record(0, false), Transition::None); // 1
        assert_eq!(t.record(0, false), Transition::Recovered); // 0
        assert_eq!(t.states[0], BankState::Healthy);
        // Clean traffic keeps the score pinned at zero.
        assert_eq!(t.record(0, false), Transition::None);
        assert_eq!(t.suspect_count(), 0);
    }

    #[test]
    fn interleaved_faults_keep_healthy_bank_healthy() {
        // Alternating faulty/clean traffic never accumulates score.
        let mut t = HealthTracker::new(1, HealthPolicy::default());
        for _ in 0..50 {
            assert_eq!(t.record(0, true), Transition::None);
            assert_eq!(t.record(0, false), Transition::None);
        }
        assert_eq!(t.states[0], BankState::Healthy);
    }
}
