//! Seeded software-fault injection: the chaos harness.
//!
//! [`ChaosPlan`] is to *software* faults what
//! [`FaultPlan`](coruscant_mem::fault::FaultPlan) is to device faults: a
//! seed plus per-crossing-point rates that fully determine where worker
//! panics, stalls, and delays land. Every draw is keyed only on the
//! crossing point, the job id, and the dispatch attempt — never on wall
//! clock, thread identity, or arrival order — so a campaign is exactly
//! replayable: the same `(plan, workload)` produces the same set of
//! injected faults at any shard count, and a job's fate is a pure
//! function of the seed and its id.
//!
//! Crossing points ([`CrossingPoint`]) name the places the runtime and
//! server consult the plan:
//!
//! * `WorkerStart` — a worker picked a dispatch up; it may panic before
//!   executing, stall (sleep `stall_ms`, long enough for the watchdog to
//!   declare the attempt hung), or delay briefly.
//! * `WorkerReport` — execution finished but the results were not yet
//!   reported; a panic here loses the attempt *after* the work was done,
//!   the nastiest spot for exactly-once accounting.
//! * `SchedulerAdmit` — the scheduler admitted a job; a small delay
//!   shifts issue timing without killing anything.
//! * `RouterNotice` — the server's completion router handled a notice; a
//!   small delay widens the wait/expiry race window.
//!
//! Injected panics carry the `ChaosPanic` marker payload and are
//! silenced by [`install_quiet_hook`] so soak campaigns don't spray
//! backtraces; real panics still print normally.

use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// A named place where the runtime consults the chaos plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CrossingPoint {
    /// A worker dequeued a dispatch, before executing it.
    WorkerStart,
    /// A worker finished executing, before reporting results.
    WorkerReport,
    /// The scheduler admitted a job from the submission queue.
    SchedulerAdmit,
    /// The server's completion router handled a notice.
    RouterNotice,
}

impl CrossingPoint {
    /// A per-point salt so the same `(job, attempt)` draws independently
    /// at each crossing point.
    fn salt(self) -> u64 {
        match self {
            CrossingPoint::WorkerStart => 0x5747_0001,
            CrossingPoint::WorkerReport => 0x5747_0002,
            CrossingPoint::SchedulerAdmit => 0x5747_0003,
            CrossingPoint::RouterNotice => 0x5747_0004,
        }
    }
}

/// What the plan injects at one crossing of one attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChaosAction {
    /// Nothing: proceed normally.
    None,
    /// Panic the current thread (workers only).
    Panic,
    /// Sleep for [`ChaosPlan::stall_ms`] — long enough to trip the
    /// watchdog — then proceed (the stale completion exercises the
    /// late-result paths).
    Stall,
    /// Sleep for [`ChaosPlan::delay_us`] — well under any watchdog
    /// budget — then proceed.
    Delay,
}

/// A seeded, replayable software-fault schedule.
///
/// Rates are per-mille (‰, 0..=1000) per crossing. At `WorkerStart` the
/// panic, stall, and delay ranges stack in that order; the report panic
/// applies at `WorkerReport`; the admit/router delays at their points.
/// All durations are integer milliseconds/microseconds so the plan
/// serializes with the same round-trip guarantees as `FaultPlan`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosPlan {
    /// Seed for the SplitMix64 draw stream.
    pub seed: u64,
    /// ‰ of started attempts that panic before executing.
    pub start_panic_permille: u16,
    /// ‰ of started attempts that stall for `stall_ms`.
    pub stall_permille: u16,
    /// ‰ of started attempts that are delayed by `delay_us`.
    pub delay_permille: u16,
    /// ‰ of executed attempts that panic before reporting.
    pub report_panic_permille: u16,
    /// ‰ of admitted jobs delayed `delay_us` inside the scheduler.
    pub admit_delay_permille: u16,
    /// ‰ of router notices delayed `delay_us` inside the server.
    pub router_delay_permille: u16,
    /// Stall duration in milliseconds. Configure it far above the
    /// watchdog budget so a stalled attempt is deterministically hung.
    pub stall_ms: u64,
    /// Delay duration in microseconds. Keep it far below the watchdog
    /// budget so a delayed attempt deterministically completes.
    pub delay_us: u64,
}

impl ChaosPlan {
    /// A quiet plan: nothing is ever injected.
    pub fn quiet(seed: u64) -> ChaosPlan {
        ChaosPlan {
            seed,
            start_panic_permille: 0,
            stall_permille: 0,
            delay_permille: 0,
            report_panic_permille: 0,
            admit_delay_permille: 0,
            router_delay_permille: 0,
            stall_ms: 0,
            delay_us: 0,
        }
    }

    /// A panic-heavy plan (‰ panics at start and report).
    pub fn panics(seed: u64, permille: u16) -> ChaosPlan {
        ChaosPlan {
            start_panic_permille: permille,
            report_panic_permille: permille / 2,
            ..ChaosPlan::quiet(seed)
        }
    }

    /// A stall plan: ‰ of attempts sleep `stall_ms` (pair with a
    /// watchdog whose budget is far below the stall).
    pub fn stalls(seed: u64, permille: u16, stall_ms: u64) -> ChaosPlan {
        ChaosPlan {
            stall_permille: permille,
            stall_ms,
            ..ChaosPlan::quiet(seed)
        }
    }

    /// A mixed plan: panics, stalls, and delays together.
    pub fn mixed(seed: u64, permille: u16, stall_ms: u64, delay_us: u64) -> ChaosPlan {
        ChaosPlan {
            start_panic_permille: permille,
            stall_permille: permille,
            delay_permille: permille,
            report_panic_permille: permille / 2,
            admit_delay_permille: permille,
            router_delay_permille: permille,
            stall_ms,
            delay_us,
            ..ChaosPlan::quiet(seed)
        }
    }

    /// One draw in `0..1000`, keyed only on `(point, job, attempt)`.
    fn draw(&self, point: CrossingPoint, job: u64, attempt: u32) -> u64 {
        // SplitMix64 finalizer over the keyed state: stateless, so draws
        // are independent of evaluation order and thread interleaving.
        let mut z = self
            .seed
            .wrapping_add(point.salt().wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(job.wrapping_mul(0xA24B_AED4_963E_E407))
            .wrapping_add((attempt as u64).wrapping_mul(0x9FB2_1C65_1E98_DF25));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % 1000
    }

    /// The action injected at `point` for attempt `attempt` of `job`.
    pub fn decide(&self, point: CrossingPoint, job: u64, attempt: u32) -> ChaosAction {
        let roll = self.draw(point, job, attempt);
        let pick = |bands: &[(u16, ChaosAction)]| {
            let mut edge = 0u64;
            for (permille, action) in bands {
                edge += u64::from(*permille);
                if roll < edge {
                    return *action;
                }
            }
            ChaosAction::None
        };
        match point {
            CrossingPoint::WorkerStart => pick(&[
                (self.start_panic_permille, ChaosAction::Panic),
                (self.stall_permille, ChaosAction::Stall),
                (self.delay_permille, ChaosAction::Delay),
            ]),
            CrossingPoint::WorkerReport => {
                pick(&[(self.report_panic_permille, ChaosAction::Panic)])
            }
            CrossingPoint::SchedulerAdmit => {
                pick(&[(self.admit_delay_permille, ChaosAction::Delay)])
            }
            CrossingPoint::RouterNotice => {
                pick(&[(self.router_delay_permille, ChaosAction::Delay)])
            }
        }
    }

    /// The [`CrossingPoint::SchedulerAdmit`] crossing of `job`, as both
    /// scheduling engines take it: sleeps `delay_us` if the draw says so.
    pub(crate) fn admit_delay(&self, job: u64) {
        if self.decide(CrossingPoint::SchedulerAdmit, job, 0) == ChaosAction::Delay {
            std::thread::sleep(std::time::Duration::from_micros(self.delay_us));
        }
    }

    /// Whether any rate is nonzero.
    pub fn is_active(&self) -> bool {
        self.start_panic_permille > 0
            || self.stall_permille > 0
            || self.delay_permille > 0
            || self.report_panic_permille > 0
            || self.admit_delay_permille > 0
            || self.router_delay_permille > 0
    }
}

/// The marker payload injected panics carry, so the quiet panic hook can
/// tell chaos apart from a real bug.
#[derive(Debug)]
pub(crate) struct ChaosPanic;

/// Panics the current thread with the [`ChaosPanic`] marker.
pub(crate) fn chaos_panic() -> ! {
    std::panic::panic_any(ChaosPanic)
}

/// Installs (once, process-wide) a panic hook that suppresses the
/// default backtrace spew for `ChaosPanic` payloads and chains to the
/// previous hook for everything else. Safe to call from every session.
pub fn install_quiet_hook() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<ChaosPanic>().is_none() {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_replayable_and_keyed_per_point() {
        let plan = ChaosPlan::mixed(42, 200, 50, 10);
        for job in 0..200u64 {
            for attempt in 0..3u32 {
                for point in [
                    CrossingPoint::WorkerStart,
                    CrossingPoint::WorkerReport,
                    CrossingPoint::SchedulerAdmit,
                    CrossingPoint::RouterNotice,
                ] {
                    assert_eq!(
                        plan.decide(point, job, attempt),
                        plan.decide(point, job, attempt)
                    );
                }
            }
        }
        // Different seeds disagree somewhere.
        let other = ChaosPlan { seed: 43, ..plan };
        assert!(
            (0..500u64).any(|j| plan.decide(CrossingPoint::WorkerStart, j, 0)
                != other.decide(CrossingPoint::WorkerStart, j, 0))
        );
    }

    #[test]
    fn rates_are_roughly_honored() {
        let plan = ChaosPlan::panics(7, 250);
        let panics = (0..4000u64)
            .filter(|&j| plan.decide(CrossingPoint::WorkerStart, j, 0) == ChaosAction::Panic)
            .count();
        // 25% ± a generous tolerance over 4000 draws.
        assert!((700..=1300).contains(&panics), "panics = {panics}");
        // Non-worker points never panic.
        assert!((0..4000u64)
            .all(|j| plan.decide(CrossingPoint::SchedulerAdmit, j, 0) != ChaosAction::Panic));
    }

    #[test]
    fn quiet_plan_injects_nothing() {
        let plan = ChaosPlan::quiet(99);
        assert!(!plan.is_active());
        for j in 0..100 {
            assert_eq!(
                plan.decide(CrossingPoint::WorkerStart, j, 0),
                ChaosAction::None
            );
        }
    }

    #[test]
    fn plan_round_trips_through_json() {
        let plan = ChaosPlan::mixed(0xC0FFEE, 125, 30_000, 200);
        let json = serde::json::to_string(&plan);
        let back: ChaosPlan = serde::json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn attempts_draw_independently() {
        // A job that panics at attempt 0 usually does not at attempt 1:
        // retried attempts get fresh draws.
        let plan = ChaosPlan::panics(3, 500);
        let differs = (0..200u64).any(|j| {
            plan.decide(CrossingPoint::WorkerStart, j, 0)
                != plan.decide(CrossingPoint::WorkerStart, j, 1)
        });
        assert!(differs);
    }
}
