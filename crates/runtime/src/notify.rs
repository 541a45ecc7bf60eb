//! Live per-job completion notices.
//!
//! A job's [`JobOutcome`](crate::JobOutcome) — reported at `finish` or
//! taken earlier with
//! [`Runtime::take_outcomes`](crate::Runtime::take_outcomes) — exists
//! only once every dispatch issued before it has completed: modeled
//! times are accounted in issue order. A serving frontend needs to learn
//! about completions *as banks retire jobs*, so it can resolve client
//! futures and stream results. Configuring
//! [`RuntimeOptions::notify`](crate::RuntimeOptions) gives it that feed:
//! workers send one [`JobNotice::Attempt`] per member job of every
//! dispatch they execute (outputs demuxed exactly as the outcome's are),
//! and the scheduler sends one [`JobNotice::Cancelled`] for every job it
//! drops from its queues after a
//! [`Runtime::cancel`](crate::Runtime::cancel).
//!
//! Attempt notices are *per dispatch attempt*: under an active
//! protection policy an unverified attempt may be superseded by a
//! re-dispatch with a higher `attempt` number, and only the final
//! attempt matches the job's outcome. A consumer that wants final
//! results should treat a notice as settled when `verified` is true,
//! when the policy is inactive, or when no further re-dispatch can
//! follow (see [`JobNotice::is_final`]); its outcome settles the rare
//! job none of whose notices reads final.

use coruscant_core::PimError;

/// A live notice about one job, sent on the
/// [`RuntimeOptions::notify`](crate::RuntimeOptions) channel.
#[derive(Debug, Clone)]
pub enum JobNotice {
    /// One dispatch attempt of the job finished executing on a worker.
    Attempt {
        /// The job's id (as returned by `submit`).
        job_id: u64,
        /// Dispatch attempt (0 = first placement): every restart of the
        /// job counts, verification re-dispatches and crash/hang
        /// re-placements alike.
        attempt: u32,
        /// The verification re-dispatches among those restarts — what
        /// `max_redispatch` bounds.
        redispatches: u32,
        /// Bank the attempt ran on.
        bank: usize,
        /// Jobs sharing the batched dispatch this attempt came from.
        batch: u32,
        /// The job's labeled readouts, in program order (demuxed from
        /// the batched output stream exactly as the final report is).
        outputs: Vec<(String, Vec<u64>)>,
        /// The dispatch's execution error, if it hit one.
        error: Option<PimError>,
        /// Whether the attempt's outputs were verified by the protection
        /// policy (always `false` when protection is off).
        verified: bool,
        /// Whether the runtime's protection policy is active — together
        /// with `verified` and `redispatches` this decides finality.
        protection_active: bool,
        /// The policy's re-dispatch bound (an attempt that has used it up
        /// is final even when unverified).
        max_redispatch: u32,
    },
    /// The job was cancelled while still queued: it was dropped before
    /// issue and will produce no outcome.
    Cancelled {
        /// The job's id.
        job_id: u64,
    },
    /// The job's queueing deadline had already passed when the
    /// scheduler went to issue it: it was dropped at issue time and
    /// will produce no outcome.
    Expired {
        /// The job's id.
        job_id: u64,
    },
    /// The supervision layer gave the job up: its attempts exhausted the
    /// crash/hang retry budget (or the drain deadline arrived first). It
    /// will produce no outcome.
    Abandoned {
        /// The job's id.
        job_id: u64,
        /// `true` when the final failure was a hung attempt, `false`
        /// when it was a worker crash.
        hung: bool,
    },
    /// Sentinel: the session fully drained; no further notice can
    /// follow. A consumer loop may exit without waiting for every sender
    /// clone to drop (a stalled, detached worker can hold one
    /// indefinitely).
    Drained,
    /// Several notices delivered as one channel send. The parallel
    /// scheduling engine coalesces every member notice of a batched
    /// dispatch into one `Batch` so the notify channel is crossed once
    /// per dispatch, not once per member. Consumers must flatten:
    /// treat each inner notice exactly as if it had arrived alone
    /// (inner batches never nest).
    Batch(Vec<JobNotice>),
}

impl JobNotice {
    /// The job this notice concerns ([`JobNotice::Drained`] concerns no
    /// job and reports `u64::MAX`).
    pub fn job_id(&self) -> u64 {
        match self {
            JobNotice::Attempt { job_id, .. }
            | JobNotice::Cancelled { job_id }
            | JobNotice::Expired { job_id }
            | JobNotice::Abandoned { job_id, .. } => *job_id,
            JobNotice::Drained => u64::MAX,
            // A batch concerns several jobs; report the first member's.
            JobNotice::Batch(inner) => inner.first().map_or(u64::MAX, JobNotice::job_id),
        }
    }

    /// Whether no later attempt of the same job can follow this notice:
    /// cancellations and abandonments are always final; an attempt is
    /// final when it verified, when no protection policy (and therefore
    /// no re-dispatch) is active, or when the re-dispatch budget is
    /// exhausted — by verification re-dispatches: a crash retry spends
    /// none of it.
    pub fn is_final(&self) -> bool {
        match self {
            JobNotice::Cancelled { .. }
            | JobNotice::Expired { .. }
            | JobNotice::Abandoned { .. }
            | JobNotice::Drained => true,
            JobNotice::Attempt {
                verified,
                protection_active,
                redispatches,
                max_redispatch,
                ..
            } => *verified || !protection_active || redispatches >= max_redispatch,
            // Finality is per inner notice; consumers flatten first.
            JobNotice::Batch(inner) => inner.iter().any(JobNotice::is_final),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::JobNotice;

    fn unverified(attempt: u32, redispatches: u32) -> JobNotice {
        JobNotice::Attempt {
            job_id: 7,
            attempt,
            redispatches,
            bank: 0,
            batch: 1,
            outputs: Vec::new(),
            error: None,
            verified: false,
            protection_active: true,
            max_redispatch: 2,
        }
    }

    #[test]
    fn a_crash_retry_spends_no_redispatch_budget() {
        // Attempt 2 = one crash retry + one re-dispatch: the scheduler
        // still has a re-dispatch to give, so the notice is not final.
        assert!(!unverified(2, 1).is_final());
        // The same attempt number made of two re-dispatches is.
        assert!(unverified(2, 2).is_final());
        assert!(
            unverified(5, 2).is_final(),
            "crash retries on top change nothing"
        );
        assert!(!unverified(0, 0).is_final());
    }
}
