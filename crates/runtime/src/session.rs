//! What flows between a session's threads — submissions, dispatches and
//! the acks that carry their completions — plus the pause gate and the
//! cancellation / expiry filter both scheduling engines consult.

use crate::deps::{Binder, GatedJob};
use crate::events::{Event, EventTrace};
use crate::exec::{Dispatch, ExecOutcome};
use crate::job::{PimJob, Placement};
use crate::notify::JobNotice;
use crate::sync::{self, IdSet};
use coruscant_core::program::PimProgram;
use coruscant_mem::{DbcLocation, ScrubOutcome};
use std::collections::HashSet;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Instant;

#[cfg(doc)]
use crate::{deps::GatedSource, job::JobOutcome, options::RuntimeOptions, Runtime};

/// One member job's share of a dispatched (possibly batched) program:
/// identity, how many readouts it owns in the program's output stream,
/// and which dispatch attempt this is for it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotMeta {
    pub job_id: u64,
    pub readouts: usize,
    /// Restarts of the job so far: verification re-dispatches plus
    /// crash/hang re-placements.
    pub attempt: u32,
    /// The verification re-dispatches among them — the count the
    /// re-dispatch budget bounds.
    pub redispatches: u32,
    /// Whether this is the member's final attempt: set by the engine
    /// when the attempt comes back and it does not re-dispatch.
    pub last: bool,
}

/// What the scheduler sends each worker.
pub(crate) enum WorkMsg {
    /// Execute one dispatch, issued under `seq`.
    Job { seq: u64, dispatch: Dispatch },
    /// Run a position-code scrub pass over one bank's materialized DBCs.
    Scrub { bank: usize },
}

/// One executed dispatch attempt, as the accounting replay
/// ([`crate::report::Replay`]) consumes it.
pub(crate) struct Completion {
    pub seq: u64,
    pub unit: DbcLocation,
    pub slots: Vec<SlotMeta>,
    pub out: ExecOutcome,
}

/// What a worker reports back to the scheduler.
pub(crate) enum AckMsg {
    /// Heartbeat: the worker dequeued dispatch `seq` and is about to
    /// execute it. Sent only when the watchdog is enabled; it stamps the
    /// attempt's wall-clock start for budget accounting.
    Started {
        seq: u64,
    },
    /// A dispatch finished executing: frees its in-flight record, feeds
    /// bank health and re-dispatch, resolves dependency gates and
    /// binders from the members' outputs, then is accounted by the replay.
    Job(Completion),
    Scrub {
        bank: usize,
        outcome: ScrubOutcome,
    },
    /// Terminal: the worker caught a panic and is exiting. `generation`
    /// guards against late reports from already-replaced incarnations;
    /// `panicked_seq` is the dispatch that was executing when the panic
    /// hit (its attempt died; queued dispatches are re-placed from the
    /// scheduler's own in-flight records, never from the worker).
    ShardDown {
        shard: usize,
        generation: u64,
        panicked_seq: Option<u64>,
    },
}

/// What flows through the submission queue: independent jobs, atomic
/// dependency chains, and resident weight pins.
pub(crate) enum Submission {
    /// An independent job (the classic `submit` path).
    Job(PimJob),
    /// An atomically admitted group of dependency-gated jobs.
    Chain(Vec<GatedJob>),
    /// A resident weight pin: `job` loads the weights on the unit with
    /// index `unit_idx` and registers residency `res` there.
    Pin {
        res: u64,
        unit_idx: usize,
        job: PimJob,
    },
}

/// Where a chain member's program comes from (public mirror of the
/// scheduler-side `GatedSource`).
pub enum ProgramSource {
    /// The program is known at submission and is submitted verbatim —
    /// chain members bypass the on-enqueue compiler because their
    /// programs may read rows produced by predecessors or resident
    /// pins, which per-program analysis cannot see.
    Ready(PimProgram),
    /// The program is built by `build` once every job at the listed
    /// chain indices has retired, from their labeled outputs (binder
    /// argument order = `deps` order).
    Deferred {
        /// Chain-member indices this binder consumes (must be earlier
        /// members of the same chain).
        deps: Vec<usize>,
        /// The program builder.
        build: Binder,
    },
}

/// One member of a dependency chain handed to
/// [`Runtime::submit_chain`].
pub struct ChainJob {
    /// The member's program (ready or deferred).
    pub source: ProgramSource,
    /// Requested placement. [`Placement::Auto`] members consume the
    /// circular placement cursor when placed; pipelines that need
    /// determinism across shard counts pin members with
    /// [`Placement::Unit`] or [`Placement::Resident`].
    pub placement: Placement,
    /// Chain-member indices that must retire before this member places
    /// (ordering-only gates; data dependencies in a deferred source are
    /// added automatically).
    pub after: Vec<usize>,
}

/// The receipt of a [`Runtime::pin_resident`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResidentPin {
    /// Residency id — used as [`Placement::Resident`] by jobs that read
    /// the pinned rows.
    pub res: u64,
    /// The pin job's id (it reports a normal [`JobOutcome`] whose
    /// readouts echo the pinned rows).
    pub job: u64,
}
/// The pause gate the scheduler waits on before it starts draining the
/// queue (see [`RuntimeOptions::start_paused`]).
#[derive(Debug)]
pub(crate) struct Gate {
    paused: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    pub(crate) fn new(paused: bool) -> Gate {
        Gate {
            paused: Mutex::new(paused),
            cv: Condvar::new(),
        }
    }

    /// Blocks until the gate is open.
    pub(crate) fn wait_open(&self) {
        let mut paused = sync::lock(&self.paused);
        while *paused {
            paused = sync::wait(&self.cv, paused);
        }
    }

    /// Opens the gate (idempotent).
    pub(crate) fn open(&self) {
        *sync::lock(&self.paused) = false;
        self.cv.notify_all();
    }
}

/// The set of job ids whose cancellation was requested and not yet
/// acted on. Cancellation is best-effort: the scheduler consults the set
/// at placement and at issue time and drops matches (sending
/// [`JobNotice::Cancelled`] and counting them); a job already dispatched
/// to a worker always runs to completion. Either way the id leaves the
/// set, so an empty set again means "nothing to check".
pub(crate) type CancelSet = Arc<Mutex<HashSet<u64>>>;

/// Shared bookkeeping for cancellation and expiry checks in both
/// scheduling engines.
pub(crate) struct Canceller {
    set: CancelSet,
    /// Jobs this engine retired: a request for one of them came too late.
    retired: IdSet,
    pub notify: Option<mpsc::Sender<JobNotice>>,
    trace: Option<Arc<EventTrace>>,
    pub cancelled: u64,
    /// Jobs dropped at issue time because their deadline had passed.
    pub expired: u64,
}

impl Canceller {
    pub(crate) fn new(
        set: CancelSet,
        notify: Option<mpsc::Sender<JobNotice>>,
        trace: Option<Arc<EventTrace>>,
    ) -> Canceller {
        Canceller {
            set,
            retired: IdSet::default(),
            notify,
            cancelled: 0,
            expired: 0,
            trace,
        }
    }

    /// Whether any requested cancellation is still outstanding — a cheap
    /// guard that keeps the per-job check off the hot path in the common
    /// (no-cancellation) case. Requests for retired jobs are forgotten
    /// here, so one that came too late cannot keep the guard up.
    pub(crate) fn armed(&self) -> bool {
        let mut set = sync::lock(&self.set);
        if !set.is_empty() {
            set.retain(|id| !self.retired.contains(*id));
        }
        !set.is_empty()
    }

    /// Records that `job_id` retired: its final attempt came back, or it
    /// was dropped or abandoned.
    pub(crate) fn retire(&mut self, job_id: u64) {
        self.retired.insert(job_id);
    }

    /// If `job_id` was cancelled, consume the request, record the drop
    /// (notice + trace + counter) and return `true`.
    pub(crate) fn drop_if_cancelled(&mut self, job_id: u64) -> bool {
        if !sync::lock(&self.set).remove(&job_id) {
            return false;
        }
        self.cancelled += 1;
        self.drop_cascaded(job_id);
        true
    }

    /// Drops members of an issued batch that were cancelled or whose
    /// queueing deadline has passed, keeping order, and returns the ids
    /// it dropped (so the dependency tracker can cascade their
    /// dependents). Checked at issue time so neither can ever occupy a
    /// bank, even between server sweeper wakeups.
    pub(crate) fn filter_issue(&mut self, jobs: &mut Vec<PimJob>) -> Vec<u64> {
        let armed = self.armed();
        if !armed && jobs.iter().all(|j| j.deadline.is_none()) {
            return Vec::new();
        }
        let now = Instant::now();
        let mut dropped = Vec::new();
        jobs.retain(|j| {
            let gone = (armed && self.drop_if_cancelled(j.id)) || self.drop_if_expired(j, now);
            if gone {
                dropped.push(j.id);
            }
            !gone
        });
        dropped
    }

    /// If `job`'s deadline has passed, record the drop (notice + trace +
    /// counter) and return `true`.
    fn drop_if_expired(&mut self, job: &PimJob, now: Instant) -> bool {
        if job.deadline.is_none_or(|d| now < d) {
            return false;
        }
        self.expired += 1;
        if let Some(trace) = &self.trace {
            trace.record(&Event::Expired { job: job.id });
        }
        if let Some(tx) = &self.notify {
            let _ = tx.send(JobNotice::Expired { job_id: job.id });
        }
        true
    }

    /// Reports `job_id` as cancelled (trace + notice) without counting
    /// it: a dependency-gated job whose predecessor failed or was
    /// cancelled is counted in the pipeline stats, not `cancelled`.
    pub(crate) fn drop_cascaded(&mut self, job_id: u64) {
        if let Some(trace) = &self.trace {
            trace.record(&Event::Cancelled { job: job_id });
        }
        if let Some(tx) = &self.notify {
            let _ = tx.send(JobNotice::Cancelled { job_id });
        }
    }
}
