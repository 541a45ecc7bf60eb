//! Runtime configuration and the crate's error type.

use crate::cache::{BatchCache, CacheOptions};
use crate::chaos::ChaosPlan;
use crate::health::{HealthPolicy, ProtectionPolicy};
use crate::notify::JobNotice;
use crate::sched::{BatchGrouping, DispatchMode, IssuePolicy};
use crate::supervise::{SuperviseOptions, WatchdogOptions};
use coruscant_compiler::{CompileError, CompileOptions};
use coruscant_core::PimError;
use coruscant_mem::FaultPlan;
use std::fmt;
use std::path::PathBuf;
use std::sync::mpsc;

#[cfg(doc)]
use crate::{Placement, Runtime};
#[cfg(doc)]
use coruscant_mem::MemoryController;

/// Errors surfaced by the runtime.
#[derive(Debug)]
pub enum RuntimeError {
    /// A job failed during execution (first failure in issue order).
    Pim(PimError),
    /// The on-enqueue compiler rejected a job (pass failure or
    /// differential-verification divergence).
    Compile(CompileError),
    /// The job queue was closed before the submission.
    QueueClosed,
    /// The runtime options are inconsistent (e.g. an NMR degree the
    /// configured TRD cannot vote on, or zero health thresholds).
    Config(String),
    /// A worker or scheduler thread disappeared (panicked) mid-run.
    WorkerLost,
    /// The program's fingerprint is quarantined by the poison registry:
    /// earlier submissions of the same (placement-normalized) program
    /// kept hanging their workers, so admission refuses it.
    Poisoned {
        /// The quarantined structural program fingerprint.
        fingerprint: u64,
    },
    /// The event-trace file could not be created.
    Trace(std::io::Error),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Pim(e) => write!(f, "job execution failed: {e}"),
            RuntimeError::Compile(e) => write!(f, "job compilation failed: {e}"),
            RuntimeError::QueueClosed => write!(f, "job queue closed"),
            RuntimeError::Config(msg) => write!(f, "invalid runtime configuration: {msg}"),
            RuntimeError::WorkerLost => write!(f, "worker thread lost"),
            RuntimeError::Poisoned { fingerprint } => write!(
                f,
                "program fingerprint {fingerprint:#018x} is quarantined (kept hanging workers)"
            ),
            RuntimeError::Trace(e) => write!(f, "event trace: {e}"),
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Pim(e) => Some(e),
            RuntimeError::Compile(e) => Some(e),
            RuntimeError::Trace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PimError> for RuntimeError {
    fn from(e: PimError) -> RuntimeError {
        RuntimeError::Pim(e)
    }
}

impl From<coruscant_mem::MemError> for RuntimeError {
    fn from(e: coruscant_mem::MemError) -> RuntimeError {
        RuntimeError::Pim(PimError::from(e))
    }
}

/// Same-bank batch-fusion configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchOptions {
    /// Master switch. Off by default: batch grouping depends on queue
    /// drain timing, so enabling it trades the unbatched path's cross-shard
    /// issue-order determinism for higher same-bank throughput (outputs
    /// stay exact under any grouping).
    pub enabled: bool,
    /// How members are gathered from a bank FIFO:
    /// [`BatchGrouping::Consecutive`] (default) only fuses the same-unit
    /// run at the head, [`BatchGrouping::SameUnit`] also gathers
    /// non-consecutive same-unit jobs past independent (other-DBC)
    /// entries.
    pub grouping: BatchGrouping,
    /// Batched-splice cache capacity (entries). Repeated same-shape
    /// batches skip the cross-boundary pass pipeline; keyed on the
    /// ordered member structural hashes. `0` disables the cache.
    pub splice_cache: usize,
}

impl Default for BatchOptions {
    fn default() -> BatchOptions {
        BatchOptions {
            enabled: false,
            grouping: BatchGrouping::Consecutive,
            splice_cache: 128,
        }
    }
}

impl BatchOptions {
    /// Most jobs one batched dispatch splices together.
    pub(crate) const MAX_JOBS: usize = 8;

    /// Options with batching on.
    pub fn enabled() -> BatchOptions {
        BatchOptions {
            enabled: true,
            ..BatchOptions::default()
        }
    }

    /// Options with batching on and non-consecutive same-unit grouping.
    pub fn enabled_grouped() -> BatchOptions {
        BatchOptions {
            enabled: true,
            grouping: BatchGrouping::SameUnit,
            ..BatchOptions::default()
        }
    }

    /// The effective per-dispatch job cap (1 when disabled).
    pub(crate) fn cap(&self) -> usize {
        if self.enabled {
            BatchOptions::MAX_JOBS
        } else {
            1
        }
    }

    /// The splice cache this configuration asks for, if any.
    pub(crate) fn splice_cache(&self) -> Option<BatchCache> {
        (self.enabled && self.splice_cache > 0).then(|| BatchCache::new(self.splice_cache))
    }
}

/// Which scheduling engine drives the session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedMode {
    /// One scheduler thread feeding worker shards. Every classic session
    /// runs the same loop; device-fault health tracking, protection
    /// re-dispatch, the watchdog and chaos are layers of it that do
    /// nothing unless configured. This is the determinism baseline: with
    /// batching off and no fault plan or protection policy, reports are
    /// bit-identical across runs and shard counts.
    #[default]
    Classic,
    /// Sharded scheduling with merged accounting: each of `shards` fused
    /// scheduler+executor domains owns the banks `bank % shards == d`
    /// (its own FIFOs, placement cursor, batch splicer, and injector
    /// queue), executes dispatches inline, and pushes completions into a
    /// per-domain ring that [`Runtime::finish`] merges by seq and feeds
    /// to the same replay the classic scheduler drives live (one
    /// [`MemoryController`], issue order) — so `RuntimeStats` and the
    /// event-trace `Complete` records are accounted exactly as on the
    /// classic path, but only at `finish`: until then a parallel session
    /// buffers every completion. Idle domains steal [`Placement::Auto`] submissions
    /// from sibling injectors. Produces the same *set* of per-job
    /// outcomes as classic (not the same seqs/banks); rejects dependency
    /// chains, resident pins, the watchdog, and chaos stall injection
    /// with [`RuntimeError::Config`].
    Parallel,
}

/// Runtime configuration.
#[derive(Debug, Clone)]
pub struct RuntimeOptions {
    /// Worker threads; banks are partitioned `bank % shards`. Clamped to
    /// `1..=banks`.
    pub shards: usize,
    /// Bounded job-queue capacity (backpressure threshold).
    pub queue_capacity: usize,
    /// Placement policy for [`Placement::Auto`] jobs.
    pub dispatch: DispatchMode,
    /// On-enqueue program optimization (pass pipeline and differential
    /// verification); [`CompileOptions::disabled`] submits programs
    /// verbatim.
    pub compile: CompileOptions,
    /// When set, a JSONL event trace is written here.
    pub trace_path: Option<PathBuf>,
    /// Per-job corruption detection (re-execute-and-compare or NMR).
    pub protection: ProtectionPolicy,
    /// Bank health thresholds and recovery actions. Only consulted when
    /// a fault plan or an active protection policy is configured
    /// (`RuntimeOptions::fault_aware`): the per-bank in-flight cap then
    /// gates issue on worker acks, so issue order follows completion
    /// timing and reports are no longer bit-identical across shard
    /// counts.
    pub health: HealthPolicy,
    /// When set, every worker machine materializes its DBCs with the
    /// plan's seeded per-bank fault injectors.
    pub faults: Option<FaultPlan>,
    /// Compiled-program cache: repeated submissions skip the pass
    /// pipeline (keyed by placement-normalized structural hash).
    pub cache: CacheOptions,
    /// Same-bank batch fusion: splice co-located queued jobs into one
    /// program and optimize across the boundary before dispatch.
    pub batch: BatchOptions,
    /// When set, the runtime sends live [`JobNotice`]s here: one
    /// [`JobNotice::Attempt`] per member job of every executed dispatch
    /// (as banks retire them, before the job's outcome exists), and one
    /// [`JobNotice::Cancelled`] per job dropped by [`Runtime::cancel`].
    pub notify: Option<mpsc::Sender<JobNotice>>,
    /// Start with the scheduler gated: submitted jobs accumulate in the
    /// bounded queue and nothing is placed or issued until
    /// [`Runtime::resume`] (or [`Runtime::finish`], which opens the gate
    /// before draining). Lets tests and staged deployments line up a
    /// backlog — and cancel parts of it — deterministically.
    pub start_paused: bool,
    /// Shard restart policy: backoff bounds, per-job crash-retry budget,
    /// and the hard drain deadline [`Runtime::finish`] honors.
    pub supervise: SuperviseOptions,
    /// Execution watchdog: per-attempt wall-clock budgets, hung-attempt
    /// classification, and the poison-job quarantine. While enabled,
    /// workers send `Started` heartbeats and the scheduler scans its
    /// in-flight attempts on a ≈1 ms timer; a budget that never expires
    /// moves no modeled number.
    pub watchdog: WatchdogOptions,
    /// Seeded software-fault injection (worker panics, stalls, delays at
    /// named crossing points). `None` (or a quiet plan) injects nothing
    /// and leaves reports bit-identical to a chaos-free session.
    pub chaos: Option<ChaosPlan>,
    /// Which scheduling engine runs the session (see [`SchedMode`]).
    /// Classic by default.
    pub sched: SchedMode,
    /// Within-bank issue order (see [`IssuePolicy`]). FIFO by default;
    /// [`IssuePolicy::Edf`] issues earliest-deadline-first with
    /// arrival-order tie-breaking, in every engine.
    pub issue_policy: IssuePolicy,
}

impl Default for RuntimeOptions {
    fn default() -> RuntimeOptions {
        RuntimeOptions {
            shards: 4,
            queue_capacity: 64,
            dispatch: DispatchMode::Circular,
            compile: CompileOptions::default(),
            trace_path: None,
            protection: ProtectionPolicy::None,
            health: HealthPolicy::default(),
            faults: None,
            cache: CacheOptions::default(),
            batch: BatchOptions::default(),
            notify: None,
            start_paused: false,
            supervise: SuperviseOptions::default(),
            watchdog: WatchdogOptions::default(),
            chaos: None,
            sched: SchedMode::Classic,
            issue_policy: IssuePolicy::default(),
        }
    }
}

impl RuntimeOptions {
    /// Options with a given shard count, defaults elsewhere.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> RuntimeOptions {
        self.shards = shards;
        self
    }

    /// Options with a given dispatch mode, defaults elsewhere.
    #[must_use]
    pub fn with_dispatch(mut self, dispatch: DispatchMode) -> RuntimeOptions {
        self.dispatch = dispatch;
        self
    }

    /// Options with a given within-bank issue policy, defaults
    /// elsewhere.
    #[must_use]
    pub fn with_issue_policy(mut self, issue_policy: IssuePolicy) -> RuntimeOptions {
        self.issue_policy = issue_policy;
        self
    }

    /// Options with given compile options, defaults elsewhere.
    #[must_use]
    pub fn with_compile(mut self, compile: CompileOptions) -> RuntimeOptions {
        self.compile = compile;
        self
    }

    /// Options with a given protection policy, defaults elsewhere.
    #[must_use]
    pub fn with_protection(mut self, protection: ProtectionPolicy) -> RuntimeOptions {
        self.protection = protection;
        self
    }

    /// Options with given health thresholds, defaults elsewhere.
    #[must_use]
    pub fn with_health(mut self, health: HealthPolicy) -> RuntimeOptions {
        self.health = health;
        self
    }

    /// Options with a fault-injection plan, defaults elsewhere.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> RuntimeOptions {
        self.faults = Some(faults);
        self
    }

    /// Options with given cache settings, defaults elsewhere.
    #[must_use]
    pub fn with_cache(mut self, cache: CacheOptions) -> RuntimeOptions {
        self.cache = cache;
        self
    }

    /// Options with given batch-fusion settings, defaults elsewhere.
    #[must_use]
    pub fn with_batch(mut self, batch: BatchOptions) -> RuntimeOptions {
        self.batch = batch;
        self
    }

    /// Options with a live-completion notice channel, defaults elsewhere.
    #[must_use]
    pub fn with_notify(mut self, notify: mpsc::Sender<JobNotice>) -> RuntimeOptions {
        self.notify = Some(notify);
        self
    }

    /// Options that start the scheduler gated (see
    /// [`RuntimeOptions::start_paused`]), defaults elsewhere.
    #[must_use]
    pub fn paused(mut self) -> RuntimeOptions {
        self.start_paused = true;
        self
    }

    /// Options with a given shard restart policy, defaults elsewhere.
    #[must_use]
    pub fn with_supervise(mut self, supervise: SuperviseOptions) -> RuntimeOptions {
        self.supervise = supervise;
        self
    }

    /// Options with a given watchdog policy, defaults elsewhere.
    #[must_use]
    pub fn with_watchdog(mut self, watchdog: WatchdogOptions) -> RuntimeOptions {
        self.watchdog = watchdog;
        self
    }

    /// Options with a seeded chaos plan, defaults elsewhere.
    #[must_use]
    pub fn with_chaos(mut self, chaos: ChaosPlan) -> RuntimeOptions {
        self.chaos = Some(chaos);
        self
    }

    /// Options with a given scheduling engine, defaults elsewhere.
    #[must_use]
    pub fn with_sched_mode(mut self, sched: SchedMode) -> RuntimeOptions {
        self.sched = sched;
        self
    }

    /// Whether these options configure device-fault handling (a fault
    /// plan or an active protection policy): bank health tracking and
    /// the per-bank in-flight cap act only then.
    pub(crate) fn fault_aware(&self) -> bool {
        self.faults.is_some() || self.protection.is_active()
    }

    /// The active chaos plan, if one is configured and nonzero.
    pub(crate) fn active_chaos(&self) -> Option<ChaosPlan> {
        self.chaos.filter(ChaosPlan::is_active)
    }
}
