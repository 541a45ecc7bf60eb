//! The CORUSCANT execution runtime: a request-serving engine over the
//! functional PIM stack.
//!
//! The paper's high-throughput dispatch mode (§V-C) observes that a PIM
//! command occupies only its target bank for the internal operation
//! latency, so a stream of `cpim` commands issued to *different* banks in
//! a circular fashion overlaps those latencies — the controller issues
//! one command per bus cycle while every bank computes in parallel. This
//! crate builds the serving layer around that idea:
//!
//! * **Jobs** — a [`PimProgram`] plus a [`Placement`], submitted through
//!   a bounded `JobQueue` that applies backpressure to open-loop
//!   clients.
//! * **Scheduling** — placement resolves each job to a PIM unit that
//!   travels beside its (never rewritten) program; the `BankScheduler`
//!   keeps per-bank FIFO queues and issues in circular-bank order so
//!   consecutive issues hit different banks (§V-C). Only the executor
//!   turns the unit into addresses.
//! * **Execution** — worker threads (*shards*) each own a
//!   [`coruscant_core::dispatch::PimMachine`]; banks are
//!   partitioned across shards (`bank % shards`), so same-bank jobs stay
//!   ordered while different banks also run concurrently on the host.
//! * **Compilation** — submitted programs are rewritten by the
//!   `coruscant-compiler` pass pipeline on enqueue (TR fusion, dead-step
//!   elimination, shift-minimizing scheduling), controlled by
//!   [`RuntimeOptions::compile`]; the differential verifier can be
//!   enabled there to prove every optimized job output-equivalent.
//! * **Accounting** — workers report each instruction's measured device
//!   cost, and one [`MemoryController`](coruscant_mem::MemoryController)
//!   replays them in issue order, so the modeled completion times are
//!   exactly what sequential controller accounting produces: different
//!   banks overlap, same-bank jobs serialize. The replay runs live, as
//!   soon as every earlier issue has completed, so finished jobs' records
//!   can be taken before `finish` ([`Runtime::take_outcomes`]).
//! * **Observability** — serializable [`RuntimeStats`] with per-bank
//!   occupancy, queue-depth and wait-time histograms, plus an optional
//!   JSONL event trace.
//! * **Fault tolerance** — with a [`FaultPlan`](coruscant_mem::FaultPlan) and/or a
//!   [`ProtectionPolicy`] configured, every worker machine runs under
//!   seeded per-bank fault injection, jobs are verified by
//!   re-execute-and-compare or NMR voting, detected faults feed the
//!   per-bank `HealthTracker` state machine (Healthy → Suspect →
//!   Quarantined), suspect banks get position-code scrub passes,
//!   quarantined banks are drained and avoided, and unverified jobs are
//!   re-dispatched to healthy banks. The counters surface in
//!   [`stats::FaultStats`].

// `deny`, not `forbid`: the one sanctioned exception is [`cputime`]'s
// single `clock_gettime` FFI call (thread CPU time has no safe std
// surface), which opts itself back in with a scoped `allow`.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod cache;
mod chaos;
mod classic;
mod cputime;
mod deps;
mod events;
mod exec;
mod health;
mod job;
mod notify;
mod options;
mod parallel;
mod queue;
mod report;
mod sched;
mod session;
mod stats;
mod supervise;
pub mod sync;

pub use cache::{CacheOptions, CacheStats};
pub use chaos::{install_quiet_hook, ChaosAction, ChaosPlan, CrossingPoint};
pub use coruscant_compiler::CompileOptions;
pub use health::{HealthPolicy, ProtectionPolicy};
pub use job::{JobOutcome, Placement};
pub use notify::JobNotice;
pub use options::{BatchOptions, RuntimeError, RuntimeOptions, SchedMode};
pub use queue::PushError;
pub use report::RuntimeReport;
pub use sched::{BatchGrouping, DispatchMode, IssuePolicy};
pub use session::{ChainJob, ProgramSource, ResidentPin};
pub use stats::{
    BankOccupancy, BatchStats, DomainStats, FaultStats, Histogram, PipelineStats, RuntimeStats,
    SchedStats,
};
pub use supervise::{SuperviseOptions, SupervisionStats, WatchdogOptions};

use cache::{CachedCompile, ProgramCache};
use classic::{ClassicCtx, ClassicSched};
use coruscant_compiler::{CompileError, Compiler};
use coruscant_core::nmr::NmrVoter;
use coruscant_core::program::PimProgram;
use coruscant_mem::MemoryConfig;
use deps::{GatedJob, GatedSource};
use events::{Event, EventTrace};
use exec::{worker_loop, WorkerCtx};
use job::PimJob;
use parallel::ParEngine;
use queue::JobQueue;
use report::{Replay, Retired, SchedulerOutput};
use session::{AckMsg, CancelSet, Canceller, Gate, Submission, WorkMsg};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;
use supervise::PoisonRegistry;
use supervise::Supervisor;

/// The request-serving engine. Create with [`Runtime::new`], feed it with
/// [`Runtime::submit`], and call [`Runtime::finish`] to drain, join the
/// workers, and collect the report.
pub struct Runtime {
    config: MemoryConfig,
    queue: Arc<JobQueue<Submission>>,
    next_id: Arc<AtomicU64>,
    next_res: AtomicU64,
    // Classic-mode engine state (`None` under `SchedMode::Parallel`).
    scheduler: Option<JoinHandle<(SchedulerOutput, Replay)>>,
    supervisor: Option<Arc<Supervisor<WorkMsg>>>,
    /// Per-shard worker busy CPU micros (classic mode; empty otherwise).
    worker_busy: Arc<Vec<AtomicU64>>,
    // Parallel-mode engine state (`None` under `SchedMode::Classic`).
    par: Option<ParEngine>,
    retired: Retired,
    trace: Option<Arc<EventTrace>>,
    shards: usize,
    protection: ProtectionPolicy,
    supervise: SuperviseOptions,
    poison: Option<Arc<PoisonRegistry>>,
    compiler: Compiler,
    cache: Option<ProgramCache>,
    cancels: CancelSet,
    gate: Arc<Gate>,
    optimized_jobs: AtomicU64,
    instructions_eliminated: AtomicU64,
    est_device_cycles_saved: AtomicU64,
}

/// What the submit path makes of a program: the shared canonical-frame
/// artifact and what it learned on the way, everything a [`PimJob`]
/// carries besides its identity.
struct Compiled {
    program: Arc<PimProgram>,
    key: u64,
    readouts: usize,
    cache_hit: bool,
}

impl Compiled {
    fn into_job(self, id: u64, placement: Placement, deadline: Option<Instant>) -> PimJob {
        PimJob {
            id,
            program: self.program,
            placement,
            deadline,
            key: Some(self.key),
            readouts: self.readouts,
        }
    }
}

impl Runtime {
    /// Starts the runtime: spawns the scheduler thread and one worker per
    /// shard.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Trace`] if the trace file cannot be
    /// created, or [`RuntimeError::Config`] for an invalid `config`, an NMR
    /// degree the configured TRD cannot vote on or inconsistent health thresholds.
    pub fn new(config: MemoryConfig, options: RuntimeOptions) -> Result<Runtime, RuntimeError> {
        let valid = config.validate();
        valid.map_err(|e| RuntimeError::Config(e.to_string()))?;
        if let ProtectionPolicy::Nmr { n } = options.protection {
            if !NmrVoter::new(&config).supported_n().contains(&n) {
                let trd = config.trd;
                let unsupported = format!("NMR degree {n} unsupported at TRD {trd}");
                return Err(RuntimeError::Config(unsupported));
            }
        }
        if options.fault_aware() {
            options.health.check().map_err(RuntimeError::Config)?;
        }
        if options.sched == SchedMode::Parallel {
            parallel::check_options(&options)?;
        }
        if options.active_chaos().is_some() {
            chaos::install_quiet_hook();
        }
        let trace = (options.trace_path.as_ref())
            .map(|path| EventTrace::create(path).map(Arc::new))
            .transpose()
            .map_err(RuntimeError::Trace)?;
        let mut runtime = Runtime {
            shards: options.shards.clamp(1, config.banks),
            compiler: Compiler::new(config.clone(), &options.compile),
            config,
            queue: Arc::new(JobQueue::new(options.queue_capacity)),
            next_id: Arc::new(AtomicU64::new(0)),
            next_res: AtomicU64::new(0),
            scheduler: None,
            supervisor: None,
            worker_busy: Arc::new(Vec::new()),
            par: None,
            retired: Retired::default(),
            trace,
            protection: options.protection,
            supervise: options.supervise,
            poison: None,
            cache: options
                .cache
                .enabled
                .then(|| ProgramCache::new(&options.cache)),
            cancels: Arc::new(Mutex::new(HashSet::new())),
            gate: Arc::new(Gate::new(options.start_paused)),
            optimized_jobs: AtomicU64::new(0),
            instructions_eliminated: AtomicU64::new(0),
            est_device_cycles_saved: AtomicU64::new(0),
        };
        match options.sched {
            SchedMode::Classic => runtime.start_classic(options),
            SchedMode::Parallel => runtime.start_parallel(&options),
        }
        Ok(runtime)
    }

    /// Starts the classic engine: one supervised worker per shard and
    /// the scheduler thread feeding them.
    fn start_classic(&mut self, options: RuntimeOptions) {
        let shards = self.shards;
        let options = Arc::new(options);
        self.poison = options
            .watchdog
            .enabled
            .then(|| Arc::new(PoisonRegistry::new(options.watchdog.poison_strikes)));
        let (ack_tx, ack_rx) = mpsc::channel::<AckMsg>();
        self.worker_busy = Arc::new((0..shards).map(|_| AtomicU64::new(0)).collect());
        // Workers are spawned (and re-spawned after a panic) through this
        // factory; the supervisor owns it, so dropping the supervisor's
        // state at `finish` also closes the ack channel.
        let factory: supervise::Factory<WorkMsg> = {
            let cfg = self.config.clone();
            let options = Arc::clone(&options);
            let busy = Arc::clone(&self.worker_busy);
            let kick = Arc::clone(&self.queue);
            Box::new(move |shard, generation| {
                let (tx, rx) = mpsc::channel::<WorkMsg>();
                let ack = ack_tx.clone();
                let (cfg, options) = (cfg.clone(), Arc::clone(&options));
                let ctx = WorkerCtx {
                    shard,
                    generation,
                    busy: Arc::clone(&busy),
                    kick: Arc::clone(&kick),
                };
                let handle = std::thread::spawn(move || {
                    worker_loop(&cfg, &options, &rx, &ack, &ctx);
                });
                (tx, handle)
            })
        };
        let supervisor = Arc::new(Supervisor::new(shards, options.supervise, factory));
        let ctx = ClassicCtx {
            config: self.config.clone(),
            shards,
            queue: Arc::clone(&self.queue),
            supervisor: Arc::clone(&supervisor),
            ack_rx,
            trace: self.trace.clone(),
            canceller: Canceller::new(
                Arc::clone(&self.cancels),
                options.notify.clone(),
                self.trace.clone(),
            ),
            next_id: Arc::clone(&self.next_id),
            poison: self.poison.clone(),
            retired: Arc::clone(&self.retired),
        };
        let gate = Arc::clone(&self.gate);
        self.supervisor = Some(supervisor);
        self.scheduler = Some(std::thread::spawn(move || {
            gate.wait_open();
            ClassicSched::new(ctx, options).run()
        }));
    }

    /// Brings a submission into the canonical frame, hashes it — the one
    /// structural hash it ever gets — and runs it through the on-enqueue
    /// compiler, consulting the compiled-program cache first: a hit
    /// shares the cached artifact and skips the whole pass pipeline, a
    /// miss moves the submitted program into the new entry. The
    /// optimization counters accumulate either way, so the reported
    /// savings are identical with and without the cache. A program the
    /// compiler rejects comes back beside the error, unoptimized.
    fn compile(
        &self,
        mut program: PimProgram,
        placement: Placement,
    ) -> Result<Compiled, (CompileError, Compiled)> {
        cache::canonicalize(&mut program, placement);
        let key = cache::fingerprint(&program);
        let readouts = job::count_readouts(&program);
        let compiled = |program, cache_hit| Compiled {
            program,
            key,
            readouts,
            cache_hit,
        };
        let (artifact, cache_hit) = match self.cache.as_ref().and_then(|c| c.get(key, &program)) {
            Some(hit) => (hit, true),
            None => match self.compiler.optimize(&program) {
                Ok((optimized, report)) => {
                    let artifact = CachedCompile {
                        program: Arc::new(optimized),
                        instructions_saved: report.instructions_saved(),
                        cycles_saved: report.cycles_saved(),
                    };
                    if let Some(cache) = &self.cache {
                        cache.insert(key, program, artifact.clone());
                    }
                    (artifact, false)
                }
                Err(e) => return Err((e, compiled(Arc::new(program), false))),
            },
        };
        self.credit_optimization(artifact.instructions_saved, artifact.cycles_saved);
        Ok(compiled(artifact.program, cache_hit))
    }

    fn credit_optimization(&self, instructions_saved: u64, cycles_saved: u64) {
        if instructions_saved > 0 || cycles_saved > 0 {
            self.optimized_jobs.fetch_add(1, Ordering::Relaxed);
            self.instructions_eliminated
                .fetch_add(instructions_saved, Ordering::Relaxed);
            self.est_device_cycles_saved
                .fetch_add(cycles_saved, Ordering::Relaxed);
        }
    }

    /// The memory configuration the runtime serves.
    pub fn config(&self) -> &MemoryConfig {
        &self.config
    }

    /// Current depth of the bounded submission queue — the live
    /// admission signal a serving frontend sheds load on (the queue
    /// depth *histograms* in [`RuntimeStats`] cover the same pressure
    /// retrospectively).
    pub fn queue_len(&self) -> usize {
        match &self.par {
            Some(par) => par.injectors.iter().map(|q| q.len()).sum(),
            None => self.queue.len(),
        }
    }

    /// Capacity of the bounded submission queue — under
    /// [`SchedMode::Parallel`] of every domain's injector together, the
    /// same sum [`Runtime::queue_len`] reports a depth against.
    pub fn queue_capacity(&self) -> usize {
        match &self.par {
            Some(par) => par.injectors.iter().map(|q| q.capacity()).sum(),
            None => self.queue.capacity(),
        }
    }

    /// Opens the scheduler gate of a runtime created with
    /// [`RuntimeOptions::start_paused`]. Idempotent; a no-op for
    /// runtimes that started running.
    pub fn resume(&self) {
        self.gate.open();
    }

    /// Requests cancellation of a still-queued job. Best-effort: the
    /// scheduler drops the job (and sends [`JobNotice::Cancelled`], if a
    /// notice channel is configured) if it is still in the submission
    /// queue or a bank FIFO when the request is observed; a job already
    /// issued to a worker runs to completion and reports an outcome as
    /// usual. Cancelled jobs produce no [`JobOutcome`] and count in
    /// [`RuntimeStats::cancelled`]. Cancelling a job that is already gone
    /// does nothing.
    pub fn cancel(&self, job_id: u64) {
        sync::lock(&self.cancels).insert(job_id);
    }

    /// Takes the records of every job that retired since the last call,
    /// in issue order. A job retires once its final attempt and every
    /// dispatch issued before it have completed, so a record is final
    /// and carries its modeled times; an errored, cancelled or abandoned
    /// job has none. Records taken here are left out of
    /// [`RuntimeReport::outcomes`] — together they are every outcome of
    /// the session, each once — and [`RuntimeStats`] counts them all the
    /// same. Returns nothing under [`SchedMode::Parallel`], whose
    /// accounting still runs at [`Runtime::finish`].
    pub fn take_outcomes(&self) -> Vec<JobOutcome> {
        std::mem::take(&mut *sync::lock(&self.retired))
    }

    /// Refuses a program whose key the poison registry has quarantined:
    /// the key the job carries is the one the watchdog strikes.
    fn check_poison(&self, key: u64) -> Result<(), u64> {
        match &self.poison {
            Some(poison) if poison.is_quarantined(key) => Err(key),
            _ => Ok(()),
        }
    }

    /// The queue a submission with `placement` enters: the classic
    /// scheduler's, or the owning domain's injector.
    fn inlet(&self, placement: Placement) -> &JobQueue<Submission> {
        match &self.par {
            Some(par) => &par.injectors[par.route(placement)],
            None => &self.queue,
        }
    }

    /// Traces a job's submission, and its compile-cache hit if it was one.
    fn trace_submit(&self, job: u64, cache_hit: bool) {
        if let Some(trace) = &self.trace {
            trace.record(&Event::Submit { job });
            if cache_hit {
                trace.record(&Event::CacheHit { job });
            }
        }
    }

    /// Refuses a submission surface the parallel engine does not
    /// support (`what`, because `why`).
    fn classic_only(&self, what: &str, why: &str) -> Result<(), RuntimeError> {
        match self.par {
            Some(_) => Err(RuntimeError::Config(format!(
                "SchedMode::Parallel does not support {what} ({why})"
            ))),
            None => Ok(()),
        }
    }

    /// Submits a job, blocking while the queue is full (backpressure).
    /// Returns the job id.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::QueueClosed`] after [`Runtime::finish`],
    /// or [`RuntimeError::Poisoned`] for a program the watchdog's poison
    /// registry has quarantined.
    pub fn submit(&self, program: PimProgram, placement: Placement) -> Result<u64, RuntimeError> {
        self.submit_due(program, placement, None)
    }

    /// Like [`Runtime::submit`], with an absolute queueing deadline: the
    /// EDF issue policy orders on it, and a job still queued past it is
    /// dropped as expired at issue time.
    ///
    /// # Errors
    ///
    /// As [`Runtime::submit`].
    pub fn submit_due(
        &self,
        program: PimProgram,
        placement: Placement,
        deadline: Option<Instant>,
    ) -> Result<u64, RuntimeError> {
        let compiled = self
            .compile(program, placement)
            .map_err(|(e, _)| RuntimeError::Compile(e))?;
        self.check_poison(compiled.key)
            .map_err(|fingerprint| RuntimeError::Poisoned { fingerprint })?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.trace_submit(id, compiled.cache_hit);
        let sub = Submission::Job(compiled.into_job(id, placement, deadline));
        self.inlet(placement)
            .push(sub)
            .map_err(|_| RuntimeError::QueueClosed)?;
        Ok(id)
    }

    /// Submits without blocking, with an optional absolute queueing
    /// deadline (see [`Runtime::submit_due`]). A refused program is
    /// dropped — clients that want to retry keep their own clone. A
    /// program the compiler rejects is submitted *unoptimized* (the error,
    /// if real, surfaces at execution).
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] when the queue is at capacity (shed load or
    /// retry), [`PushError::Closed`] after [`Runtime::finish`], or
    /// [`PushError::Poisoned`] for a quarantined program.
    pub fn try_submit_due(
        &self,
        program: PimProgram,
        placement: Placement,
        deadline: Option<Instant>,
    ) -> Result<u64, PushError> {
        let compiled = self
            .compile(program, placement)
            .unwrap_or_else(|(_, unoptimized)| unoptimized);
        if let Err(fingerprint) = self.check_poison(compiled.key) {
            return Err(PushError::Poisoned { fingerprint });
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let cache_hit = compiled.cache_hit;
        let sub = Submission::Job(compiled.into_job(id, placement, deadline));
        self.inlet(placement).try_push(sub)?;
        self.trace_submit(id, cache_hit);
        Ok(id)
    }

    /// Submits a dependency chain atomically: a group of jobs where each
    /// member can gate on earlier members (by chain index). A gated
    /// member is held out of the bank FIFOs until every predecessor's
    /// *final* attempt retires — composing with protection re-dispatch
    /// (the gate waits for the last attempt), cancellation (a cancelled
    /// predecessor cascades: dependents are dropped and report as
    /// cancelled), and batching (released jobs batch like any others).
    /// [`ProgramSource::Deferred`] members additionally receive their
    /// data dependencies' labeled outputs when they release.
    ///
    /// Chain members bypass the on-enqueue compiler: their programs may
    /// read rows produced by predecessors or resident pins, which
    /// per-program dead-code analysis cannot see. Pre-optimize with
    /// [`Compiler`] where that is safe.
    ///
    /// Returns the member job ids, in chain order. Blocks while the
    /// queue is full.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Config`] when a member references a chain index at
    /// or after its own position (dependencies must point backwards), or
    /// [`RuntimeError::QueueClosed`] after [`Runtime::finish`].
    pub fn submit_chain(&self, chain: Vec<ChainJob>) -> Result<Vec<u64>, RuntimeError> {
        self.classic_only("dependency chains", "cross-domain gates are not sharded")?;
        for (i, member) in chain.iter().enumerate() {
            let bad = |what: &str, idx: usize| {
                RuntimeError::Config(format!(
                    "chain member {i}: {what} index {idx} does not precede it"
                ))
            };
            for &d in &member.after {
                if d >= i {
                    return Err(bad("after", d));
                }
            }
            if let ProgramSource::Deferred { deps, .. } = &member.source {
                for &d in deps {
                    if d >= i {
                        return Err(bad("dep", d));
                    }
                }
            }
        }
        let base = self
            .next_id
            .fetch_add(chain.len() as u64, Ordering::Relaxed);
        let ids: Vec<u64> = (0..chain.len() as u64).map(|i| base + i).collect();
        let gated: Vec<GatedJob> = chain
            .into_iter()
            .enumerate()
            .map(|(i, member)| {
                let mut after: Vec<u64> = member.after.iter().map(|&d| base + d as u64).collect();
                let source = match member.source {
                    ProgramSource::Ready(program) => GatedSource::Ready(PimJob::verbatim(
                        base + i as u64,
                        program,
                        member.placement,
                    )),
                    ProgramSource::Deferred { deps, build } => {
                        let dep_ids: Vec<u64> = deps.iter().map(|&d| base + d as u64).collect();
                        after.extend(&dep_ids);
                        GatedSource::Deferred { dep_ids, build }
                    }
                };
                after.sort_unstable();
                after.dedup();
                GatedJob {
                    id: base + i as u64,
                    source,
                    placement: member.placement,
                    after,
                }
            })
            .collect();
        for &id in &ids {
            self.trace_submit(id, false);
        }
        self.queue
            .push(Submission::Chain(gated))
            .map_err(|_| RuntimeError::QueueClosed)?;
        Ok(ids)
    }

    /// Submits one job gated on previously returned job ids: it is held
    /// out of the bank FIFOs until every id in `after` has retired its
    /// final attempt. Unlike chain members the program goes through the
    /// on-enqueue compiler (it is standalone by construction — ordering
    /// gates carry no data).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Config`] when `after` references an id not yet
    /// returned by this runtime, [`RuntimeError::QueueClosed`] after
    /// [`Runtime::finish`], or [`RuntimeError::Compile`].
    pub fn submit_after(
        &self,
        program: PimProgram,
        placement: Placement,
        after: &[u64],
    ) -> Result<u64, RuntimeError> {
        self.classic_only("submit_after", "cross-domain gates are not sharded")?;
        let compiled = self
            .compile(program, placement)
            .map_err(|(e, _)| RuntimeError::Compile(e))?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        for &d in after {
            if d >= id {
                return Err(RuntimeError::Config(format!(
                    "submit_after: dependency {d} is not an existing job id"
                )));
            }
        }
        self.trace_submit(id, compiled.cache_hit);
        let mut after = after.to_vec();
        after.sort_unstable();
        after.dedup();
        self.queue
            .push(Submission::Chain(vec![GatedJob {
                id,
                source: GatedSource::Ready(compiled.into_job(id, placement, None)),
                placement,
                after,
            }]))
            .map_err(|_| RuntimeError::QueueClosed)?;
        Ok(id)
    }

    /// Pins weights resident: runs `program` once on the PIM unit with
    /// index `unit_idx` (modulo the unit count) and registers a residency
    /// there. Jobs submitted with [`Placement::Resident`] and the
    /// returned `res` id run on the hosting unit with their addresses
    /// bound tile-relative — DBC index and row preserved — so they can
    /// copy the pinned rows out of the tile's storage DBCs. If the
    /// hosting bank is quarantined, the scheduler re-runs the pin program
    /// on a healthy unit *before* re-placing any dependent job there
    /// (counted in [`PipelineStats::rematerializations`]).
    ///
    /// The pin program is submitted verbatim (no compiler pass): its
    /// loads look dead to per-program analysis, so pin programs should
    /// end with `Readout` steps echoing a sentinel row.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::QueueClosed`] after [`Runtime::finish`].
    pub fn pin_resident(
        &self,
        program: PimProgram,
        unit_idx: usize,
    ) -> Result<ResidentPin, RuntimeError> {
        self.classic_only(
            "resident pins",
            "residency is tracked by the single scheduler",
        )?;
        let res = self.next_res.fetch_add(1, Ordering::Relaxed);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.trace_submit(id, false);
        self.queue
            .push(Submission::Pin {
                res,
                unit_idx,
                job: PimJob::verbatim(id, program, Placement::Resident(res)),
            })
            .map_err(|_| RuntimeError::QueueClosed)?;
        Ok(ResidentPin { res, job: id })
    }

    /// Closes the queue, drains all pending work, joins the scheduler and
    /// workers, closes the timing accounting, and returns the report.
    ///
    /// Worker panics do **not** fail the session: the supervisor caught
    /// them live, their jobs were re-dispatched or abandoned, and the
    /// report is built from every completion the scheduler accounted for
    /// ([`SupervisionStats`] records what was lost along the way). A
    /// permanently stalled worker cannot wedge this call either — the
    /// drain is bounded by [`SuperviseOptions::drain_deadline_ms`].
    ///
    /// # Errors
    ///
    /// Returns the first job error in issue order, or
    /// [`RuntimeError::WorkerLost`] if the scheduler thread itself
    /// panicked.
    pub fn finish(mut self) -> Result<RuntimeReport, RuntimeError> {
        let drained = match self.par.take() {
            Some(par) => self.drain_parallel(par)?,
            None => self.drain_classic()?,
        };
        self.assemble_report(drained)
    }
}

/// Convenience: run a batch of [`Placement::Auto`] programs through a
/// fresh runtime and return the report.
///
/// # Errors
///
/// Propagates runtime and job errors.
pub fn run_batch(
    config: &MemoryConfig,
    programs: Vec<PimProgram>,
    options: RuntimeOptions,
) -> Result<RuntimeReport, RuntimeError> {
    let runtime = Runtime::new(config.clone(), options)?;
    for program in programs {
        runtime.submit(program, Placement::Auto)?;
    }
    runtime.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use coruscant_core::isa::{BlockSize, CpimInstr, CpimOpcode};
    use coruscant_core::program::Step;
    use coruscant_core::PimError;
    use coruscant_mem::{DbcLocation, RowAddress};

    fn single_add_program() -> PimProgram {
        let loc = DbcLocation::new(0, 0, 0, 0);
        let bs = BlockSize::new(8).unwrap();
        PimProgram {
            steps: vec![
                Step::Load {
                    addr: RowAddress::new(loc, 4),
                    values: vec![11; 8],
                    lane: 8,
                },
                Step::Load {
                    addr: RowAddress::new(loc, 5),
                    values: vec![31; 8],
                    lane: 8,
                },
                Step::Exec(
                    CpimInstr::new(
                        CpimOpcode::Add,
                        RowAddress::new(loc, 4),
                        2,
                        bs,
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
        }
    }

    #[test]
    fn single_job_round_trips() {
        let config = MemoryConfig::tiny();
        let report = run_batch(
            &config,
            vec![single_add_program()],
            RuntimeOptions::default(),
        )
        .unwrap();
        assert_eq!(report.outcomes.len(), 1);
        let out = &report.outcomes[0];
        assert_eq!(out.outputs[0].1, vec![42; 8]);
        assert!(out.completion > 0);
        assert_eq!(out.wait_cycles, 0, "first job never waits");
        assert_eq!(report.stats.jobs, 1);
        assert_eq!(report.stats.instructions, 1);
        assert!(report.stats.makespan_cycles >= out.completion);
        assert!(report.stats.jobs_per_us > 0.0);
    }

    #[test]
    fn job_ids_are_unique_and_outcomes_ordered() {
        let config = MemoryConfig::tiny();
        let rt = Runtime::new(config, RuntimeOptions::default()).unwrap();
        let ids: Vec<u64> = (0..6)
            .map(|_| rt.submit(single_add_program(), Placement::Auto).unwrap())
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
        let report = rt.finish().unwrap();
        let got: Vec<u64> = report.outcomes.iter().map(|o| o.job_id).collect();
        assert_eq!(got, ids);
    }

    #[test]
    fn submit_after_finish_is_rejected() {
        let config = MemoryConfig::tiny();
        let rt = Runtime::new(config, RuntimeOptions::default()).unwrap();
        let queue = Arc::clone(&rt.queue);
        rt.finish().unwrap();
        assert_eq!(
            queue.push(Submission::Job(PimJob::verbatim(
                0,
                PimProgram::default(),
                Placement::Auto
            ))),
            Err(PushError::Closed)
        );
    }

    #[test]
    fn errors_propagate_from_workers() {
        let config = MemoryConfig::tiny();
        // A storage (non-PIM) DBC: execution must fail with NotPim.
        let storage = DbcLocation::new(0, 0, 0, 2);
        let bad = PimProgram {
            steps: vec![Step::Exec(
                CpimInstr::new(
                    CpimOpcode::Or,
                    RowAddress::new(storage, 0),
                    2,
                    BlockSize::new(8).unwrap(),
                    None,
                )
                .unwrap(),
            )],
        };
        let rt = Runtime::new(config, RuntimeOptions::default()).unwrap();
        rt.submit(bad, Placement::Fixed(storage)).unwrap();
        match rt.finish() {
            Err(RuntimeError::Pim(PimError::NotPim)) => {}
            other => panic!("expected NotPim, got {other:?}"),
        }
    }

    /// Blocks until `job`'s final attempt was noticed.
    fn await_final(rx: &mpsc::Receiver<JobNotice>, job: u64) {
        loop {
            let notice = rx.recv().expect("the runtime holds a sender");
            if notice.job_id() == job && notice.is_final() {
                return;
            }
        }
    }

    #[test]
    fn a_consumed_cancel_disarms_and_repeating_it_does_nothing() {
        let (tx, rx) = mpsc::channel();
        let options = RuntimeOptions::default().paused().with_notify(tx);
        let rt = Runtime::new(MemoryConfig::tiny(), options).unwrap();
        let dropped = rt.submit(single_add_program(), Placement::Auto).unwrap();
        let kept = rt.submit(single_add_program(), Placement::Auto).unwrap();
        rt.cancel(dropped);
        assert!(!sync::lock(&rt.cancels).is_empty(), "armed");
        rt.resume();
        await_final(&rx, dropped);
        assert!(
            sync::lock(&rt.cancels).is_empty(),
            "dropping the job consumed the request"
        );
        // The job is gone: cancelling it again finds nothing to drop, and
        // the next scheduling pass forgets the request.
        rt.cancel(dropped);
        let later = rt.submit(single_add_program(), Placement::Auto).unwrap();
        await_final(&rx, later);
        assert!(sync::lock(&rt.cancels).is_empty(), "disarmed again");
        let report = rt.finish().unwrap();
        assert_eq!(report.stats.cancelled, 1);
        let ids: Vec<u64> = report.outcomes.iter().map(|o| o.job_id).collect();
        assert_eq!(ids, vec![kept, later]);
        let cancelled = rx
            .try_iter()
            .filter(|n| matches!(n, JobNotice::Cancelled { .. }))
            .count();
        assert_eq!(cancelled, 0, "the one Cancelled notice was awaited above");
    }

    #[test]
    fn a_cancel_that_finds_its_job_already_run_is_forgotten() {
        let (tx, rx) = mpsc::channel();
        let options = RuntimeOptions::default().with_notify(tx);
        let rt = Runtime::new(MemoryConfig::tiny(), options).unwrap();
        let ran = rt.submit(single_add_program(), Placement::Auto).unwrap();
        await_final(&rx, ran);
        rt.cancel(ran);
        // The scheduler forgets it on a pass after the job's ack; acks and
        // submissions wake it, and it never sleeps longer than 50 ms.
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while !sync::lock(&rt.cancels).is_empty() {
            assert!(Instant::now() < deadline, "the late request stayed armed");
            std::thread::yield_now();
        }
        let report = rt.finish().unwrap();
        assert_eq!(report.stats.cancelled, 0);
        assert_eq!(report.outcomes.len(), 1, "a job that ran reports as usual");
    }

    #[test]
    fn queue_capacity_is_what_queue_len_can_reach() {
        let options = RuntimeOptions {
            queue_capacity: 16,
            ..RuntimeOptions::default().with_shards(4).paused()
        };
        let classic = Runtime::new(MemoryConfig::tiny(), options.clone()).unwrap();
        assert_eq!(classic.queue_capacity(), 16);
        classic.finish().unwrap();
        // Four domains, four injectors of 16: a frontend shedding at a
        // fraction of the capacity must measure against all of them.
        let config = MemoryConfig {
            banks: 4,
            ..MemoryConfig::tiny()
        };
        let parallel = Runtime::new(config, options.with_sched_mode(SchedMode::Parallel)).unwrap();
        assert_eq!(parallel.queue_capacity(), 64);
        for _ in 0..64 {
            parallel
                .try_submit_due(single_add_program(), Placement::Auto, None)
                .expect("round-robin routing fills every injector");
        }
        assert_eq!(parallel.queue_len(), parallel.queue_capacity());
        let refused = parallel.try_submit_due(single_add_program(), Placement::Auto, None);
        assert!(matches!(refused, Err(PushError::Full)), "{refused:?}");
        assert_eq!(parallel.finish().unwrap().stats.jobs, 64);
    }

    #[test]
    fn backpressure_bounds_queue_depth() {
        let config = MemoryConfig::tiny();
        let options = RuntimeOptions {
            queue_capacity: 2,
            ..RuntimeOptions::default()
        };
        let rt = Runtime::new(config, options).unwrap();
        for _ in 0..16 {
            rt.submit(single_add_program(), Placement::Auto).unwrap();
        }
        let report = rt.finish().unwrap();
        assert_eq!(report.stats.jobs, 16);
    }
}
