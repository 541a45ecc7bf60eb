//! The CORUSCANT serving frontend: an async request API over the
//! session-shaped execution runtime.
//!
//! The runtime (`coruscant-runtime`) is session-shaped: submissions go
//! into a bounded queue and outcomes are read off the session. That
//! fits batch campaigns, not serving. This crate wraps a runtime in a
//! [`Server`] that keeps the session live, gives clients a per-job
//! completion surface, and holds what is in flight, not what it served:
//!
//! * **Submission** — [`Client::submit`] returns a [`JobHandle`] that
//!   resolves when the job's bank retires it (the runtime's live
//!   [`JobNotice`] feed), not at session end. Handles are
//!   [`std::future::Future`]s *and* blocking-waitable — no executor
//!   required. [`Client::submit_stream`] submits a whole workload and
//!   yields per-job results in submission order as they arrive.
//! * **Admission control** — optional per-[`Priority`] queue-depth load
//!   shedding driven by the runtime's live queue-depth signal, with
//!   typed [`Rejected`] errors. Disabled (the default) the server blocks
//!   on the bounded queue instead — backpressure — and the whole
//!   pipeline stays bit-deterministic versus direct runtime use.
//! * **Per-client QoS** — an optional weighted-fair (virtual-time WFQ)
//!   stage after admission: submissions naming a client via
//!   [`SubmitOptions::for_client`] draw on that client's weight and
//!   optional rate quota; a client past its quota — or past its fair
//!   share while the queue is congested — is shed with
//!   [`Rejected::Throttled`]. Anonymous submissions bypass the stage.
//!   Per-client accounting surfaces as [`coruscant_qos::QosStats`] in
//!   the final [`ServerStats`].
//! * **Deadlines** — a per-job *queueing* deadline: if it expires before
//!   the scheduler issues the job, the job is cancelled (never touches a
//!   bank) and the handle resolves [`ServeError::Expired`]; a job whose
//!   execution already began completes normally.
//! * **Harvest** — the router thread keeps taking the runtime's retired
//!   outcomes ([`Runtime::take_outcomes`]), resolves any handle whose
//!   notices were not final (an outcome is, by construction), and drops
//!   them.
//! * **Drain** — [`Server::shutdown`] stops accepting, flushes all
//!   in-flight work through [`Runtime::finish`], resolves every
//!   outstanding handle (from the final report if nothing resolved it
//!   live), and returns [`ServerStats`] whose accounting always
//!   balances: `submitted == accepted + rejected` and every accepted job
//!   resolves exactly once.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod admission;
pub mod handle;
mod stats;

pub use admission::{AdmissionOptions, Priority, Rejected};
pub use handle::{Completion, JobDone, JobHandle, ResultStream, ServeError};
pub use stats::ServerStats;

use coruscant_core::program::PimProgram;
use coruscant_mem::MemoryConfig;
use coruscant_runtime::{
    sync, sync::IdSet, ChainJob, ChaosAction, ChaosPlan, CrossingPoint, JobNotice, JobOutcome,
    Placement, PushError, ResidentPin, Runtime, RuntimeError, RuntimeOptions,
};

use coruscant_qos::{FairQueue, QosOptions};
use handle::Resolver;
use stats::Counters;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server configuration: the wrapped runtime's options plus admission
/// control.
#[derive(Debug, Default)]
pub struct ServerOptions {
    /// Options for the wrapped [`Runtime`]. The server installs its own
    /// completion-notice channel; a `notify` sender set here is replaced.
    pub runtime: RuntimeOptions,
    /// Admission-control configuration (disabled by default, which keeps
    /// the pipeline deterministic).
    pub admission: AdmissionOptions,
    /// Weighted-fair per-client QoS configuration (disabled by default).
    pub qos: QosOptions,
}

/// Errors surfaced by server lifecycle operations.
#[derive(Debug)]
pub enum ServerError {
    /// The server was already shut down.
    Closed,
    /// Starting or draining the wrapped runtime failed.
    Runtime(RuntimeError),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Closed => write!(f, "server already shut down"),
            ServerError::Runtime(e) => write!(f, "runtime: {e}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Runtime(e) => Some(e),
            ServerError::Closed => None,
        }
    }
}

/// Per-submission options.
#[derive(Debug, Clone, Default)]
pub struct SubmitOptions {
    /// Scheduling class for admission control.
    pub priority: Priority,
    /// Client identity for the weighted-fair QoS stage. `None` (the
    /// default) bypasses per-client queuing entirely; with QoS enabled a
    /// named client is weighted, optionally rate-limited, and accounted
    /// in [`ServerStats::qos`](stats::ServerStats).
    pub client: Option<String>,
    /// Relative queueing deadline: if the job is still queued when it
    /// elapses, the job is cancelled and its handle resolves
    /// [`ServeError::Expired`]. `None` (default) never expires. A zero
    /// deadline is rejected at submission with [`Rejected::Deadline`].
    pub deadline: Option<Duration>,
    /// Placement passed through to the runtime.
    pub placement: Placement,
}

impl SubmitOptions {
    /// Options with a priority and defaults otherwise.
    pub fn priority(priority: Priority) -> SubmitOptions {
        SubmitOptions {
            priority,
            ..SubmitOptions::default()
        }
    }

    /// Sets the queueing deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> SubmitOptions {
        self.deadline = Some(deadline);
        self
    }

    /// Names the submitting client for the weighted-fair QoS stage.
    pub fn for_client(mut self, client: &str) -> SubmitOptions {
        self.client = Some(client.to_string());
        self
    }
}

/// A pending job's QoS identity, consumed when its handle resolves.
struct QosTag {
    /// Dense client index inside the server's [`FairQueue`].
    client: usize,
    /// Absolute queueing deadline, for deadline-hit accounting.
    deadline: Option<Instant>,
}

/// Pending-handle bookkeeping shared between submitters, the router
/// thread, and the deadline sweeper.
#[derive(Default)]
struct Registry {
    /// Unresolved handles by job id.
    pending: HashMap<u64, Resolver>,
    /// Final completions that arrived before the submitter could
    /// register its handle (the job id is assigned *inside* the
    /// runtime's submit, so the worker can race the registration).
    early: HashMap<u64, Completion>,
    /// Jobs the deadline sweeper cancelled: the scheduler's `Cancelled`
    /// notice for these resolves [`ServeError::Expired`] instead of
    /// [`ServeError::Cancelled`].
    expire_intent: HashSet<u64>,
    /// Jobs already routed to a resolution. One job can emit two final
    /// signals — a final notice and its harvested outcome, or under
    /// supervision an `Abandoned` notice when the watchdog gives it up,
    /// then a late `Attempt` notice when the detached worker finally
    /// completes — and only the first may count.
    resolved: IdSet,
    /// QoS identities of pending jobs, inserted with the handle
    /// registration and consumed (to release the client's backlog in the
    /// fair queue) when the job resolves.
    qos_tags: HashMap<u64, QosTag>,
}

/// The deadline sweeper's work queue.
#[derive(Default)]
struct SweeperState {
    heap: Mutex<BinaryHeap<Reverse<(Instant, u64)>>>,
    cv: Condvar,
    stop: AtomicBool,
}

struct Shared {
    /// `None` once [`Server::shutdown`] has taken the runtime. Behind an
    /// `RwLock` so submitters share read access while drain is exclusive.
    runtime: RwLock<Option<Runtime>>,
    registry: Mutex<Registry>,
    admission: AdmissionOptions,
    qos: Mutex<FairQueue>,
    counters: Counters,
    accepting: AtomicBool,
    sweeper: SweeperState,
}

impl Shared {
    /// Routes one final completion: resolves the pending handle, or
    /// stashes it for a registration that has not happened yet. Counts
    /// the resolution exactly once.
    fn route(&self, job_id: u64, completion: Completion) {
        let mut reg = sync::lock(&self.registry);
        if !reg.resolved.insert(job_id) {
            // A duplicate final signal; the first resolution won.
            return;
        }
        self.count(&completion);
        reg.expire_intent.remove(&job_id);
        let tag = reg.qos_tags.remove(&job_id);
        match reg.pending.remove(&job_id) {
            Some(resolver) => {
                drop(reg);
                if let Some(tag) = &tag {
                    self.qos_record(tag, &completion);
                }
                resolver.resolve(completion);
            }
            None => {
                // The completion raced the registration: no tag can exist
                // yet (tags are inserted with the registration), so the
                // register path settles the QoS accounting synchronously.
                reg.early.insert(job_id, completion);
            }
        }
    }

    /// Takes what the runtime has retired so far and settles it (once
    /// shutdown has taken the runtime, its report carries the rest).
    fn harvest(&self) {
        let outcomes = match sync::read(&self.runtime).as_ref() {
            Some(rt) => rt.take_outcomes(),
            None => return,
        };
        self.settle(outcomes);
    }

    /// Resolves from its outcome — its final attempt by construction —
    /// every job no final notice has resolved (e.g. a `Fixed`-placement
    /// job whose last attempt stayed unverified); drops the rest.
    fn settle(&self, outcomes: Vec<JobOutcome>) {
        // One lock for the batch; dropping and routing happen outside it.
        let open: Vec<bool> = {
            let reg = sync::lock(&self.registry);
            let open = outcomes.iter().map(|o| !reg.resolved.contains(o.job_id));
            open.collect()
        };
        for (outcome, open) in outcomes.into_iter().zip(open) {
            if open {
                let completion = Ok(JobDone {
                    job_id: outcome.job_id,
                    outputs: outcome.outputs,
                    bank: outcome.bank,
                    attempt: outcome.attempt,
                    batch: outcome.batch,
                    verified: outcome.verified,
                });
                self.route(outcome.job_id, completion);
            }
        }
    }

    /// Releases one resolved job's backlog in the fair queue and folds
    /// its outcome into the client's deadline/served accounting.
    fn qos_record(&self, tag: &QosTag, completion: &Completion) {
        let mut fair = sync::lock(&self.qos);
        match completion {
            Err(ServeError::Expired) => fair.record_expired(tag.client),
            Ok(_) => {
                let met = tag.deadline.map(|d| Instant::now() <= d);
                fair.record_served(tag.client, met);
            }
            // Any other terminal error still releases the backlog; a job
            // with a deadline that never produced outputs is a miss.
            Err(_) => fair.record_served(tag.client, tag.deadline.map(|_| false)),
        }
    }

    /// Releases a fair-queue admission whose submission then failed at
    /// the runtime boundary (queue full, closed, poisoned): the client
    /// must not stay backlogged for a job that never existed.
    fn qos_unwind(&self, client: Option<usize>) {
        if let Some(id) = client {
            sync::lock(&self.qos).record_expired(id);
        }
    }

    fn count(&self, completion: &Completion) {
        let c = &self.counters;
        match completion {
            Ok(_) => c.completed.fetch_add(1, Ordering::Relaxed),
            Err(ServeError::Exec(_)) => c.failed.fetch_add(1, Ordering::Relaxed),
            Err(ServeError::Expired) => c.expired.fetch_add(1, Ordering::Relaxed),
            Err(ServeError::Cancelled) => c.cancelled.fetch_add(1, Ordering::Relaxed),
            Err(ServeError::Hung) => c.hung.fetch_add(1, Ordering::Relaxed),
            Err(ServeError::Crashed) => c.crashed.fetch_add(1, Ordering::Relaxed),
            Err(ServeError::Lost) => c.lost.fetch_add(1, Ordering::Relaxed),
            // Rejections are counted at the submission site.
            Err(ServeError::Rejected(_)) => 0,
        };
    }

    /// Registers a handle for a freshly accepted job, claiming any
    /// completion that raced ahead of the registration.
    fn register(&self, job_id: u64) -> JobHandle {
        self.register_tagged(job_id, None)
    }

    /// Registers a handle together with the job's QoS identity. If the
    /// completion raced ahead of the registration, the QoS accounting is
    /// settled here, synchronously — the router never saw a tag.
    fn register_tagged(&self, job_id: u64, tag: Option<QosTag>) -> JobHandle {
        let mut reg = sync::lock(&self.registry);
        if let Some(completion) = reg.early.remove(&job_id) {
            drop(reg);
            if let Some(tag) = &tag {
                self.qos_record(tag, &completion);
            }
            return handle::resolved(job_id, completion);
        }
        let (h, resolver) = handle::oneshot(job_id);
        reg.pending.insert(job_id, resolver);
        if let Some(tag) = tag {
            reg.qos_tags.insert(job_id, tag);
        }
        h
    }

    /// Fires one queueing deadline: if the job is still unresolved, mark
    /// the expiry intent and ask the runtime to cancel it.
    fn expire(&self, job_id: u64) {
        {
            let mut reg = sync::lock(&self.registry);
            if !reg.pending.contains_key(&job_id) {
                return; // already resolved — the deadline is moot
            }
            reg.expire_intent.insert(job_id);
        }
        if let Some(rt) = sync::read(&self.runtime).as_ref() {
            rt.cancel(job_id);
        }
    }

    fn sweeper_push(&self, at: Instant, job_id: u64) {
        sync::lock(&self.sweeper.heap).push(Reverse((at, job_id)));
        self.sweeper.cv.notify_all();
    }
}

/// Notices between two harvests: bounds what a busy session retains.
const HARVEST_EVERY: usize = 256;
/// Quiet time on the notice feed before a harvest: bounds how long a job
/// that only its outcome can resolve stays pending.
const HARVEST_IDLE: Duration = Duration::from_millis(10);

/// The router: turns the runtime's live notice feed into handle
/// resolutions, and harvests its retired outcomes every
/// [`HARVEST_EVERY`] notices and after [`HARVEST_IDLE`] of quiet. Exits on the [`JobNotice::Drained`] sentinel
/// the server sends after [`Runtime::finish`] returns, or when every
/// notice sender (workers + scheduler) hangs up — the sentinel matters
/// under supervision, where a permanently stalled worker may never drop
/// its sender.
fn router_loop(shared: &Shared, rx: &mpsc::Receiver<JobNotice>, chaos: Option<ChaosPlan>) {
    let mut routed = 0usize;
    'recv: loop {
        let notice = match rx.recv_timeout(HARVEST_IDLE) {
            Ok(notice) => notice,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                shared.harvest();
                continue;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        };
        routed += 1;
        if routed.is_multiple_of(HARVEST_EVERY) {
            shared.harvest();
        }
        // Flatten batched notices (the parallel scheduling engine
        // coalesces every member of a dispatch into one channel send);
        // each inner notice is handled exactly as if it arrived alone.
        let flattened = match notice {
            JobNotice::Batch(inner) => inner,
            single => vec![single],
        };
        for notice in flattened {
            if let Some(plan) = chaos {
                let key = (notice.job_id(), 0);
                if let ChaosAction::Delay = plan.decide(CrossingPoint::RouterNotice, key.0, key.1) {
                    std::thread::sleep(Duration::from_micros(plan.delay_us));
                }
            }
            if !notice.is_final() {
                // A superseded attempt under an active protection policy;
                // the re-dispatched attempt (or the job's harvested
                // outcome) resolves the handle.
                continue;
            }
            match notice {
                JobNotice::Attempt {
                    job_id,
                    attempt,
                    bank,
                    batch,
                    outputs,
                    error,
                    verified,
                    ..
                } => {
                    let completion = match error {
                        Some(e) => Err(ServeError::Exec(e)),
                        None => Ok(JobDone {
                            job_id,
                            outputs,
                            bank,
                            attempt,
                            batch,
                            verified,
                        }),
                    };
                    shared.route(job_id, completion);
                }
                JobNotice::Expired { job_id } => {
                    // The scheduler found the job past its deadline at
                    // issue time and dropped it before any bank saw it.
                    shared.route(job_id, Err(ServeError::Expired));
                }
                JobNotice::Cancelled { job_id } => {
                    let expired = {
                        let mut reg = sync::lock(&shared.registry);
                        // Claim the intent only if this notice will win the
                        // route (a resolved job's late cancel is moot).
                        !reg.resolved.contains(job_id) && reg.expire_intent.remove(&job_id)
                    };
                    let completion = if expired {
                        Err(ServeError::Expired)
                    } else {
                        Err(ServeError::Cancelled)
                    };
                    shared.route(job_id, completion);
                }
                JobNotice::Abandoned { job_id, hung } => {
                    let completion = Err(if hung {
                        ServeError::Hung
                    } else {
                        ServeError::Crashed
                    });
                    shared.route(job_id, completion);
                }
                JobNotice::Drained => break 'recv,
                // Batches never nest; the outer flattening consumed them.
                JobNotice::Batch(_) => {}
            }
        }
    }
}

/// The deadline sweeper: sleeps until the earliest pending deadline and
/// fires expiries in order.
fn sweeper_loop(shared: &Shared) {
    let mut heap = sync::lock(&shared.sweeper.heap);
    loop {
        if shared.sweeper.stop.load(Ordering::Acquire) {
            return;
        }
        let next = heap.peek().map(|Reverse((at, id))| (*at, *id));
        match next {
            None => {
                heap = sync::wait(&shared.sweeper.cv, heap);
            }
            Some((at, id)) => {
                let now = Instant::now();
                if at <= now {
                    heap.pop();
                    drop(heap);
                    shared.expire(id);
                    heap = sync::lock(&shared.sweeper.heap);
                } else {
                    heap = sync::wait_timeout(&shared.sweeper.cv, heap, at - now);
                }
            }
        }
    }
}

/// A serving frontend over one [`Runtime`] session. Create with
/// [`Server::start`], submit through [`Server::client`] handles, and
/// call [`Server::shutdown`] to drain.
pub struct Server {
    shared: Arc<Shared>,
    /// Our own clone of the notice sender, used to push the
    /// [`JobNotice::Drained`] sentinel that unblocks the router at
    /// shutdown even if a stalled worker still holds a sender.
    notify: mpsc::Sender<JobNotice>,
    router: Option<JoinHandle<()>>,
    sweeper: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts a server: spawns the wrapped runtime plus the router and
    /// deadline-sweeper threads.
    ///
    /// # Errors
    ///
    /// Propagates [`Runtime::new`] failures.
    pub fn start(config: MemoryConfig, options: ServerOptions) -> Result<Server, ServerError> {
        let (notify_tx, notify_rx) = mpsc::channel::<JobNotice>();
        let notify = notify_tx.clone();
        let chaos = options.runtime.chaos.filter(ChaosPlan::is_active);
        let runtime_options = options.runtime.with_notify(notify_tx);
        // The channel's original sender was moved into the runtime (and
        // cloned to its workers/scheduler); once `finish` joins them the
        // receiver disconnects and the router exits.
        let runtime = Runtime::new(config, runtime_options).map_err(ServerError::Runtime)?;
        let shared = Arc::new(Shared {
            runtime: RwLock::new(Some(runtime)),
            registry: Mutex::new(Registry::default()),
            admission: options.admission,
            qos: Mutex::new(FairQueue::new(options.qos)),
            counters: Counters::default(),
            accepting: AtomicBool::new(true),
            sweeper: SweeperState::default(),
        });
        let router = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || router_loop(&shared, &notify_rx, chaos))
        };
        let sweeper = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || sweeper_loop(&shared))
        };
        Ok(Server {
            shared,
            notify,
            router: Some(router),
            sweeper: Some(sweeper),
        })
    }

    /// A cloneable submission client for this server.
    pub fn client(&self) -> Client {
        Client {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Live depth of the runtime's submission queue (the admission
    /// signal).
    pub fn queue_len(&self) -> usize {
        sync::read(&self.shared.runtime)
            .as_ref()
            .map_or(0, Runtime::queue_len)
    }

    /// Opens the scheduler gate of a server whose runtime was created
    /// with [`RuntimeOptions::paused`] — used by tests that need to
    /// stage submissions/cancellations deterministically before any
    /// scheduling happens.
    pub fn resume(&self) {
        if let Some(rt) = sync::read(&self.shared.runtime).as_ref() {
            rt.resume();
        }
    }

    /// Graceful drain: stops accepting, flushes every queued and
    /// in-flight job through the runtime, resolves all outstanding
    /// handles, and returns the final balanced [`ServerStats`].
    ///
    /// # Errors
    ///
    /// [`ServerError::Runtime`] if the drain failed (a worker died or a
    /// job error surfaced at session level); outstanding handles resolve
    /// [`ServeError::Lost`] in that case.
    pub fn shutdown(mut self) -> Result<ServerStats, ServerError> {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> Result<ServerStats, ServerError> {
        self.shared.accepting.store(false, Ordering::Release);
        let runtime = sync::write(&self.shared.runtime)
            .take()
            .ok_or(ServerError::Closed)?;
        let result = runtime.finish();
        // Every real notice is already buffered (finish joined the
        // scheduler, and completed workers dropped their senders); the
        // sentinel tells the router to exit once it has drained them,
        // without waiting on a permanently stalled worker's sender.
        let _ = self.notify.send(JobNotice::Drained);
        self.shared.sweeper.stop.store(true, Ordering::Release);
        self.shared.sweeper.cv.notify_all();
        if let Some(h) = self.sweeper.take() {
            let _ = h.join();
        }
        if let Some(h) = self.router.take() {
            let _ = h.join();
        }
        match result {
            Ok(report) => {
                // What retired after the router's last harvest.
                self.shared.settle(report.outcomes);
                let mut reg = sync::lock(&self.shared.registry);
                let leftover_tags: Vec<(u64, QosTag)> = reg.qos_tags.drain().collect();
                for (_, resolver) in reg.pending.drain() {
                    let completion = Err(ServeError::Lost);
                    self.shared.count(&completion);
                    resolver.resolve(completion);
                }
                drop(reg);
                // Jobs drained without a final signal still release their
                // client's backlog (as misses if they carried a deadline).
                for (_, tag) in leftover_tags {
                    self.shared.qos_record(&tag, &Err(ServeError::Lost));
                }
                let qos = sync::lock(&self.shared.qos).stats();
                Ok(self.shared.counters.snapshot(report.stats, qos))
            }
            Err(e) => {
                let mut reg = sync::lock(&self.shared.registry);
                for (_, resolver) in reg.pending.drain() {
                    let completion = Err(ServeError::Lost);
                    self.shared.count(&completion);
                    resolver.resolve(completion);
                }
                drop(reg);
                Err(ServerError::Runtime(e))
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A dropped server still drains — otherwise the runtime's
        // scheduler would block on its never-closed queue forever.
        let _ = self.shutdown_inner();
    }
}

/// A cheap, cloneable submission handle to a [`Server`]; safe to share
/// across threads.
#[derive(Clone)]
pub struct Client {
    shared: Arc<Shared>,
}

impl Client {
    /// Submits a job with default options ([`Priority::Normal`], no
    /// deadline, automatic placement).
    ///
    /// # Errors
    ///
    /// A typed [`Rejected`] when the submission is refused.
    pub fn submit(&self, program: PimProgram) -> Result<JobHandle, Rejected> {
        self.submit_with(program, SubmitOptions::default())
    }

    /// Submits a job.
    ///
    /// With admission control enabled the call never blocks: it either
    /// accepts (returning a [`JobHandle`]) or sheds with a typed
    /// [`Rejected`]. With admission disabled it blocks while the
    /// runtime's bounded queue is full (backpressure), preserving the
    /// runtime's deterministic pipeline.
    ///
    /// # Errors
    ///
    /// A typed [`Rejected`] when the submission is refused.
    pub fn submit_with(
        &self,
        program: PimProgram,
        options: SubmitOptions,
    ) -> Result<JobHandle, Rejected> {
        let c = &self.shared.counters;
        c.submitted.fetch_add(1, Ordering::Relaxed);
        if !self.shared.accepting.load(Ordering::Acquire) {
            c.rejected_closed.fetch_add(1, Ordering::Relaxed);
            return Err(Rejected::Closed);
        }
        let guard = sync::read(&self.shared.runtime);
        let Some(rt) = guard.as_ref() else {
            c.rejected_closed.fetch_add(1, Ordering::Relaxed);
            return Err(Rejected::Closed);
        };
        if options.deadline.is_some_and(|d| d.is_zero()) {
            c.rejected_deadline.fetch_add(1, Ordering::Relaxed);
            return Err(Rejected::Deadline);
        }
        let now = Instant::now();
        let adm = self.shared.admission;
        if let Err(r) = adm.admit(options.priority, rt.queue_len(), rt.queue_capacity()) {
            c.rejected_overload.fetch_add(1, Ordering::Relaxed);
            return Err(r);
        }
        let admission_on = adm.enabled;
        // The weighted-fair QoS stage runs after admission so priority
        // shedding still applies first; anonymous submissions (no client
        // name) bypass it, as do all submissions when QoS is off.
        let deadline_at = options.deadline.map(|d| now + d);
        let qos_client = match &options.client {
            Some(name) => {
                let mut fair = sync::lock(&self.shared.qos);
                if fair.is_enabled() {
                    match fair.admit(name, 1.0, rt.queue_len(), rt.queue_capacity(), now) {
                        Ok(idx) => Some(idx),
                        Err(_) => {
                            c.rejected_throttled.fetch_add(1, Ordering::Relaxed);
                            return Err(Rejected::Throttled);
                        }
                    }
                } else {
                    None
                }
            }
            None => None,
        };
        let id = if admission_on {
            match rt.try_submit_due(program, options.placement, deadline_at) {
                Ok(id) => id,
                Err(PushError::Full) => {
                    c.rejected_queue_full.fetch_add(1, Ordering::Relaxed);
                    self.shared.qos_unwind(qos_client);
                    return Err(Rejected::QueueFull);
                }
                Err(PushError::Closed) => {
                    c.rejected_closed.fetch_add(1, Ordering::Relaxed);
                    self.shared.qos_unwind(qos_client);
                    return Err(Rejected::Closed);
                }
                Err(PushError::Poisoned { fingerprint }) => {
                    c.rejected_poison.fetch_add(1, Ordering::Relaxed);
                    self.shared.qos_unwind(qos_client);
                    return Err(Rejected::Poison { fingerprint });
                }
            }
        } else {
            match rt.submit_due(program, options.placement, deadline_at) {
                Ok(id) => id,
                Err(RuntimeError::Poisoned { fingerprint }) => {
                    c.rejected_poison.fetch_add(1, Ordering::Relaxed);
                    self.shared.qos_unwind(qos_client);
                    return Err(Rejected::Poison { fingerprint });
                }
                Err(_) => {
                    // Blocking submit otherwise fails only on a closed
                    // queue or a compiler rejection (differential-verify
                    // divergence); either way the job was not accepted.
                    c.rejected_closed.fetch_add(1, Ordering::Relaxed);
                    self.shared.qos_unwind(qos_client);
                    return Err(Rejected::Closed);
                }
            }
        };
        c.accepted.fetch_add(1, Ordering::Relaxed);
        let tag = qos_client.map(|client| QosTag {
            client,
            deadline: deadline_at,
        });
        let handle = self.shared.register_tagged(id, tag);
        if let Some(at) = deadline_at {
            self.shared.sweeper_push(at, id);
        }
        Ok(handle)
    }

    /// Submits a whole workload and returns its ordered [`ResultStream`].
    /// Rejected members become pre-resolved
    /// [`ServeError::Rejected`] entries, so the stream always yields one
    /// completion per input, in input order.
    pub fn submit_stream<I>(&self, programs: I, options: SubmitOptions) -> ResultStream
    where
        I: IntoIterator<Item = PimProgram>,
    {
        let handles = programs
            .into_iter()
            .map(|p| match self.submit_with(p, options.clone()) {
                Ok(h) => h,
                Err(r) => handle::resolved(u64::MAX, Err(ServeError::Rejected(r))),
            })
            .collect();
        ResultStream::new(handles)
    }

    /// Submits a dependency-gated pipeline chain (see
    /// [`Runtime::submit_chain`]) and returns one [`JobHandle`] per
    /// member, in chain order. Members held in the dependency tracker
    /// resolve when their final attempt retires; members dropped because
    /// a predecessor failed (or a binder refused to build) resolve
    /// [`ServeError::Cancelled`].
    ///
    /// One admission decision covers the whole chain — a pipeline is
    /// all-or-nothing, because shedding individual members would leave
    /// dangling dependencies. The chain enters the runtime through the
    /// blocking queue (backpressure) in both admission modes.
    ///
    /// # Errors
    ///
    /// A typed [`Rejected`] when the chain is refused —
    /// [`Rejected::Invalid`] marks a structurally bad chain (a member
    /// depending on itself or a later member).
    pub fn submit_pipeline(
        &self,
        chain: Vec<ChainJob>,
        priority: Priority,
    ) -> Result<Vec<JobHandle>, Rejected> {
        let n = chain.len() as u64;
        let c = &self.shared.counters;
        c.submitted.fetch_add(n, Ordering::Relaxed);
        if !self.shared.accepting.load(Ordering::Acquire) {
            c.rejected_closed.fetch_add(n, Ordering::Relaxed);
            return Err(Rejected::Closed);
        }
        let guard = sync::read(&self.shared.runtime);
        let Some(rt) = guard.as_ref() else {
            c.rejected_closed.fetch_add(n, Ordering::Relaxed);
            return Err(Rejected::Closed);
        };
        if let Err(r) = self
            .shared
            .admission
            .admit(priority, rt.queue_len(), rt.queue_capacity())
        {
            c.rejected_overload.fetch_add(n, Ordering::Relaxed);
            return Err(r);
        }
        let ids = match rt.submit_chain(chain) {
            Ok(ids) => ids,
            Err(RuntimeError::Config(_)) => {
                c.rejected_invalid.fetch_add(n, Ordering::Relaxed);
                return Err(Rejected::Invalid);
            }
            Err(_) => {
                c.rejected_closed.fetch_add(n, Ordering::Relaxed);
                return Err(Rejected::Closed);
            }
        };
        c.accepted.fetch_add(n, Ordering::Relaxed);
        Ok(ids.into_iter().map(|id| self.shared.register(id)).collect())
    }

    /// Pins weights resident on a PIM unit (see
    /// [`Runtime::pin_resident`]): runs `program` once on unit
    /// `unit_idx` and registers a residency there, which
    /// [`Placement::Resident`] jobs — standalone or pipeline members —
    /// follow even across quarantine re-materialization. Returns the
    /// [`ResidentPin`] receipt plus the pin job's completion handle.
    ///
    /// # Errors
    ///
    /// A typed [`Rejected`] when the pin is refused.
    pub fn pin_resident(
        &self,
        program: PimProgram,
        unit_idx: usize,
    ) -> Result<(ResidentPin, JobHandle), Rejected> {
        let c = &self.shared.counters;
        c.submitted.fetch_add(1, Ordering::Relaxed);
        if !self.shared.accepting.load(Ordering::Acquire) {
            c.rejected_closed.fetch_add(1, Ordering::Relaxed);
            return Err(Rejected::Closed);
        }
        let guard = sync::read(&self.shared.runtime);
        let Some(rt) = guard.as_ref() else {
            c.rejected_closed.fetch_add(1, Ordering::Relaxed);
            return Err(Rejected::Closed);
        };
        let pin = match rt.pin_resident(program, unit_idx) {
            Ok(pin) => pin,
            Err(_) => {
                c.rejected_closed.fetch_add(1, Ordering::Relaxed);
                return Err(Rejected::Closed);
            }
        };
        c.accepted.fetch_add(1, Ordering::Relaxed);
        let handle = self.shared.register(pin.job);
        Ok((pin, handle))
    }

    /// Requests cancellation of a still-queued job. Best-effort, like
    /// [`Runtime::cancel`]: if the scheduler drops the job before issue
    /// its handle resolves [`ServeError::Cancelled`]; a job that already
    /// reached a bank completes normally.
    pub fn cancel(&self, job_id: u64) {
        if let Some(rt) = sync::read(&self.shared.runtime).as_ref() {
            rt.cancel(job_id);
        }
    }

    /// Live depth of the runtime's submission queue.
    pub fn queue_len(&self) -> usize {
        sync::read(&self.shared.runtime)
            .as_ref()
            .map_or(0, Runtime::queue_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coruscant_mem::DbcLocation;

    fn outcome(job_id: u64) -> JobOutcome {
        JobOutcome {
            job_id,
            seq: job_id,
            unit: DbcLocation::new(0, 0, 0, 0),
            bank: 0,
            outputs: vec![("out".into(), vec![job_id])],
            device_cycles: 1,
            wait_cycles: 0,
            completion: 1,
            attempt: 0,
            replicas: 1,
            faults_detected: 0,
            retries: 0,
            votes_overturned: 0,
            verified: false,
            batch: 1,
        }
    }

    fn notice(job_id: u64) -> Completion {
        Ok(JobDone {
            job_id,
            outputs: vec![("out".into(), vec![job_id])],
            bank: 0,
            attempt: 0,
            batch: 1,
            verified: false,
        })
    }

    /// A job's final notice and its harvested outcome are two final
    /// signals: whichever arrives first resolves the handle and counts,
    /// the other is dropped.
    #[test]
    fn a_notice_and_an_outcome_of_one_job_count_once_in_either_order() {
        let server = Server::start(MemoryConfig::tiny(), ServerOptions::default()).unwrap();
        let shared = &server.shared;
        let (outcome_first, notice_first) = (shared.register(7), shared.register(8));
        shared.settle(vec![outcome(7)]);
        shared.route(7, notice(7));
        shared.route(8, notice(8));
        shared.settle(vec![outcome(8), outcome(7)]);
        assert_eq!(shared.counters.completed.load(Ordering::Relaxed), 2);
        assert_eq!(outcome_first.wait().unwrap().outputs[0].1, [7]);
        assert_eq!(notice_first.wait().unwrap().outputs[0].1, [8]);
        // An outcome that beats its handle's registration is kept for it.
        shared.settle(vec![outcome(9)]);
        assert_eq!(shared.register(9).wait().unwrap().job_id, 9);
        assert_eq!(shared.counters.completed.load(Ordering::Relaxed), 3);
    }
}
