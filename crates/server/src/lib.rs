//! The CORUSCANT serving frontend: an async request API over the
//! session-shaped execution runtime.
//!
//! The runtime (`coruscant-runtime`) is session-shaped: submissions go
//! into a bounded queue and outcomes are read off the session. That
//! fits batch campaigns, not serving. This crate wraps a runtime in a
//! [`Server`] that keeps the session live, gives clients a per-job
//! completion surface, and holds what is in flight, not what it served.
//! It adds policy only; the request lifecycle is the runtime's:
//!
//! * **Submission** — [`Client::submit`] returns the runtime's
//!   [`JobHandle`], which the runtime resolves where it decides the
//!   job's fate (its final attempt, a cancel or an expiry, an
//!   abandonment; see [`coruscant_runtime::handle`]), not at session end.
//!   Handles are [`std::future::Future`]s *and* blocking-waitable — no
//!   executor required. [`Client::submit_stream`] submits a whole
//!   workload and yields per-job results in submission order as they
//!   arrive.
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
//! * **Deadlines** — a per-job *queueing* deadline, checked by the
//!   scheduler when it issues the job: a job still queued past it never
//!   touches a bank and its handle resolves [`ServeError::Expired`]; a
//!   job whose execution already began completes normally.
//! * **Accounting** — each handle's resolution runs the server's hook
//!   once: it counts the fate and releases the client's QoS backlog.
//! * **Drain** — [`Server::shutdown`] stops accepting, flushes all
//!   in-flight work through [`Runtime::finish`] (which resolves every
//!   handle, [`ServeError::Lost`] for whatever a failed drain leaves),
//!   and returns [`ServerStats`] whose accounting always balances:
//!   `submitted == accepted + rejected` and every accepted job resolves
//!   exactly once.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod admission;
mod stats;

pub use admission::{AdmissionOptions, Priority};
pub use coruscant_runtime::{Completion, JobDone, JobHandle, Rejected, ServeError};
pub use stats::ServerStats;

use coruscant_core::program::PimProgram;
use coruscant_mem::MemoryConfig;
use coruscant_qos::{FairQueue, QosOptions};
use coruscant_runtime::RuntimeOptions;
use coruscant_runtime::{sync, ChainJob, Placement, ResidentPin, Runtime, RuntimeError};
use stats::Counters;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Server configuration: the wrapped runtime's options plus admission
/// control.
#[derive(Debug, Default)]
pub struct ServerOptions {
    /// Options for the wrapped [`Runtime`].
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
    /// Relative queueing deadline: if the job is still queued when the
    /// scheduler goes to issue it after the deadline, it is dropped and
    /// its handle resolves [`ServeError::Expired`]. `None` (default)
    /// never expires. A zero deadline is rejected at submission with
    /// [`Rejected::Deadline`].
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

/// An accepted job's QoS identity, accounted when its handle resolves.
struct QosTag {
    /// Dense client index inside the server's [`FairQueue`].
    client: usize,
    /// Absolute queueing deadline, for deadline-hit accounting.
    deadline: Option<Instant>,
}

struct Shared {
    /// `None` once [`Server::shutdown`] has taken the runtime. Behind an
    /// `RwLock` so submitters share read access while drain is exclusive.
    runtime: RwLock<Option<Runtime>>,
    admission: AdmissionOptions,
    qos: Mutex<FairQueue>,
    counters: Counters,
    accepting: AtomicBool,
}

impl Shared {
    /// What runs once when an accepted job's handle resolves: counts its
    /// fate and releases its client's backlog in the fair queue, folding
    /// the outcome into the client's deadline/served accounting.
    fn account(&self, completion: &Completion, tag: Option<&QosTag>) {
        self.counters
            .fate(completion)
            .fetch_add(1, Ordering::Relaxed);
        let Some(tag) = tag else {
            return;
        };
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
}

/// A serving frontend over one [`Runtime`] session. Create with
/// [`Server::start`], submit through [`Server::client`] handles, and
/// call [`Server::shutdown`] to drain.
pub struct Server {
    shared: Arc<Shared>,
}

impl Server {
    /// Starts a server around a new runtime; it starts no thread of its
    /// own.
    ///
    /// # Errors
    ///
    /// Propagates [`Runtime::new`] failures.
    pub fn start(config: MemoryConfig, options: ServerOptions) -> Result<Server, ServerError> {
        let runtime = Runtime::new(config, options.runtime).map_err(ServerError::Runtime)?;
        let shared = Arc::new(Shared {
            runtime: RwLock::new(Some(runtime)),
            admission: options.admission,
            qos: Mutex::new(FairQueue::new(options.qos)),
            counters: Counters::default(),
            accepting: AtomicBool::new(true),
        });
        Ok(Server { shared })
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
        self.client().queue_len()
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
    /// in-flight job through the runtime — which resolves every
    /// outstanding handle — and returns the final balanced
    /// [`ServerStats`].
    ///
    /// # Errors
    ///
    /// [`ServerError::Runtime`] if the drain failed (a worker died or a
    /// job error surfaced at session level); handles it left unresolved
    /// resolve [`ServeError::Lost`] in that case.
    pub fn shutdown(mut self) -> Result<ServerStats, ServerError> {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> Result<ServerStats, ServerError> {
        self.shared.accepting.store(false, Ordering::Release);
        let runtime = sync::write(&self.shared.runtime)
            .take()
            .ok_or(ServerError::Closed)?;
        let report = runtime.finish().map_err(ServerError::Runtime)?;
        let qos = sync::lock(&self.shared.qos).stats();
        Ok(self.shared.counters.snapshot(report.stats, qos))
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
    /// Counts `n` submissions and runs `submit` against the live
    /// runtime (refusing [`Rejected::Closed`] once draining), then counts
    /// them accepted or rejected by the typed reason — all under the
    /// runtime read lock, so the drain's final snapshot sees every count.
    fn admit<T>(
        &self,
        n: u64,
        submit: impl FnOnce(&Runtime) -> Result<T, Rejected>,
    ) -> Result<T, Rejected> {
        let c = &self.shared.counters;
        c.submitted.fetch_add(n, Ordering::Relaxed);
        let guard = sync::read(&self.shared.runtime);
        let result = match guard.as_ref() {
            Some(rt) if self.shared.accepting.load(Ordering::Acquire) => submit(rt),
            _ => Err(Rejected::Closed),
        };
        let counter = match &result {
            Ok(_) => &c.accepted,
            Err(r) => c.rejected(r),
        };
        counter.fetch_add(n, Ordering::Relaxed);
        result
    }

    /// Has the server account for `handle`'s job when it resolves.
    fn account_on_resolve(&self, handle: &JobHandle, tag: Option<QosTag>) {
        let shared = Arc::clone(&self.shared);
        handle.on_resolve(move |completion| shared.account(completion, tag.as_ref()));
    }

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
        self.admit(1, |rt| {
            if options.deadline.is_some_and(|d| d.is_zero()) {
                return Err(Rejected::Deadline);
            }
            let now = Instant::now();
            let adm = self.shared.admission;
            adm.admit(options.priority, rt.queue_len(), rt.queue_capacity())?;
            // The weighted-fair QoS stage runs after admission so priority
            // shedding still applies first; anonymous submissions (no
            // client name) bypass it, as do all submissions when QoS is off.
            let deadline = options.deadline.map(|d| now + d);
            let qos_client = match &options.client {
                Some(name) => {
                    let mut fair = sync::lock(&self.shared.qos);
                    if fair.is_enabled() {
                        let client =
                            fair.admit(name, 1.0, rt.queue_len(), rt.queue_capacity(), now);
                        Some(client.map_err(|_| Rejected::Throttled)?)
                    } else {
                        None
                    }
                }
                None => None,
            };
            match rt.serve(program, options.placement, deadline, !adm.enabled) {
                Ok(handle) => {
                    let tag = qos_client.map(|client| QosTag { client, deadline });
                    self.account_on_resolve(&handle, tag);
                    Ok(handle)
                }
                Err(r) => {
                    // The client must not stay backlogged in the fair
                    // queue for a job that never existed.
                    if let Some(id) = qos_client {
                        sync::lock(&self.shared.qos).record_expired(id);
                    }
                    Err(r)
                }
            }
        })
    }

    /// Submits a whole workload and returns its ordered [`ResultStream`].
    /// Rejected members become [`ServeError::Rejected`] entries, so the
    /// stream always yields one completion per input, in input order.
    pub fn submit_stream<I>(&self, programs: I, options: SubmitOptions) -> ResultStream
    where
        I: IntoIterator<Item = PimProgram>,
    {
        let submit = |p| self.submit_with(p, options.clone());
        let members = programs.into_iter().map(submit);
        ResultStream {
            members: members.map(|m| m.map_err(ServeError::Rejected)).collect(),
        }
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
        self.admit(chain.len() as u64, |rt| {
            let adm = self.shared.admission;
            adm.admit(priority, rt.queue_len(), rt.queue_capacity())?;
            let handles = rt.serve_chain(chain)?;
            for handle in &handles {
                self.account_on_resolve(handle, None);
            }
            Ok(handles)
        })
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
    /// A typed [`Rejected`] when the pin is refused —
    /// [`Rejected::Invalid`] under a scheduling engine that keeps no
    /// residency ([`coruscant_runtime::SchedMode::Parallel`]).
    pub fn pin_resident(
        &self,
        program: PimProgram,
        unit_idx: usize,
    ) -> Result<(ResidentPin, JobHandle), Rejected> {
        self.admit(1, |rt| {
            let (pin, handle) = rt.serve_pin(program, unit_idx)?;
            self.account_on_resolve(&handle, None);
            Ok((pin, handle))
        })
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

/// Ordered streaming results of a [`Client::submit_stream`] call: yields
/// each member's completion *in submission order*, blocking only until
/// the member at the front resolves — later members resolving early are
/// buffered in their handles.
pub struct ResultStream {
    /// Each member's handle, or why it was refused.
    members: VecDeque<Result<JobHandle, ServeError>>,
}

impl ResultStream {
    /// Builds a stream over arbitrary handles, yielding in the given
    /// order. Pipeline frontends use this to stream batched inference
    /// results from each request chain's final member.
    pub fn new(handles: Vec<JobHandle>) -> ResultStream {
        ResultStream {
            members: handles.into_iter().map(Ok).collect(),
        }
    }

    /// Members not yet yielded.
    pub fn remaining(&self) -> usize {
        self.members.len()
    }

    /// Blocks until the next member (in submission order) resolves;
    /// `None` once every member has been yielded.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Completion> {
        let member = self.members.pop_front()?;
        Some(member.and_then(JobHandle::wait))
    }
}

impl Iterator for ResultStream {
    type Item = Completion;

    fn next(&mut self) -> Option<Completion> {
        ResultStream::next(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coruscant_core::isa::{BlockSize, CpimInstr, CpimOpcode};
    use coruscant_core::program::Step;
    use coruscant_mem::{DbcLocation, RowAddress};
    use coruscant_runtime::SchedMode;

    fn add_job(a: u64) -> PimProgram {
        let loc = DbcLocation::new(0, 0, 0, 0);
        let row = |r| RowAddress::new(loc, r);
        PimProgram {
            steps: vec![
                Step::Load {
                    addr: row(4),
                    values: vec![a; 8],
                    lane: 8,
                },
                Step::Exec(
                    CpimInstr::new(
                        CpimOpcode::Add,
                        row(4),
                        2,
                        BlockSize::new(8).unwrap(),
                        Some(row(20)),
                    )
                    .unwrap(),
                ),
                Step::Readout {
                    label: "sum".into(),
                    addr: row(20),
                    lane: 8,
                },
            ],
        }
    }

    /// The stream yields in submission order whatever order its members
    /// resolve in: here the second, cancelled before the scheduler runs,
    /// resolves first.
    #[test]
    fn stream_yields_in_submission_order() {
        let options = ServerOptions {
            runtime: RuntimeOptions::default().paused(),
            ..ServerOptions::default()
        };
        let server = Server::start(MemoryConfig::tiny(), options).unwrap();
        let client = server.client();
        let mut stream = client.submit_stream([add_job(1), add_job(2)], SubmitOptions::default());
        client.cancel(1);
        server.resume();
        assert_eq!(stream.remaining(), 2);
        assert_eq!(stream.next().unwrap().unwrap().job_id, 0);
        assert_eq!(stream.next(), Some(Err(ServeError::Cancelled)));
        assert!(stream.next().is_none());
        assert!(server.shutdown().unwrap().balanced());
    }

    /// A pin the scheduling engine cannot take is invalid, not a sign
    /// that the server closed.
    #[test]
    fn a_pin_the_engine_refuses_is_rejected_invalid() {
        let options = ServerOptions {
            runtime: RuntimeOptions::default().with_sched_mode(SchedMode::Parallel),
            ..ServerOptions::default()
        };
        let server = Server::start(MemoryConfig::tiny(), options).unwrap();
        let pinned = server.client().pin_resident(add_job(3), 0);
        assert_eq!(pinned.err(), Some(Rejected::Invalid));
        let stats = server.shutdown().unwrap();
        assert_eq!((stats.rejected_invalid, stats.rejected_closed), (1, 0));
        assert!(stats.balanced(), "{stats:?}");
    }
}
