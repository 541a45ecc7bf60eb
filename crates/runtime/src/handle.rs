//! Served jobs' completion slots.
//!
//! A job submitted through [`Runtime::serve`](crate::Runtime::serve) (or
//! its chain and pin forms) carries the runtime's side of a oneshot slot
//! from submit onward; the caller keeps the other side, a [`JobHandle`].
//! Whoever decides the job's fate resolves the slot on the spot: the
//! worker (or parallel domain) that ran its final attempt, the scheduler
//! when it marks an unverified attempt last, the cancellation filter for
//! a cancel, an expiry or a dependency cascade, and the supervisor for
//! an abandonment. The first resolution wins and runs the slot's hook
//! ([`JobHandle::on_resolve`]) once; a later one — a stalled worker's
//! attempt of a job already given up — is dropped. A slot whose last
//! runtime-side reference goes away unresolved (a failed drain) resolves
//! [`ServeError::Lost`], so no handle outlives its session unresolved.

use crate::options::RuntimeError;
use crate::queue::PushError;
use crate::sync;
use coruscant_core::PimError;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Waker};

/// What a successfully served job hands back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobDone {
    /// The runtime job id.
    pub job_id: u64,
    /// The job's labeled readouts, in program order — bit-identical to
    /// what [`JobOutcome::outputs`](crate::JobOutcome::outputs) records
    /// for a job submitted without a handle.
    pub outputs: Vec<(String, Vec<u64>)>,
    /// Bank the winning attempt ran on.
    pub bank: usize,
    /// Dispatch attempt of the winning execution (0 = first placement).
    pub attempt: u32,
    /// Jobs sharing the winning attempt's batched dispatch.
    pub batch: u32,
    /// Whether a protection policy verified the outputs.
    pub verified: bool,
}

/// Why a submission was refused. Typed so clients can distinguish
/// retry-later conditions from permanent ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejected {
    /// Shed by admission control: the queue is above the priority's
    /// high-water mark. Retry after backing off.
    Overload,
    /// Shed by the weighted-fair QoS stage: the client is over its rate
    /// quota, or it is past its fair share while the queue is congested.
    /// Retry after backing off.
    Throttled,
    /// The runtime's bounded submission queue is at capacity.
    QueueFull,
    /// The submission carried a deadline that had already expired.
    Deadline,
    /// The server is draining or shut down; no further work is accepted.
    Closed,
    /// The submission is one the runtime does not take: a pipeline
    /// member depending on itself or on a later member, or a surface the
    /// scheduling engine does not support. Not retryable.
    Invalid,
    /// The program's structural fingerprint is quarantined: earlier
    /// submissions of it repeatedly hung worker shards past the
    /// execution watchdog's budget. Not retryable.
    Poison {
        /// The quarantined, placement-normalized program hash.
        fingerprint: u64,
    },
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::Overload => write!(f, "shed by admission control (overload)"),
            Rejected::Throttled => write!(f, "throttled by per-client QoS (quota or fair share)"),
            Rejected::QueueFull => write!(f, "submission queue full"),
            Rejected::Deadline => write!(f, "deadline already expired at submission"),
            Rejected::Closed => write!(f, "server closed to new submissions"),
            Rejected::Invalid => write!(f, "submission structurally invalid"),
            Rejected::Poison { fingerprint } => {
                write!(f, "program {fingerprint:#018x} quarantined as poison")
            }
        }
    }
}

impl std::error::Error for Rejected {}

impl From<PushError> for Rejected {
    fn from(e: PushError) -> Rejected {
        match e {
            PushError::Full => Rejected::QueueFull,
            PushError::Closed => Rejected::Closed,
        }
    }
}

impl From<RuntimeError> for Rejected {
    fn from(e: RuntimeError) -> Rejected {
        match e {
            RuntimeError::Config(_) => Rejected::Invalid,
            RuntimeError::Poisoned { fingerprint } => Rejected::Poison { fingerprint },
            _ => Rejected::Closed,
        }
    }
}

/// Why a job produced no [`JobDone`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The submission was refused (streams surface per-member
    /// rejections this way; a single submission returns them directly).
    Rejected(Rejected),
    /// The job's deadline had passed when the scheduler went to issue
    /// it; it was dropped before reaching a bank.
    Expired,
    /// The job was cancelled before reaching a bank: explicitly, or
    /// because a pipeline predecessor failed.
    Cancelled,
    /// The job executed and hit a PIM error.
    Exec(PimError),
    /// The job's last attempt exceeded the execution watchdog's budget;
    /// supervision declared it hung and gave the job up.
    Hung,
    /// The job's attempts kept crashing worker shards until supervision
    /// exhausted its crash-retry budget.
    Crashed,
    /// The session ended without deciding the job's fate (a worker was
    /// lost, or the drain failed wholesale).
    Lost,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Rejected(r) => write!(f, "rejected: {r}"),
            ServeError::Expired => write!(f, "deadline expired while queued"),
            ServeError::Cancelled => write!(f, "cancelled while queued"),
            ServeError::Exec(e) => write!(f, "execution failed: {e}"),
            ServeError::Hung => write!(f, "abandoned: attempt exceeded the watchdog budget"),
            ServeError::Crashed => {
                write!(f, "abandoned: attempts exhausted the crash-retry budget")
            }
            ServeError::Lost => write!(f, "session ended without a result"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One job's resolution.
pub type Completion = Result<JobDone, ServeError>;

/// What runs once, on the winning resolution.
type Hook = Box<dyn FnOnce(&Completion) + Send>;

#[derive(Default)]
struct State {
    /// The completion, until the handle takes it.
    value: Option<Completion>,
    /// Set by the first resolution; later ones are dropped.
    resolved: bool,
    waker: Option<Waker>,
    hook: Option<Hook>,
}

#[derive(Default)]
struct Slot {
    state: Mutex<State>,
    cv: Condvar,
}

/// The runtime's side of a slot. Every record of the job shares one
/// (behind [`Done`]); the last to go resolves it [`ServeError::Lost`]
/// if nothing else did.
pub(crate) struct Resolver {
    slot: Arc<Slot>,
}

/// How a served job's records carry its resolver.
pub(crate) type Done = Arc<Resolver>;

impl Resolver {
    /// Resolves the slot with `completion()` — built only if this is the
    /// first resolution — and runs its hook.
    pub(crate) fn resolve(&self, completion: impl FnOnce() -> Completion) {
        let mut state = sync::lock(&self.slot.state);
        if state.resolved {
            return;
        }
        let completion = completion();
        if let Some(hook) = state.hook.take() {
            hook(&completion);
        }
        state.resolved = true;
        state.value = Some(completion);
        let waker = state.waker.take();
        drop(state);
        self.slot.cv.notify_all();
        if let Some(w) = waker {
            w.wake();
        }
    }
}

impl Drop for Resolver {
    fn drop(&mut self) {
        self.resolve(|| Err(ServeError::Lost));
    }
}

impl std::fmt::Debug for Resolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Resolver")
    }
}

/// A connected handle and resolver for job `id`.
pub(crate) fn slot(id: u64) -> (JobHandle, Done) {
    let slot = Arc::new(Slot::default());
    let handle = JobHandle {
        id,
        slot: Arc::clone(&slot),
    };
    (handle, Arc::new(Resolver { slot }))
}

/// A served job's completion handle. Await it (`JobHandle` implements
/// [`Future`]) or block on [`JobHandle::wait`]; either yields the job's
/// [`Completion`] exactly once.
pub struct JobHandle {
    id: u64,
    slot: Arc<Slot>,
}

impl JobHandle {
    /// The runtime job id this handle tracks.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Whether the completion has arrived and was not taken yet.
    pub fn is_done(&self) -> bool {
        sync::lock(&self.slot.state).value.is_some()
    }

    /// Takes the completion if it has arrived, without blocking.
    pub fn try_take(&mut self) -> Option<Completion> {
        sync::lock(&self.slot.state).value.take()
    }

    /// Blocks until the job resolves and returns its completion.
    pub fn wait(self) -> Completion {
        let mut state = sync::lock(&self.slot.state);
        loop {
            if let Some(v) = state.value.take() {
                return v;
            }
            state = sync::wait(&self.slot.cv, state);
        }
    }

    /// Has `hook` run once on the job's resolution — now, on this
    /// thread, if the job already resolved (and its completion was not
    /// taken), else on the thread that resolves it, before any waiter
    /// sees the completion. Replaces a hook set earlier.
    pub fn on_resolve(&self, hook: impl FnOnce(&Completion) + Send + 'static) {
        let mut state = sync::lock(&self.slot.state);
        match &state.value {
            Some(completion) => hook(completion),
            None if !state.resolved => state.hook = Some(Box::new(hook)),
            None => {}
        }
    }
}

impl Future for JobHandle {
    type Output = Completion;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut state = sync::lock(&self.slot.state);
        if let Some(v) = state.value.take() {
            return Poll::Ready(v);
        }
        state.waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.id)
            .field("done", &self.is_done())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{resolve_attempt, ExecOutcome};
    use crate::session::SlotMeta;

    /// The handle's completions, as its hook saw them.
    fn hooked(handle: &JobHandle) -> Arc<Mutex<Vec<Completion>>> {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        handle.on_resolve(move |c| sink.lock().unwrap().push(c.clone()));
        seen
    }

    /// Three places can decide one job's fate: the worker that ran its
    /// final attempt, the scheduler marking an unverified attempt last,
    /// and the supervisor giving it up. Whichever comes first resolves
    /// the handle and runs the hook; the others change nothing.
    #[test]
    fn every_fate_of_one_job_resolves_and_hooks_once_in_any_order() {
        let attempt = |attempt: u32, verified| {
            let out = ExecOutcome {
                outputs: vec![("x".into(), vec![u64::from(attempt)])],
                instr_costs: Vec::new(),
                error: None,
                replicas: 2,
                faults_detected: 0,
                retries: 0,
                votes_overturned: 0,
                verified,
            };
            let done = JobDone {
                job_id: 9,
                outputs: out.outputs.clone(),
                bank: 3,
                attempt,
                batch: 1,
                verified,
            };
            (out, Ok(done))
        };
        let fates = [
            attempt(1, true),
            attempt(0, false),
            (attempt(0, false).0, Err(ServeError::Hung)),
        ];
        let orders = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        for order in orders {
            let (handle, done) = slot(9);
            let seen = hooked(&handle);
            for i in order {
                let (out, completion) = &fates[i];
                match completion {
                    Ok(job) => {
                        let slot = SlotMeta {
                            job_id: 9,
                            readouts: 1,
                            attempt: job.attempt,
                            redispatches: job.attempt,
                            last: true,
                            done: Some(Arc::clone(&done)),
                        };
                        resolve_attempt(&slot, &out.outputs, out, 3, 1);
                    }
                    Err(e) => done.resolve(|| Err(e.clone())),
                }
            }
            drop(done);
            let first = fates[order[0]].1.clone();
            assert_eq!(
                *seen.lock().unwrap(),
                std::slice::from_ref(&first),
                "{order:?}"
            );
            assert_eq!(handle.wait(), first, "{order:?}");
        }
    }

    #[test]
    fn a_slot_its_runtime_drops_unresolved_resolves_lost() {
        let (handle, done) = slot(4);
        let seen = hooked(&handle);
        let record = Arc::clone(&done);
        drop(done);
        assert!(!handle.is_done(), "another record still holds it");
        drop(record);
        assert_eq!(*seen.lock().unwrap(), [Err(ServeError::Lost)]);
        assert_eq!(handle.wait(), Err(ServeError::Lost));
    }

    #[test]
    fn a_hook_set_after_the_resolution_runs_at_once() {
        let (handle, done) = slot(5);
        done.resolve(|| Err(ServeError::Cancelled));
        let seen = hooked(&handle);
        assert_eq!(*seen.lock().unwrap(), [Err(ServeError::Cancelled)]);
        drop(done);
        assert_eq!(seen.lock().unwrap().len(), 1);
    }

    #[test]
    fn wait_blocks_until_resolved() {
        let (handle, done) = slot(7);
        let t = std::thread::spawn(move || handle.wait());
        std::thread::sleep(std::time::Duration::from_millis(10));
        done.resolve(|| Err(ServeError::Expired));
        assert_eq!(t.join().unwrap(), Err(ServeError::Expired));
    }

    #[test]
    fn future_poll_pending_then_ready() {
        let (mut handle, done) = slot(3);
        let mut cx = Context::from_waker(Waker::noop());
        assert!(Pin::new(&mut handle).poll(&mut cx).is_pending());
        done.resolve(|| Err(ServeError::Cancelled));
        match Pin::new(&mut handle).poll(&mut cx) {
            Poll::Ready(Err(ServeError::Cancelled)) => {}
            other => panic!("expected ready: {other:?}"),
        }
    }
}
