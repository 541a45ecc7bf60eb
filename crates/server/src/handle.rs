//! Channel-backed job completion handles.
//!
//! A [`JobHandle`] is the client's side of one job's completion: a
//! lightweight oneshot slot the server's router thread resolves when the
//! job's *final* [`coruscant_runtime::JobNotice`] arrives (or at drain,
//! from the runtime report). The handle is both a [`std::future::Future`]
//! — pollable from any executor, no runtime of its own required — and
//! blocking-waitable for synchronous callers via [`JobHandle::wait`].

use coruscant_core::PimError;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Condvar, Mutex};

use coruscant_runtime::sync;
use std::task::{Context, Poll, Waker};

use crate::admission::Rejected;

/// What a successfully served job hands back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobDone {
    /// The runtime job id.
    pub job_id: u64,
    /// The job's labeled readouts, in program order — bit-identical to
    /// what [`coruscant_runtime::JobOutcome::outputs`] records.
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

/// Why a job produced no [`JobDone`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// The submission was refused by admission control (streams surface
    /// per-member rejections this way; `submit` returns them directly).
    Rejected(Rejected),
    /// The job's deadline expired while it was still queued; it was
    /// cancelled before reaching a bank.
    Expired,
    /// The job was cancelled by an explicit [`crate::Client::cancel`]
    /// before reaching a bank.
    Cancelled,
    /// The job executed and hit a PIM error.
    Exec(PimError),
    /// The job's last attempt exceeded the execution watchdog's budget;
    /// supervision declared it hung and gave the job up.
    Hung,
    /// The job's attempts kept crashing worker shards until supervision
    /// exhausted its crash-retry budget.
    Crashed,
    /// The server shut down without learning the job's fate (a worker
    /// was lost, or the session failed wholesale).
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
            ServeError::Lost => write!(f, "server shut down without a result"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One job's resolution.
pub type Completion = Result<JobDone, ServeError>;

struct SlotState {
    value: Option<Completion>,
    waker: Option<Waker>,
}

/// The shared oneshot slot between a [`JobHandle`] and its resolver.
struct Slot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

impl Slot {
    fn new() -> Arc<Slot> {
        Arc::new(Slot {
            state: Mutex::new(SlotState {
                value: None,
                waker: None,
            }),
            cv: Condvar::new(),
        })
    }
}

/// The server's side of a handle: resolves the slot exactly once
/// (first write wins, later writes are dropped).
pub(crate) struct Resolver {
    slot: Arc<Slot>,
}

impl Resolver {
    /// Resolves the handle; returns `false` if it was already resolved.
    pub(crate) fn resolve(&self, completion: Completion) -> bool {
        let mut state = sync::lock(&self.slot.state);
        if state.value.is_some() {
            return false;
        }
        state.value = Some(completion);
        let waker = state.waker.take();
        drop(state);
        self.slot.cv.notify_all();
        if let Some(w) = waker {
            w.wake();
        }
        true
    }
}

/// A pending job's completion handle. Await it (`JobHandle` implements
/// [`Future`]) or block on [`JobHandle::wait`]; either yields the job's
/// [`Completion`] exactly once.
pub struct JobHandle {
    id: u64,
    slot: Arc<Slot>,
}

/// Creates a connected handle/resolver pair for job `id`.
pub(crate) fn oneshot(id: u64) -> (JobHandle, Resolver) {
    let slot = Slot::new();
    (
        JobHandle {
            id,
            slot: Arc::clone(&slot),
        },
        Resolver { slot },
    )
}

/// Creates a handle already resolved with `completion` (used when the
/// result arrived before the handle could be registered, and for
/// synchronous rejections inside a stream).
pub(crate) fn resolved(id: u64, completion: Completion) -> JobHandle {
    let (handle, resolver) = oneshot(id);
    resolver.resolve(completion);
    handle
}

impl JobHandle {
    /// The runtime job id this handle tracks (`u64::MAX` for a handle
    /// representing a rejected stream member that never got an id).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Whether the completion has already arrived.
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

/// Ordered streaming results of a [`crate::Client::submit_stream`] call:
/// yields each member's completion *in submission order*, blocking only
/// until the member at the front resolves — later members resolving
/// early are buffered in their handles.
pub struct ResultStream {
    handles: VecDeque<JobHandle>,
}

impl ResultStream {
    /// Builds a stream over arbitrary handles, yielding in the given
    /// order. Pipeline frontends use this to stream batched inference
    /// results from each request chain's final member.
    pub fn new(handles: Vec<JobHandle>) -> ResultStream {
        ResultStream {
            handles: handles.into(),
        }
    }

    /// Members not yet yielded.
    pub fn remaining(&self) -> usize {
        self.handles.len()
    }

    /// Blocks until the next member (in submission order) resolves;
    /// `None` once every member has been yielded.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Completion> {
        self.handles.pop_front().map(JobHandle::wait)
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

    fn done(id: u64) -> JobDone {
        JobDone {
            job_id: id,
            outputs: vec![("x".into(), vec![id])],
            bank: 0,
            attempt: 0,
            batch: 1,
            verified: false,
        }
    }

    #[test]
    fn wait_blocks_until_resolved() {
        let (handle, resolver) = oneshot(7);
        let t = std::thread::spawn(move || handle.wait());
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(resolver.resolve(Ok(done(7))));
        let got = t.join().unwrap().unwrap();
        assert_eq!(got.job_id, 7);
    }

    #[test]
    fn first_resolution_wins() {
        let (handle, resolver) = oneshot(1);
        assert!(resolver.resolve(Ok(done(1))));
        assert!(!resolver.resolve(Err(ServeError::Lost)));
        assert!(matches!(handle.wait(), Ok(d) if d.job_id == 1));
    }

    #[test]
    fn future_poll_pending_then_ready() {
        let (mut handle, resolver) = oneshot(3);
        let waker = Waker::noop();
        let mut cx = Context::from_waker(waker);
        assert!(Pin::new(&mut handle).poll(&mut cx).is_pending());
        resolver.resolve(Ok(done(3)));
        match Pin::new(&mut handle).poll(&mut cx) {
            Poll::Ready(Ok(d)) => assert_eq!(d.job_id, 3),
            other => panic!("expected ready: {other:?}"),
        }
    }

    #[test]
    fn stream_yields_in_submission_order() {
        let (h0, r0) = oneshot(0);
        let (h1, r1) = oneshot(1);
        // Resolve out of order; the stream still yields 0 then 1.
        r1.resolve(Ok(done(1)));
        r0.resolve(Ok(done(0)));
        let mut stream = ResultStream::new(vec![h0, h1]);
        assert_eq!(stream.remaining(), 2);
        assert_eq!(stream.next().unwrap().unwrap().job_id, 0);
        assert_eq!(stream.next().unwrap().unwrap().job_id, 1);
        assert!(stream.next().is_none());
    }
}
