//! A bounded multi-producer job queue with backpressure.
//!
//! Clients submit `PimJob`s through the queue; the
//! scheduler thread drains it. When the queue is full, `JobQueue::push`
//! blocks the submitting client until the scheduler catches up — the
//! backpressure that keeps an open-loop client from buffering unbounded
//! work — while `JobQueue::try_push` refuses instead, for clients that
//! would rather shed load.

use crate::sync;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// A bounded blocking FIFO. `T` is the job type; the queue itself is
/// generic so tests can drive it with plain integers.
#[derive(Debug)]
pub(crate) struct JobQueue<T> {
    inner: Mutex<QueueState<T>>,
    /// Signaled when an item is popped (space available).
    space: Condvar,
    /// Signaled when an item is pushed or the queue closes.
    items: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Monotonic count of [`JobQueue::kick`] calls. A popper that
    /// snapshots this before waiting can tell "an external event fired
    /// while I slept" apart from a plain timeout (see
    /// [`JobQueue::pop_kicked`]).
    kicks: u64,
}

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity (only from `JobQueue::try_push`).
    Full,
    /// The queue was closed; no more work is accepted.
    Closed,
    /// The program's fingerprint is quarantined by the poison registry
    /// (never returned by the queue itself — the runtime's
    /// `try_submit` refuses the job before it reaches the queue).
    Poisoned {
        /// The quarantined structural program fingerprint.
        fingerprint: u64,
    },
}

/// The outcome of a [`JobQueue::pop_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pop<T> {
    /// An item was dequeued.
    Item(T),
    /// The timeout elapsed with the queue still empty (and open).
    Timeout,
    /// The queue is closed and fully drained.
    Closed,
}

impl<T> JobQueue<T> {
    /// Creates a queue holding at most `capacity` pending jobs.
    pub(crate) fn new(capacity: usize) -> JobQueue<T> {
        assert!(capacity > 0, "queue capacity must be positive");
        JobQueue {
            inner: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
                kicks: 0,
            }),
            space: Condvar::new(),
            items: Condvar::new(),
            capacity,
        }
    }

    /// The configured capacity.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Locks the queue state, recovering from poison: a client that
    /// panics mid-push must not wedge the scheduler (or every other
    /// client) behind a poisoned mutex.
    fn state(&self) -> MutexGuard<'_, QueueState<T>> {
        sync::lock(&self.inner)
    }

    /// Current queue depth.
    pub(crate) fn len(&self) -> usize {
        self.state().items.len()
    }

    /// Whether the queue is currently empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues a job, blocking while the queue is full (backpressure).
    ///
    /// # Errors
    ///
    /// Returns [`PushError::Closed`] if the queue has been closed.
    pub(crate) fn push(&self, item: T) -> Result<(), PushError> {
        let mut state = self.state();
        loop {
            if state.closed {
                return Err(PushError::Closed);
            }
            if state.items.len() < self.capacity {
                state.items.push_back(item);
                self.items.notify_one();
                return Ok(());
            }
            state = sync::wait(&self.space, state);
        }
    }

    /// Enqueues a job without blocking.
    ///
    /// # Errors
    ///
    /// Returns [`PushError::Full`] at capacity, [`PushError::Closed`]
    /// after close.
    pub(crate) fn try_push(&self, item: T) -> Result<(), PushError> {
        let mut state = self.state();
        if state.closed {
            return Err(PushError::Closed);
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full);
        }
        state.items.push_back(item);
        self.items.notify_one();
        Ok(())
    }

    /// Dequeues with a bounded wait: blocks at most `timeout` while the
    /// queue is empty. The parallel domains pop their injectors this way,
    /// so an idle domain comes back to look for work to steal.
    pub(crate) fn pop_timeout(&self, timeout: Duration) -> Pop<T> {
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self.state();
        loop {
            if let Some(item) = state.items.pop_front() {
                self.space.notify_one();
                return Pop::Item(item);
            }
            if state.closed {
                return Pop::Closed;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return Pop::Timeout;
            }
            state = sync::wait_timeout(&self.items, state, deadline - now);
        }
    }

    /// The current kick count. Snapshot this *before* processing
    /// external events (worker acks), then pass it to
    /// [`JobQueue::pop_kicked`]: any kick after the snapshot wakes the
    /// pop early, and any kick before it means the event was already
    /// visible to that processing pass — no wakeup is ever lost.
    pub(crate) fn kicks(&self) -> u64 {
        self.state().kicks
    }

    /// Signals poppers that an external event (not a push) needs
    /// attention — workers kick after sending a completion ack so the
    /// scheduler's bounded pop returns immediately instead of sleeping
    /// out its timeout.
    pub(crate) fn kick(&self) {
        let mut state = self.state();
        state.kicks = state.kicks.wrapping_add(1);
        drop(state);
        self.items.notify_all();
    }

    /// Like [`JobQueue::pop_timeout`], but also returns (with
    /// [`Pop::Timeout`]) as soon as the kick count moves past
    /// `seen_kicks` — the event-driven wait that replaces fixed-interval
    /// polling in the scheduler loop.
    pub(crate) fn pop_kicked(&self, timeout: Duration, seen_kicks: u64) -> Pop<T> {
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self.state();
        loop {
            if let Some(item) = state.items.pop_front() {
                self.space.notify_one();
                return Pop::Item(item);
            }
            if state.closed {
                return Pop::Closed;
            }
            if state.kicks != seen_kicks {
                return Pop::Timeout;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return Pop::Timeout;
            }
            state = sync::wait_timeout(&self.items, state, deadline - now);
        }
    }

    /// Removes up to `max` queued items matching `pred` (front first,
    /// preserving the relative order of everything left behind) and
    /// appends them to `into`. Returns how many were taken. The parallel
    /// scheduler's work-stealing uses this to lift steal-eligible
    /// submissions out of a sibling domain's injector without disturbing
    /// pinned work.
    pub(crate) fn steal_matching<F: Fn(&T) -> bool>(
        &self,
        pred: F,
        max: usize,
        into: &mut Vec<T>,
    ) -> usize {
        if max == 0 {
            return 0;
        }
        let mut state = self.state();
        let mut taken = 0;
        let mut idx = 0;
        while idx < state.items.len() && taken < max {
            if pred(&state.items[idx]) {
                let item = state.items.remove(idx).expect("index bounds checked");
                into.push(item);
                taken += 1;
            } else {
                idx += 1;
            }
        }
        if taken > 0 {
            self.space.notify_all();
        }
        taken
    }

    /// Dequeues every job currently available without blocking (the
    /// scheduler uses this to batch a burst into its bank FIFOs).
    pub(crate) fn drain_ready(&self, into: &mut Vec<T>) {
        let mut state = self.state();
        let had = !state.items.is_empty();
        into.extend(state.items.drain(..));
        if had {
            self.space.notify_all();
        }
    }

    /// Closes the queue: pending jobs still drain, new pushes fail, and
    /// blocked poppers wake up.
    pub(crate) fn close(&self) {
        let mut state = self.state();
        state.closed = true;
        self.items.notify_all();
        self.space.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    /// Long enough that a pop in these tests only returns with an item or
    /// on a closed queue.
    const WAIT: Duration = Duration::from_secs(10);

    #[test]
    fn fifo_order_preserved() {
        let q = JobQueue::new(8);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        assert_eq!(q.len(), 5);
        for i in 0..5 {
            assert_eq!(q.pop_timeout(WAIT), Pop::Item(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn try_push_refuses_when_full() {
        let q = JobQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(PushError::Full));
        q.pop_timeout(WAIT);
        q.try_push(3).unwrap();
    }

    #[test]
    fn closed_queue_rejects_pushes_but_drains() {
        let q = JobQueue::new(4);
        q.push(1).unwrap();
        q.close();
        assert_eq!(q.push(2), Err(PushError::Closed));
        assert_eq!(q.try_push(2), Err(PushError::Closed));
        assert_eq!(q.pop_timeout(WAIT), Pop::Item(1));
        assert_eq!(q.pop_timeout(WAIT), Pop::Closed);
    }

    #[test]
    fn push_blocks_until_space_frees() {
        let q = Arc::new(JobQueue::new(1));
        q.push(10u32).unwrap();
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push(20).unwrap());
        // Give the producer time to block against the full queue.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.len(), 1, "producer is blocked, not enqueued");
        assert_eq!(q.pop_timeout(WAIT), Pop::Item(10));
        producer.join().unwrap();
        assert_eq!(q.pop_timeout(WAIT), Pop::Item(20));
    }

    #[test]
    fn pop_timeout_times_out_then_delivers() {
        let q: JobQueue<u32> = JobQueue::new(4);
        assert_eq!(q.pop_timeout(Duration::from_millis(5)), Pop::Timeout);
        q.push(9).unwrap();
        assert_eq!(q.pop_timeout(Duration::from_millis(5)), Pop::Item(9));
        q.close();
        assert_eq!(q.pop_timeout(Duration::from_millis(5)), Pop::Closed);
    }

    #[test]
    fn pop_timeout_drains_before_reporting_closed() {
        let q = JobQueue::new(4);
        q.push(1).unwrap();
        q.close();
        assert_eq!(q.pop_timeout(Duration::from_millis(5)), Pop::Item(1));
        assert_eq!(q.pop_timeout(Duration::from_millis(5)), Pop::Closed);
    }

    #[test]
    fn kick_wakes_a_bounded_pop_early() {
        let q: Arc<JobQueue<u32>> = Arc::new(JobQueue::new(4));
        let seen = q.kicks();
        let q2 = Arc::clone(&q);
        let kicker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            q2.kick();
        });
        let start = std::time::Instant::now();
        // A plain empty wait would sleep the full 5 s; the kick cuts it.
        assert_eq!(q.pop_kicked(Duration::from_secs(5), seen), Pop::Timeout);
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "kick did not interrupt the wait"
        );
        kicker.join().unwrap();
    }

    #[test]
    fn stale_kick_snapshot_returns_immediately() {
        let q: JobQueue<u32> = JobQueue::new(4);
        q.kick();
        // A snapshot taken before the kick is stale: the pop must not
        // sleep at all (the event it signals may still be unprocessed).
        let start = std::time::Instant::now();
        assert_eq!(q.pop_kicked(Duration::from_secs(5), 0), Pop::Timeout);
        assert!(start.elapsed() < Duration::from_secs(1));
        // A fresh snapshot waits normally and still delivers items.
        let seen = q.kicks();
        q.push(7).unwrap();
        assert_eq!(q.pop_kicked(Duration::from_millis(5), seen), Pop::Item(7));
        q.close();
        assert_eq!(q.pop_kicked(Duration::from_millis(5), seen), Pop::Closed);
    }

    #[test]
    fn steal_matching_takes_only_matching_items_in_order() {
        let q = JobQueue::new(8);
        for i in 0..6 {
            q.push(i).unwrap();
        }
        let mut stolen = Vec::new();
        // Steal up to 2 even items: 0 and 2, leaving order intact.
        assert_eq!(q.steal_matching(|v| v % 2 == 0, 2, &mut stolen), 2);
        assert_eq!(stolen, vec![0, 2]);
        let mut rest = Vec::new();
        q.drain_ready(&mut rest);
        assert_eq!(rest, vec![1, 3, 4, 5]);
        // Nothing matching, nothing taken.
        q.push(9).unwrap();
        assert_eq!(q.steal_matching(|v| *v == 100, 4, &mut stolen), 0);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn drain_ready_takes_everything_available() {
        let q = JobQueue::new(8);
        for i in 0..6 {
            q.push(i).unwrap();
        }
        let mut batch = Vec::new();
        q.drain_ready(&mut batch);
        assert_eq!(batch, vec![0, 1, 2, 3, 4, 5]);
        assert!(q.is_empty());
        // Draining an empty queue is a no-op, not a block.
        q.drain_ready(&mut batch);
        assert_eq!(batch.len(), 6);
    }
}
