//! Supervised executors: shard restart with backoff, the execution
//! watchdog, and the poison-job quarantine.
//!
//! Each worker shard runs under a `Supervisor`. A shard that panics is
//! marked down, the scheduler re-places its in-flight dispatches from
//! its own records, and a replacement worker is spawned after a bounded
//! exponential backoff;
//! a shard whose in-flight attempt exceeds its watchdog budget is
//! replaced immediately (the stalled thread is detached and its late
//! results discarded by sequence number). Programs whose attempts keep
//! hanging are fingerprinted into a `PoisonRegistry`; after
//! [`WatchdogOptions::poison_strikes`] strikes the fingerprint is
//! quarantined and further submissions are refused at admission, so a
//! pathological program cannot take the fleet down twice.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::sync;

/// Shard restart policy and job-level crash-retry bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuperviseOptions {
    /// Times a shard may be restarted before it is retired for the
    /// session. The default never retires — restarts are cheap and a
    /// persistent crasher is bounded by `max_job_retries` per job.
    pub max_restarts: u32,
    /// First restart backoff in milliseconds (doubles per consecutive
    /// restart of the same shard, capped at `backoff_max_ms`).
    pub backoff_base_ms: u64,
    /// Backoff cap in milliseconds.
    pub backoff_max_ms: u64,
    /// Times one job's attempt may be retried after dying with its shard
    /// (panic) or being declared hung, before the job is abandoned with
    /// a typed error. Protection-policy re-dispatch accounting
    /// (`max_redispatch`) is separate and unaffected.
    pub max_job_retries: u32,
    /// Hard deadline for drain: once the session is closing,
    /// `finish()`/`shutdown()` abandon whatever is still unresolved
    /// after this many milliseconds and return.
    pub drain_deadline_ms: u64,
}

impl Default for SuperviseOptions {
    fn default() -> SuperviseOptions {
        SuperviseOptions {
            max_restarts: u32::MAX,
            backoff_base_ms: 10,
            backoff_max_ms: 1000,
            max_job_retries: 2,
            drain_deadline_ms: 5000,
        }
    }
}

impl SuperviseOptions {
    /// The drain deadline as a [`Duration`].
    pub(crate) fn drain_deadline(&self) -> Duration {
        Duration::from_millis(self.drain_deadline_ms)
    }

    pub(crate) fn first_backoff(&self) -> Duration {
        Duration::from_millis(self.backoff_base_ms.min(self.backoff_max_ms))
    }

    pub(crate) fn next_backoff(&self, current: Duration) -> Duration {
        (current * 2).min(Duration::from_millis(self.backoff_max_ms))
    }
}

/// Per-attempt wall-clock budget policy.
///
/// The budget scales with the attempt's modeled work (step count of the
/// dispatched program) so long programs are not misclassified:
/// `budget = (base_ms + per_step_us × steps) × slack_pct / 100`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogOptions {
    /// Master switch. Off by default: the watchdog puts the scheduler
    /// on a ≈1 ms timer to scan in-flight attempts and detaches stalled
    /// threads, which only serves sessions that want hung-attempt
    /// classification.
    pub enabled: bool,
    /// Fixed budget floor in milliseconds.
    pub base_ms: u64,
    /// Budget per program step in microseconds.
    pub per_step_us: u64,
    /// Slack multiplier in percent (400 = 4× the modeled estimate).
    pub slack_pct: u32,
    /// Hung attempts of the same program fingerprint before it is
    /// quarantined at admission ([`RuntimeError::Poisoned`](crate::RuntimeError)).
    pub poison_strikes: u32,
}

impl Default for WatchdogOptions {
    fn default() -> WatchdogOptions {
        WatchdogOptions {
            enabled: false,
            base_ms: 20,
            per_step_us: 50,
            slack_pct: 400,
            poison_strikes: 3,
        }
    }
}

impl WatchdogOptions {
    /// The wall-clock budget of an attempt over a `steps`-step program.
    pub fn budget(&self, steps: u64) -> Duration {
        let us = (self.base_ms * 1000 + self.per_step_us * steps) * u64::from(self.slack_pct) / 100;
        Duration::from_micros(us)
    }
}

/// Software-fault supervision counters of a runtime session (all zero
/// when nothing panicked, stalled, or was quarantined).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SupervisionStats {
    /// Worker panics caught by the supervisor.
    pub panics_caught: u64,
    /// Shard restarts (a panicked or hung shard replaced by a fresh
    /// worker).
    pub shard_restarts: u64,
    /// Shards retired after exhausting their restart budget.
    pub shards_retired: u64,
    /// Dispatches re-dispatched after their shard died (the in-flight
    /// attempt plus queued orphans).
    pub crash_redispatches: u64,
    /// Attempts the watchdog classified as hung.
    pub hung_attempts: u64,
    /// Jobs abandoned with a typed error after exhausting crash/hang
    /// retries (or at the drain deadline).
    pub abandoned_jobs: u64,
    /// Program fingerprints quarantined by the poison registry.
    pub quarantined_programs: u64,
    /// Late acks from replaced workers, discarded by sequence number.
    pub stale_acks: u64,
    /// Worker threads still stalled when the session ended (detached,
    /// never joined).
    pub workers_lost: u64,
}

/// The poison-job quarantine: hung-attempt strikes per program
/// fingerprint, shared between the scheduler (which records strikes) and
/// the submit path (which refuses quarantined fingerprints).
#[derive(Debug)]
pub(crate) struct PoisonRegistry {
    threshold: u32,
    strikes: Mutex<HashMap<u64, u32>>,
}

impl PoisonRegistry {
    /// A registry quarantining after `threshold` strikes (a zero
    /// threshold is clamped to 1 — quarantine on first strike).
    pub(crate) fn new(threshold: u32) -> PoisonRegistry {
        PoisonRegistry {
            threshold: threshold.max(1),
            strikes: Mutex::new(HashMap::new()),
        }
    }

    /// Records one hung attempt of `fingerprint`. Returns the new strike
    /// count and whether this strike crossed the quarantine threshold.
    pub(crate) fn strike(&self, fingerprint: u64) -> (u32, bool) {
        let mut strikes = sync::lock(&self.strikes);
        let count = strikes.entry(fingerprint).or_insert(0);
        *count += 1;
        (*count, *count == self.threshold)
    }

    /// Whether `fingerprint` is refused at admission.
    pub(crate) fn is_quarantined(&self, fingerprint: u64) -> bool {
        sync::lock(&self.strikes)
            .get(&fingerprint)
            .is_some_and(|&s| s >= self.threshold)
    }
}

/// Why a shard went down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DownCause {
    /// The worker thread panicked (it has already exited).
    Panic,
    /// The watchdog declared the in-flight attempt hung (the thread is
    /// still running; it is detached and replaced immediately).
    Hang,
}

/// What one [`Supervisor::poll_restarts`] pass did.
pub(crate) struct RestartEvent {
    pub shard: usize,
    /// Restarts of this shard so far (1 = first restart).
    pub restarts: u32,
}

pub(crate) type Factory<T> =
    Box<dyn Fn(usize, u64) -> (mpsc::Sender<T>, JoinHandle<()>) + Send + Sync>;

enum SlotState {
    Up,
    Down { restart_at: Instant },
    Retired,
}

struct Slot<T> {
    tx: Option<mpsc::Sender<T>>,
    handle: Option<JoinHandle<()>>,
    state: SlotState,
    /// Incarnation counter: workers stamp their reports with it so a
    /// replaced worker's late crash report cannot take down its
    /// replacement.
    generation: u64,
    restarts: u32,
    backoff: Duration,
}

struct Inner<T> {
    slots: Vec<Slot<T>>,
    factory: Option<Factory<T>>,
    /// Handles of replaced workers: exited (panicked) or still stalled.
    detached: Vec<JoinHandle<()>>,
}

/// Owns the worker shards: spawning, routing sends, down/up state, and
/// restart with bounded exponential backoff. Shared by the runtime
/// (spawn/close/join) and its scheduler thread (send/mark_down/poll).
pub(crate) struct Supervisor<T> {
    options: SuperviseOptions,
    inner: Mutex<Inner<T>>,
    panics_caught: AtomicU64,
    restarts: AtomicU64,
    retired: AtomicU64,
}

impl<T: Send + 'static> Supervisor<T> {
    /// Spawns `shards` workers through `factory` and supervises them.
    pub(crate) fn new(
        shards: usize,
        options: SuperviseOptions,
        factory: Factory<T>,
    ) -> Supervisor<T> {
        let slots = (0..shards)
            .map(|shard| {
                let (tx, handle) = factory(shard, 0);
                Slot {
                    tx: Some(tx),
                    handle: Some(handle),
                    state: SlotState::Up,
                    generation: 0,
                    restarts: 0,
                    backoff: options.first_backoff(),
                }
            })
            .collect();
        Supervisor {
            options,
            inner: Mutex::new(Inner {
                slots,
                factory: Some(factory),
                detached: Vec::new(),
            }),
            panics_caught: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            retired: AtomicU64::new(0),
        }
    }

    /// Sends `msg` to `shard`'s worker. A message for a shard that is
    /// down — or whose worker died without having reported yet — is
    /// dropped: the scheduler never issues to a shard it knows is down,
    /// and re-places everything a dead worker owed from its own
    /// in-flight records once the shard-down report arrives.
    pub(crate) fn send(&self, shard: usize, msg: T) {
        if let Some(tx) = &sync::lock(&self.inner).slots[shard].tx {
            let _ = tx.send(msg);
        }
    }

    /// Whether `shard` is currently down or retired.
    pub(crate) fn is_down(&self, shard: usize) -> bool {
        !matches!(sync::lock(&self.inner).slots[shard].state, SlotState::Up)
    }

    /// Whether any shard is down or retired.
    pub(crate) fn any_down(&self) -> bool {
        sync::lock(&self.inner)
            .slots
            .iter()
            .any(|s| !matches!(s.state, SlotState::Up))
    }

    /// The current incarnation of `shard`.
    pub(crate) fn generation(&self, shard: usize) -> u64 {
        sync::lock(&self.inner).slots[shard].generation
    }

    /// Takes `shard` down, to be restarted after its backoff (a panicked
    /// shard) or on the next poll (a hung one, whose thread is detached)
    /// — or retired for good once its restart budget is spent. Returns
    /// `false`, changing nothing, for a stale report: `generation`
    /// names an earlier incarnation, i.e. a late panic from an
    /// already-replaced worker.
    pub(crate) fn mark_down(&self, shard: usize, generation: u64, cause: DownCause) -> bool {
        let mut inner = sync::lock(&self.inner);
        let slot = &mut inner.slots[shard];
        if generation != slot.generation || !matches!(slot.state, SlotState::Up) {
            return false;
        }
        if cause == DownCause::Panic {
            self.panics_caught.fetch_add(1, Ordering::Relaxed);
        }
        slot.tx = None;
        let handle = slot.handle.take();
        if slot.restarts >= self.options.max_restarts {
            slot.state = SlotState::Retired;
            self.retired.fetch_add(1, Ordering::Relaxed);
            if let Some(h) = handle {
                inner.detached.push(h);
            }
            return true;
        }
        let backoff = match cause {
            // A hung shard's capacity is gone until a replacement runs;
            // restart immediately.
            DownCause::Hang => Duration::ZERO,
            DownCause::Panic => slot.backoff,
        };
        slot.state = SlotState::Down {
            restart_at: Instant::now() + backoff,
        };
        slot.backoff = self.options.next_backoff(slot.backoff);
        if let Some(h) = handle {
            inner.detached.push(h);
        }
        true
    }

    /// Restarts every down shard whose backoff has elapsed. Returns what
    /// was restarted (for trace events and stats).
    pub(crate) fn poll_restarts(&self) -> Vec<RestartEvent> {
        let mut inner = sync::lock(&self.inner);
        let Some(factory) = inner.factory.take() else {
            return Vec::new();
        };
        let now = Instant::now();
        let mut events = Vec::new();
        for (shard, slot) in inner.slots.iter_mut().enumerate() {
            let SlotState::Down { restart_at } = slot.state else {
                continue;
            };
            if now < restart_at {
                continue;
            }
            slot.generation += 1;
            slot.restarts += 1;
            let (tx, handle) = factory(shard, slot.generation);
            slot.tx = Some(tx);
            slot.handle = Some(handle);
            slot.state = SlotState::Up;
            self.restarts.fetch_add(1, Ordering::Relaxed);
            events.push(RestartEvent {
                shard,
                restarts: slot.restarts,
            });
        }
        inner.factory = Some(factory);
        events
    }

    /// Stops supervision: drops the factory (no further restarts) and
    /// every live sender so workers drain their channels and exit.
    pub(crate) fn close(&self) {
        let mut inner = sync::lock(&self.inner);
        inner.factory = None;
        for slot in &mut inner.slots {
            slot.tx = None;
        }
    }

    /// Detached worker threads that are still running (stalled).
    #[cfg(test)]
    pub(crate) fn stalled_workers(&self) -> usize {
        sync::lock(&self.inner)
            .detached
            .iter()
            .filter(|h| !h.is_finished())
            .count()
    }

    /// Joins every worker that finishes before `deadline`; threads still
    /// running at the deadline are abandoned. Returns the abandoned
    /// count.
    pub(crate) fn join_all(&self, deadline: Instant) -> u64 {
        let handles: Vec<JoinHandle<()>> = {
            let mut inner = sync::lock(&self.inner);
            let mut handles: Vec<JoinHandle<()>> = inner
                .slots
                .iter_mut()
                .filter_map(|s| s.handle.take())
                .collect();
            handles.append(&mut inner.detached);
            handles
        };
        let mut lost = 0u64;
        for handle in handles {
            let finished = loop {
                if handle.is_finished() {
                    break true;
                }
                if Instant::now() >= deadline {
                    break false;
                }
                std::thread::sleep(Duration::from_millis(1));
            };
            if finished {
                let _ = handle.join();
            } else {
                lost += 1;
                drop(handle); // detach for good — the process outlives it
            }
        }
        lost
    }

    /// `(panics caught, restarts, shards retired)` so far.
    pub(crate) fn counters(&self) -> (u64, u64, u64) {
        (
            self.panics_caught.load(Ordering::Relaxed),
            self.restarts.load(Ordering::Relaxed),
            self.retired.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A factory whose workers echo `msg * 10 + generation` until their
    /// channel closes.
    fn echo_factory(out: mpsc::Sender<u64>) -> Factory<u64> {
        Box::new(move |_, generation| {
            let (tx, rx) = mpsc::channel::<u64>();
            let out = out.clone();
            let handle = std::thread::spawn(move || {
                while let Ok(msg) = rx.recv() {
                    let _ = out.send(msg * 10 + generation);
                }
            });
            (tx, handle)
        })
    }

    #[test]
    fn sends_route_to_live_workers() {
        let (out_tx, out_rx) = mpsc::channel();
        let sup = Supervisor::new(2, SuperviseOptions::default(), echo_factory(out_tx));
        sup.send(0, 1);
        sup.send(1, 2);
        let mut got = vec![out_rx.recv().unwrap(), out_rx.recv().unwrap()];
        got.sort_unstable();
        assert_eq!(got, vec![10, 20]);
        sup.close();
        assert_eq!(sup.join_all(Instant::now() + Duration::from_secs(2)), 0);
    }

    #[test]
    fn restart_after_backoff_stamps_a_new_generation() {
        let (out_tx, out_rx) = mpsc::channel();
        let options = SuperviseOptions {
            backoff_base_ms: 1,
            ..SuperviseOptions::default()
        };
        let sup = Supervisor::new(1, options, echo_factory(out_tx));
        assert!(sup.mark_down(0, 0, DownCause::Panic));
        assert!(sup.is_down(0));
        // A send to the down shard is dropped, not held for the restart.
        sup.send(0, 6);
        std::thread::sleep(Duration::from_millis(5));
        let events = sup.poll_restarts();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].restarts, 1);
        assert!(!sup.is_down(0));
        assert_eq!(sup.generation(0), 1);
        sup.send(0, 7);
        assert_eq!(out_rx.recv_timeout(Duration::from_secs(2)).unwrap(), 71);
        assert_eq!(sup.counters(), (1, 1, 0));
        sup.close();
        sup.join_all(Instant::now() + Duration::from_secs(2));
        assert!(out_rx.try_recv().is_err(), "the dropped send never ran");
    }

    #[test]
    fn stale_generation_reports_are_ignored() {
        let (out_tx, _out_rx) = mpsc::channel();
        let options = SuperviseOptions {
            backoff_base_ms: 0,
            ..SuperviseOptions::default()
        };
        let sup = Supervisor::new(1, options, echo_factory(out_tx));
        assert!(sup.mark_down(0, 0, DownCause::Panic));
        // A second report for the same incarnation is stale, as is any
        // report after the restart bumped the generation.
        assert!(!sup.mark_down(0, 0, DownCause::Panic));
        sup.poll_restarts();
        assert!(!sup.mark_down(0, 0, DownCause::Hang));
        sup.close();
        sup.join_all(Instant::now() + Duration::from_secs(2));
    }

    #[test]
    fn exhausted_restart_budget_retires_the_shard() {
        let (out_tx, _out_rx) = mpsc::channel();
        let options = SuperviseOptions {
            max_restarts: 0,
            ..SuperviseOptions::default()
        };
        let sup = Supervisor::new(1, options, echo_factory(out_tx));
        // max_restarts = 0 retires on the first report.
        assert!(sup.mark_down(0, 0, DownCause::Panic));
        assert!(!sup.mark_down(0, 0, DownCause::Panic));
        assert!(sup.is_down(0));
        assert!(sup.poll_restarts().is_empty(), "retired shards stay down");
        assert_eq!(sup.counters().2, 1);
        sup.close();
        sup.join_all(Instant::now() + Duration::from_secs(2));
    }

    #[test]
    fn stalled_worker_is_detached_and_reported() {
        let gate = Arc::new((Mutex::new(false), std::sync::Condvar::new()));
        let gate2 = Arc::clone(&gate);
        let factory: Factory<u64> = Box::new(move |_, _| {
            let (tx, rx) = mpsc::channel::<u64>();
            let gate = Arc::clone(&gate2);
            let handle = std::thread::spawn(move || {
                while let Ok(msg) = rx.recv() {
                    if msg == 0 {
                        // Stall until released.
                        let mut released = sync::lock(&gate.0);
                        while !*released {
                            released = sync::wait(&gate.1, released);
                        }
                    }
                }
            });
            (tx, handle)
        });
        let sup = Supervisor::new(1, SuperviseOptions::default(), factory);
        sup.send(0, 0);
        std::thread::sleep(Duration::from_millis(10));
        assert!(sup.mark_down(0, 0, DownCause::Hang));
        // Hang restarts need no backoff.
        assert_eq!(sup.poll_restarts().len(), 1);
        assert_eq!(sup.stalled_workers(), 1, "the old thread is detached");
        sup.close();
        // The stalled thread does not finish by the deadline: lost.
        assert_eq!(sup.join_all(Instant::now() + Duration::from_millis(50)), 1);
        // Release it so the test process exits cleanly.
        *sync::lock(&gate.0) = true;
        gate.1.notify_all();
    }

    #[test]
    fn poison_registry_quarantines_after_threshold() {
        let reg = PoisonRegistry::new(3);
        assert!(!reg.is_quarantined(42));
        assert_eq!(reg.strike(42), (1, false));
        assert_eq!(reg.strike(42), (2, false));
        assert_eq!(reg.strike(42), (3, true));
        assert_eq!(reg.strike(42), (4, false), "crossing reports only once");
        assert!(reg.is_quarantined(42));
        assert!(!reg.is_quarantined(7));
        reg.strike(7);
    }

    #[test]
    fn supervision_stats_round_trip_through_json() {
        let stats = SupervisionStats {
            panics_caught: 3,
            shard_restarts: 2,
            shards_retired: 1,
            crash_redispatches: 5,
            hung_attempts: 4,
            abandoned_jobs: 1,
            quarantined_programs: 1,
            stale_acks: 7,
            workers_lost: 1,
        };
        let back: SupervisionStats =
            serde::json::from_str(&serde::json::to_string(&stats)).unwrap();
        assert_eq!(back, stats);
    }

    #[test]
    fn watchdog_budget_scales_with_steps() {
        let wd = WatchdogOptions {
            enabled: true,
            base_ms: 10,
            per_step_us: 100,
            slack_pct: 200,
            poison_strikes: 3,
        };
        // (10ms + 100us*50) * 2 = 30ms.
        assert_eq!(wd.budget(50), Duration::from_millis(30));
        assert!(wd.budget(0) >= Duration::from_millis(20));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let options = SuperviseOptions {
            backoff_base_ms: 10,
            backoff_max_ms: 35,
            ..SuperviseOptions::default()
        };
        let b0 = options.first_backoff();
        let b1 = options.next_backoff(b0);
        let b2 = options.next_backoff(b1);
        assert_eq!(b0, Duration::from_millis(10));
        assert_eq!(b1, Duration::from_millis(20));
        assert_eq!(b2, Duration::from_millis(35), "capped");
    }
}
