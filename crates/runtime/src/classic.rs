//! The classic scheduling engine (`SchedMode::Classic`): one scheduler
//! thread feeding supervised worker shards.
//!
//! Every classic session runs the one loop in [`ClassicSched::run`].
//! Device-fault health tracking with its in-flight cap, protection
//! re-dispatch, the watchdog and chaos are layers of that loop which do
//! nothing unless the options configure them, so a default session
//! issues in pure circular-bank order and reports bit-identically across
//! runs and shard counts, while crash recovery — re-placement from the
//! in-flight records — is the same code for every session.
//! The loop also accounts the session live: the ack stage marks each
//! member's attempt final or not and feeds the completion, in issue
//! order, to the replay ([`crate::report`]).

use crate::chaos::ChaosPlan;
use crate::cputime;
use crate::deps::{DepTracker, Released};
use crate::events::{Event, EventTrace};
use crate::exec::{demux, Dispatcher};
use crate::health::{HealthTracker, Transition};
use crate::job::{PimJob, Placement};
use crate::notify::JobNotice;
use crate::options::RuntimeOptions;
use crate::queue::{JobQueue, Pop};
use crate::report::{Reorder, Replay, Retired, SchedProfile, SchedulerOutput};
use crate::sched::{BankScheduler, IssuedBatch, Placer};
use crate::session::{AckMsg, Canceller, Completion, Submission, WorkMsg};
use crate::supervise::{DownCause, PoisonRegistry, Supervisor};
use coruscant_mem::{DbcLocation, MemoryConfig};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// A dispatched-but-unacknowledged attempt. The scheduler keeps it so it
/// can re-route the member jobs if the attempt fails verification or
/// dies with its worker. Holds the members' *individual* programs
/// (pre-splice, shared by `Arc` with the dispatch itself), so an
/// unverified batch re-dispatches each member separately.
struct InflightRec {
    jobs: Vec<PimJob>,
    /// Worker shard the dispatch went to.
    shard: usize,
    /// Bank the dispatch targets (for in-flight cap accounting).
    bank: usize,
    /// When the worker's `Started` heartbeat arrived (watchdog anchor);
    /// `None` until then — a dispatch still queued behind other work
    /// cannot be hung.
    started: Option<Instant>,
    /// Watchdog wall-clock budget for this dispatch.
    budget: Duration,
}

/// Everything the classic scheduler thread needs at spawn, besides the
/// session's [`RuntimeOptions`].
pub(crate) struct ClassicCtx {
    pub config: MemoryConfig,
    /// Worker shards (`options.shards` clamped to the bank count).
    pub shards: usize,
    pub queue: Arc<JobQueue<Submission>>,
    pub supervisor: Arc<Supervisor<WorkMsg>>,
    pub ack_rx: mpsc::Receiver<AckMsg>,
    pub trace: Option<Arc<EventTrace>>,
    pub canceller: Canceller,
    /// Shared id counter, for re-materialization jobs the scheduler
    /// originates itself.
    pub next_id: Arc<AtomicU64>,
    pub poison: Option<Arc<PoisonRegistry>>,
    pub retired: Retired,
}

/// The classic scheduler's state.
pub(crate) struct ClassicSched {
    ctx: ClassicCtx,
    options: Arc<RuntimeOptions>,
    /// Whether a fault plan or protection policy is configured. Bank
    /// health is tracked, and the in-flight cap gates issue, only then.
    fault_aware: bool,
    /// The active chaos plan, if any.
    chaos: Option<ChaosPlan>,
    disp: Dispatcher,
    placer: Placer,
    sched: BankScheduler,
    health: HealthTracker,
    /// Jobs cleared for placement (admitted or released by a retirement).
    ready: VecDeque<PimJob>,
    inflight: HashMap<u64, InflightRec>,
    inflight_per_bank: Vec<usize>,
    /// Armed, once supervision is dirty, the first time the drain blocks.
    drain_deadline: Option<Instant>,
    /// Scrub passes awaiting an ack, per shard (zeroed when the shard
    /// goes down — its queued scrubs died with it).
    scrubs_outstanding: Vec<usize>,
    deps: DepTracker,
    /// Residency id → (hosting unit, pin job kept for re-materialization
    /// after quarantine).
    residents: HashMap<u64, (DbcLocation, PimJob)>,
    /// Every seq the bank scheduler hands out settles here exactly once —
    /// acked, or skipped (`None`) the moment it is known to produce no
    /// completion — and what the watermark passes goes to `replay`.
    reorder: Reorder<Completion>,
    replay: Replay,
    /// What the thread hands back, accumulated as the session runs: the
    /// counters kept here directly (`cascaded` counts jobs dropped for
    /// an unknown residency until `run` adds the dependency cascades;
    /// the profile's stage times are thread-CPU micros, so blocked pops
    /// charge nothing), the rest filled in when `run` returns.
    out: SchedulerOutput,
}

impl ClassicSched {
    pub(crate) fn new(ctx: ClassicCtx, options: Arc<RuntimeOptions>) -> ClassicSched {
        let disp = Dispatcher::new(&ctx.config, &options, ctx.trace.clone());
        let (banks, shards) = (ctx.config.banks, ctx.shards);
        ClassicSched {
            fault_aware: options.fault_aware(),
            chaos: options.active_chaos(),
            placer: Placer::new(&ctx.config, options.dispatch, |_| true),
            disp,
            sched: BankScheduler::new(banks).with_policy(options.issue_policy),
            health: HealthTracker::new(banks, options.health),
            ready: VecDeque::new(),
            inflight: HashMap::new(),
            inflight_per_bank: vec![0; banks],
            drain_deadline: None,
            scrubs_outstanding: vec![0; shards],
            deps: DepTracker::new(),
            residents: HashMap::new(),
            reorder: Reorder::new(),
            replay: Replay::new(&ctx.config, ctx.trace.clone(), Arc::clone(&ctx.retired)),
            out: SchedulerOutput {
                profile: SchedProfile {
                    per_shard_issued: vec![0; shards],
                    per_shard_jobs: vec![0; shards],
                    ..SchedProfile::default()
                },
                ..SchedulerOutput::default()
            },
            ctx,
            options,
        }
    }

    /// Whether any shard may be down. A shard only goes down after a
    /// caught panic or a hung attempt, so until one happens the
    /// supervisor's lock stays off the placement and issue paths.
    fn shards_touched(&self) -> bool {
        self.out.supervision.hung_attempts > 0 || self.ctx.supervisor.counters().0 > 0
    }

    /// Whether any shard is down right now.
    fn any_shard_down(&self) -> bool {
        self.shards_touched() && self.ctx.supervisor.any_down()
    }

    /// The next PIM unit in circular order, skipping quarantined banks,
    /// banks owned by a down worker shard, and `avoid` (when
    /// alternatives exist).
    fn pick_unit(&mut self, avoid: Option<usize>) -> DbcLocation {
        // One lock for the whole scan instead of one per candidate.
        let shards_dirty = self.any_shard_down();
        let (health, supervisor, shards) = (&self.health, &self.ctx.supervisor, self.ctx.shards);
        self.placer.pick(avoid, |unit| {
            health.is_quarantined(unit.bank)
                || (shards_dirty && supervisor.is_down(unit.bank % shards))
        })
    }

    /// The unit `placement` names, or the next healthy unit if it names
    /// none or one on a quarantined bank ([`Placement::Fixed`] alone is
    /// not quarantine-aware).
    fn resolve(&mut self, placement: Placement) -> DbcLocation {
        let health = &self.health;
        self.placer
            .named(placement, |unit| health.is_quarantined(unit.bank))
            .unwrap_or_else(|| self.pick_unit(None))
    }

    /// Resolves a job's placement and queues it, beside the unit, on the
    /// unit's bank.
    fn place(&mut self, job: PimJob) {
        let unit = match job.placement {
            // The residency map is kept current by re-materialization
            // (quarantine moves residents before re-placing their
            // dependents), so the hosting unit is always usable here.
            Placement::Resident(res) => match self.residents.get(&res) {
                Some((unit, _)) => *unit,
                None => {
                    // Unknown residency: the job can never run.
                    self.out.cascaded += 1;
                    self.ctx.canceller.drop_cascaded(job.id);
                    self.finalize(job.id, true, &[]);
                    return;
                }
            },
            placement => self.resolve(placement),
        };
        self.sched.enqueue(job, unit);
    }

    /// Records a job's final attempt with the dependency tracker and
    /// handles whatever that set free.
    fn finalize(&mut self, id: u64, errored: bool, outputs: &[(String, Vec<u64>)]) {
        self.ctx.canceller.retire(id);
        let rel = self.deps.on_final(id, errored, outputs);
        if let Some(trace) = &self.ctx.trace {
            for job in &rel.ready {
                trace.record(&Event::Released { job: job.id });
            }
        }
        self.process_released(rel);
    }

    /// Released jobs join the ready list; cascade-failed jobs report as
    /// cancelled.
    fn process_released(&mut self, rel: Released) {
        for id in rel.failed {
            self.ctx.canceller.drop_cascaded(id);
        }
        self.ready.extend(rel.ready);
    }

    /// Admits one submission from the queue (a chaos plan may inject a
    /// deterministic, seed-keyed delay here): independent jobs go
    /// straight to the ready list, chains through the dependency
    /// tracker, pins register their residency before their load job
    /// places.
    fn admit(&mut self, submission: Submission) {
        if let Some(plan) = self.chaos {
            if let Submission::Job(job) | Submission::Pin { job, .. } = &submission {
                plan.admit_delay(job.id);
            }
        }
        match submission {
            Submission::Job(job) => self.ready.push_back(job),
            Submission::Chain(chain) => {
                if let [first, .., last] = &chain[..] {
                    self.replay.open_chain(first.id, last.id);
                }
                let rel = self.deps.admit(chain);
                self.process_released(rel);
            }
            Submission::Pin { res, unit_idx, job } => {
                let unit = self.resolve(Placement::Unit(unit_idx));
                self.residents.insert(res, (unit, job.clone()));
                self.out.pins += 1;
                if let Some(trace) = &self.ctx.trace {
                    trace.record(&Event::ResidentPinned {
                        res,
                        job: job.id,
                        bank: unit.bank,
                    });
                }
                self.ready.push_back(job);
            }
        }
    }

    /// Places everything on the ready list, dropping jobs cancelled
    /// while they waited (which can cascade and release more).
    fn place_ready(&mut self) {
        // A cancellation that lands mid-pass is caught at issue time.
        let armed = self.ctx.canceller.armed();
        while let Some(job) = self.ready.pop_front() {
            if armed && self.ctx.canceller.drop_if_cancelled(job.id) {
                self.finalize(job.id, true, &[]);
                continue;
            }
            self.place(job);
        }
    }

    /// Moves every residency off a quarantined bank: each one gets a
    /// fresh re-materialization job that re-runs its pin program on a
    /// healthy unit. Called *before* the bank's FIFO is drained and
    /// re-placed, so per-bank FIFO order guarantees the weights reload
    /// before any dependent job runs on the new bank.
    fn rematerialize_off(&mut self, bank: usize) {
        let mut moved: Vec<u64> = self
            .residents
            .iter()
            .filter(|(_, (unit, _))| unit.bank == bank)
            .map(|(res, _)| *res)
            .collect();
        moved.sort_unstable();
        for res in moved {
            let unit = self.pick_unit(Some(bank));
            let id = self.ctx.next_id.fetch_add(1, Ordering::Relaxed);
            self.out.remats += 1;
            if let Some(trace) = &self.ctx.trace {
                trace.record(&Event::Rematerialized {
                    res,
                    job: id,
                    from_bank: bank,
                    to_bank: unit.bank,
                });
            }
            let (hosting, pin) = self.residents.get_mut(&res).expect("collected above");
            *hosting = unit;
            let job = PimJob { id, ..pin.clone() };
            self.sched.enqueue(job, unit);
        }
    }

    /// Issues every queued dispatch whose worker shard is up (work for a
    /// down shard stays queued until the replacement worker runs) and —
    /// when device faults are configured — whose bank is below the
    /// in-flight cap. Everything else issues in circular-bank order as
    /// soon as it is placed, so same-bank work stays ordered by its
    /// shard's channel and issue order never depends on ack timing.
    fn issue_ready(&mut self) {
        let cap = if self.fault_aware {
            self.options.health.max_inflight_per_bank
        } else {
            usize::MAX
        };
        let max_jobs = self.options.batch.cap();
        let grouping = self.options.batch.grouping;
        // Snapshot of down shards (empty: none), stable for the scan; a
        // shard that goes down mid-scan is caught on the next pass.
        let down: Vec<bool> = if self.any_shard_down() {
            (0..self.ctx.shards)
                .map(|s| self.ctx.supervisor.is_down(s))
                .collect()
        } else {
            Vec::new()
        };
        while let Some(mut issue) =
            self.sched
                .issue_next_batch_grouped(max_jobs, grouping, |bank| {
                    self.inflight_per_bank[bank] < cap
                        && down.get(bank % self.ctx.shards) != Some(&true)
                })
        {
            for id in self.ctx.canceller.filter_issue(&mut issue.jobs) {
                self.finalize(id, true, &[]);
            }
            // With every member dropped nothing dispatches, and nothing
            // counts toward `issued` or the bank's in-flight cap; the seq
            // is spent all the same.
            if issue.jobs.is_empty() {
                self.reorder
                    .settle(issue.seq, None, |c| self.replay.push(c));
            } else {
                self.dispatch_issue(issue);
            }
        }
    }

    /// Sends one issued dispatch to its shard and records it in flight.
    fn dispatch_issue(&mut self, issue: IssuedBatch) {
        let bank = issue.unit.bank;
        let shard = bank % self.ctx.shards;
        let dispatch = self.disp.prepare(&issue, shard);
        let IssuedBatch { seq, jobs, .. } = issue;
        self.out.profile.per_shard_issued[shard] += 1;
        self.out.profile.per_shard_jobs[shard] += jobs.len() as u64;
        self.inflight_per_bank[bank] += 1;
        let steps = dispatch.program.steps.len() as u64;
        let budget = self.options.watchdog.budget(steps);
        // A send that finds the worker already dead is dropped: its
        // shard-down report re-places the dispatch from the record below.
        self.ctx
            .supervisor
            .send(shard, WorkMsg::Job { seq, dispatch });
        self.inflight.insert(
            seq,
            InflightRec {
                jobs,
                shard,
                bank,
                started: None,
                budget,
            },
        );
    }

    /// Processes one worker acknowledgement.
    fn handle_ack(&mut self, ack: AckMsg) {
        match ack {
            AckMsg::Started { seq } => {
                if let Some(rec) = self.inflight.get_mut(&seq) {
                    rec.started = Some(Instant::now());
                }
            }
            AckMsg::ShardDown {
                shard,
                generation,
                panicked_seq,
            } => self.shard_down(shard, generation, DownCause::Panic, panicked_seq),
            AckMsg::Scrub { bank, outcome } => {
                let shard = bank % self.ctx.shards;
                // Saturating: the counter was zeroed if the shard went
                // down while this scrub was in flight.
                self.scrubs_outstanding[shard] = self.scrubs_outstanding[shard].saturating_sub(1);
                self.out.scrubs += 1;
                self.out.scrub_total.merge(outcome);
                if let Some(trace) = &self.ctx.trace {
                    trace.record(&Event::Scrub {
                        bank,
                        realigned: outcome.realigned,
                        repaired: outcome.repaired,
                    });
                }
            }
            AckMsg::Job(mut done) => {
                let Some(rec) = self.inflight.remove(&done.seq) else {
                    // A detached (hung, since replaced) worker finally
                    // reported; its attempt was already re-routed and its
                    // seq skipped.
                    self.out.supervision.stale_acks += 1;
                    return;
                };
                let bank = done.unit.bank;
                let errored = done.out.error.is_some();
                self.inflight_per_bank[bank] -= 1;
                if self.fault_aware {
                    let faults = done.out.faults_detected + u64::from(errored);
                    self.record_health(bank, faults, &rec.jobs);
                }
                // Per-member finality: a member re-dispatches if the
                // dispatch failed verification and it has attempts left;
                // otherwise this ack was its final attempt — the one the
                // replay reports — and its gate (if any dependent waits)
                // resolves now. Members and slots are in the same order.
                let redispatch = !done.out.verified && self.options.protection.is_active();
                let slots = demux(&mut done.slots, &done.out.outputs);
                for (member, (slot, outputs)) in rec.jobs.into_iter().zip(slots) {
                    let id = member.id;
                    slot.last = !(redispatch && self.redispatch(member, bank));
                    if slot.last {
                        self.finalize(id, errored, outputs);
                    }
                }
                self.reorder
                    .settle(done.seq, Some(done), |c| self.replay.push(c));
            }
        }
    }

    /// Bank-health accounting for one acknowledged dispatch, and the
    /// state transitions it triggers: a scrub pass for a suspect bank,
    /// drain and re-route for a quarantined one.
    fn record_health(&mut self, bank: usize, faults: u64, jobs: &[PimJob]) {
        let faulty = faults > 0;
        if faulty {
            if let Some(trace) = &self.ctx.trace {
                for job in jobs {
                    trace.record(&Event::FaultDetected {
                        job: job.id,
                        bank,
                        attempt: self.disp.attempt_of(job.id),
                        faults,
                    });
                }
            }
        }
        match self.health.record(bank, faulty) {
            Transition::Suspect(score) => {
                if let Some(trace) = &self.ctx.trace {
                    trace.record(&Event::BankSuspect { bank, score });
                }
                if self.options.health.scrub_on_suspect {
                    let shard = bank % self.ctx.shards;
                    // A down shard gets no scrub: the suspicion will
                    // recur if the bank still misbehaves.
                    if !self.ctx.supervisor.is_down(shard) {
                        self.scrubs_outstanding[shard] += 1;
                        self.ctx.supervisor.send(shard, WorkMsg::Scrub { bank });
                    }
                }
            }
            Transition::Quarantined(score) => {
                if let Some(trace) = &self.ctx.trace {
                    trace.record(&Event::BankQuarantined { bank, score });
                }
                // Residencies leave first: their re-materialization jobs
                // enqueue on the new banks ahead of any re-routed
                // dependent (per-bank FIFO order).
                self.rematerialize_off(bank);
                // Re-route the quarantined bank's backlog; only
                // explicitly pinned jobs stay.
                for queued in self.sched.drain_bank(bank) {
                    self.place(queued);
                }
            }
            Transition::None | Transition::Recovered => {}
        }
    }

    /// Re-routes one member of an unverified dispatch away from `bank`,
    /// if it has re-dispatch budget left and is not pinned by
    /// [`Placement::Fixed`]. Members re-route individually —
    /// re-executions never re-batch with the same partners, which bounds
    /// correlated failure — and resident members follow their residency
    /// instead of picking a fresh unit.
    fn redispatch(&mut self, member: PimJob, bank: usize) -> bool {
        if matches!(member.placement, Placement::Fixed(_))
            || !self
                .disp
                .take_redispatch(member.id, self.options.health.max_redispatch)
        {
            return false;
        }
        self.out.redispatches += 1;
        let unit = match member.placement {
            Placement::Resident(res) => {
                self.residents
                    .get(&res)
                    .expect("placed resident jobs have a residency")
                    .0
            }
            _ => self.pick_unit(Some(bank)),
        };
        if let Some(trace) = &self.ctx.trace {
            trace.record(&Event::Redispatch {
                job: member.id,
                from_bank: bank,
                to_bank: unit.bank,
                attempt: self.disp.attempt_of(member.id),
            });
        }
        self.sched.enqueue(member, unit);
        true
    }

    /// Total scrub passes still awaiting an ack across live shards.
    fn scrubs_pending(&self) -> usize {
        self.scrubs_outstanding.iter().sum()
    }

    /// Whether supervision has anything that could wedge the drain: a
    /// caught panic, a hung attempt, or an active chaos plan (which can
    /// stall workers without either counter moving yet). While clean,
    /// the drain waits on acks alone, with no deadline.
    fn dirty(&self) -> bool {
        self.chaos.is_some() || self.shards_touched()
    }

    /// How long the loop may sleep when only an external event — a
    /// submission or a worker ack, both of which wake it — can make
    /// progress: short while something needs a timer (the watchdog scan,
    /// a pending shard restart, the drain deadline), long otherwise.
    fn idle_wait(&self) -> Duration {
        if self.options.watchdog.enabled || self.dirty() {
            Duration::from_millis(1)
        } else {
            Duration::from_millis(50)
        }
    }

    /// Gives up on one job: final-attempt bookkeeping, an `Abandoned`
    /// notice for live consumers, and an errored finalize so dependents
    /// cascade-cancel.
    fn abandon_job(&mut self, id: u64, hung: bool) {
        self.out.supervision.abandoned_jobs += 1;
        if let Some(tx) = &self.ctx.canceller.notify {
            let _ = tx.send(JobNotice::Abandoned { job_id: id, hung });
        }
        self.finalize(id, true, &[]);
    }

    /// Takes a worker shard down: marks it with the supervisor and
    /// re-routes every in-flight attempt it owned through normal
    /// placement and issue (under a new seq; the old one is skipped).
    /// The attempt that actually crashed or hung burns a crash retry per
    /// member — over budget the member is abandoned; attempts merely
    /// queued behind it re-place for free.
    fn shard_down(
        &mut self,
        shard: usize,
        generation: u64,
        cause: DownCause,
        failed_seq: Option<u64>,
    ) {
        if !self.ctx.supervisor.mark_down(shard, generation, cause) {
            return;
        }
        let hung = matches!(cause, DownCause::Hang);
        if let Some(trace) = &self.ctx.trace {
            trace.record(&Event::ShardDown { shard, hung });
        }
        // Scrubs queued on the shard died with it.
        self.scrubs_outstanding[shard] = 0;
        let mut seqs: Vec<u64> = self
            .inflight
            .iter()
            .filter(|(_, rec)| rec.shard == shard)
            .map(|(&seq, _)| seq)
            .collect();
        seqs.sort_unstable();
        for seq in seqs {
            let rec = self.inflight.remove(&seq).expect("seq collected above");
            self.inflight_per_bank[rec.bank] -= 1;
            self.reorder.settle(seq, None, |c| self.replay.push(c));
            let failed = Some(seq) == failed_seq;
            for member in rec.jobs {
                if !failed
                    || self
                        .disp
                        .take_crash_retry(member.id, self.options.supervise.max_job_retries)
                {
                    self.out.supervision.crash_redispatches += 1;
                    self.place(member);
                } else {
                    self.abandon_job(member.id, hung);
                }
            }
        }
    }

    /// Scans in-flight attempts for watchdog-budget overruns. Each hung
    /// attempt takes its shard down (the stalled worker thread is
    /// detached, a replacement starts immediately) and fingerprints its
    /// member programs into the poison registry.
    fn watchdog_scan(&mut self) {
        if !self.options.watchdog.enabled {
            return;
        }
        let now = Instant::now();
        // Lowest seq first, for deterministic event order.
        while let Some(seq) = self
            .inflight
            .iter()
            .filter(|(_, rec)| {
                rec.started
                    .is_some_and(|at| now.duration_since(at) >= rec.budget)
                    && !self.ctx.supervisor.is_down(rec.shard)
            })
            .map(|(&seq, _)| seq)
            .min()
        {
            let rec = &self.inflight[&seq];
            let (shard, bank) = (rec.shard, rec.bank);
            let budget_us = rec.budget.as_micros() as u64;
            self.out.supervision.hung_attempts += 1;
            for job in &rec.jobs {
                if let Some(trace) = &self.ctx.trace {
                    trace.record(&Event::AttemptHung {
                        job: job.id,
                        bank,
                        attempt: self.disp.attempt_of(job.id),
                        budget_us,
                    });
                }
                if let Some(poison) = &self.ctx.poison {
                    let fingerprint = job.key();
                    let (strikes, crossed) = poison.strike(fingerprint);
                    if crossed {
                        self.out.supervision.quarantined_programs += 1;
                        if let Some(trace) = &self.ctx.trace {
                            trace.record(&Event::PoisonQuarantine {
                                fingerprint,
                                strikes,
                            });
                        }
                    }
                }
            }
            let generation = self.ctx.supervisor.generation(shard);
            self.shard_down(shard, generation, DownCause::Hang, Some(seq));
        }
    }

    /// Drain-deadline expiry: everything still queued or in flight will
    /// never complete. Abandon it all so `finish` can report.
    fn abandon_all(&mut self) {
        let mut seqs: Vec<u64> = self.inflight.keys().copied().collect();
        seqs.sort_unstable();
        for seq in seqs {
            let rec = self.inflight.remove(&seq).expect("seq collected above");
            self.inflight_per_bank[rec.bank] -= 1;
            self.reorder.settle(seq, None, |c| self.replay.push(c));
            for member in rec.jobs {
                self.abandon_job(member.id, false);
            }
        }
        // Abandoning can only cascade-fail dependents (errored finals
        // release nothing), but drain defensively until quiescent.
        while self.sched.pending() > 0 {
            for bank in 0..self.inflight_per_bank.len() {
                for queued in self.sched.drain_bank(bank) {
                    self.abandon_job(queued.id, false);
                }
            }
        }
        self.scrubs_outstanding.fill(0);
    }

    /// Waits for one more ack while the closed session drains. Returns
    /// `false` when none can be waited for any longer: the workers are
    /// gone, or supervision is dirty and the drain deadline has passed —
    /// so a dead or stalled shard can never wedge [`Runtime::finish`]
    /// past it. While clean there is no deadline: every outstanding
    /// dispatch will be acknowledged.
    ///
    /// [`Runtime::finish`]: crate::Runtime::finish
    fn drain_wait(&mut self) -> bool {
        if self.dirty() {
            let deadline = *self
                .drain_deadline
                .get_or_insert_with(|| Instant::now() + self.options.supervise.drain_deadline());
            if Instant::now() >= deadline {
                return false;
            }
        }
        match self.ctx.ack_rx.recv_timeout(self.idle_wait()) {
            Ok(ack) => self.handle_ack(ack),
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => return false,
        }
        true
    }

    /// The scheduler thread's body: runs the session to completion and
    /// hands back its counters and the replay it drove.
    pub(crate) fn run(mut self) -> (SchedulerOutput, Replay) {
        let queue = Arc::clone(&self.ctx.queue);
        let mut drained: Vec<Submission> = Vec::new();
        let mut closed = false;
        let wall_start = Instant::now();
        // Termination-block CPU rides into the next pop lap.
        let mut clock = cputime::StageClock::start();
        // Kick-counter snapshot for event-driven pops: workers kick the
        // queue after every ack, and a pop observing a kick newer than
        // this snapshot returns immediately instead of riding out its
        // timeout.
        let mut seen_kicks = queue.kicks();

        loop {
            // 1. Pull newly submitted work. The pop is bounded (never an
            //    unbounded block) and kick-aware: a push or a worker ack
            //    arriving mid-wait wakes it immediately, so the timeout
            //    is only ever ridden out when the session is idle or a
            //    timer is due.
            if !closed {
                match queue.pop_kicked(self.idle_wait(), seen_kicks) {
                    Pop::Item(first) => {
                        drained.push(first);
                        queue.drain_ready(&mut drained);
                    }
                    Pop::Timeout => {}
                    Pop::Closed => closed = true,
                }
            }
            self.out.profile.pop_micros += clock.lap();

            // 2. Admit submissions onto the ready list.
            for submission in drained.drain(..) {
                self.admit(submission);
            }
            self.out.profile.admit_micros += clock.lap();

            // 3. Process every acknowledgement already available, scan
            //    for hung attempts, and bring replacement workers up.
            //    Snapshot the kick counter first: any ack (and kick)
            //    landing after this line wakes the next pop early —
            //    snapshot-then-drain can never lose a wakeup.
            seen_kicks = queue.kicks();
            while let Ok(ack) = self.ctx.ack_rx.try_recv() {
                self.handle_ack(ack);
            }
            self.watchdog_scan();
            if self.shards_touched() {
                for ev in self.ctx.supervisor.poll_restarts() {
                    if let Some(trace) = &self.ctx.trace {
                        trace.record(&Event::ShardRestart {
                            shard: ev.shard,
                            restarts: ev.restarts,
                        });
                    }
                }
            }
            self.out.profile.ack_micros += clock.lap();

            // 4+5. Place and issue until nothing new is released
            //      (dropping a cancelled or expired job can cascade and
            //      release more work).
            loop {
                self.place_ready();
                self.out.profile.place_micros += clock.lap();
                self.issue_ready();
                self.out.profile.dispatch_micros += clock.lap();
                if self.ready.is_empty() {
                    break;
                }
            }

            // 6. Termination, once the queue is closed: drain acks to
            //    the last gate, then fail any unsatisfiable tail.
            if !closed {
                continue;
            }
            if self.sched.pending() > 0 || !self.inflight.is_empty() {
                // Progress now requires an ack (a completion that frees
                // a bank slot, resolves a gate or triggers re-dispatch)
                // or a restart bringing a shard's queued work back.
                if !self.drain_wait() {
                    self.abandon_all();
                }
            } else if !self.deps.is_empty() {
                // Every dependency that could retire has; the rest can
                // never run (e.g. gated on an id never submitted, or the
                // queue closed mid-chain). Failing them only cascades
                // (it releases nothing), then the loop re-evaluates.
                let rel = self.deps.fail_all();
                self.process_released(rel);
            } else {
                // Only background scrubs can still be outstanding.
                while self.scrubs_pending() > 0 && self.drain_wait() {}
                break;
            }
        }

        self.out.profile.wall_micros = wall_start.elapsed().as_micros() as u64;
        (self.out.splice_hits, self.out.splice_misses) = self.disp.splice_counts();
        let out = SchedulerOutput {
            depth_hist: self.sched.depth_histogram().clone(),
            issued: self.disp.issued,
            batches: self.disp.batches,
            batched_jobs: self.disp.batched_jobs,
            cancelled: self.ctx.canceller.cancelled,
            expired: self.ctx.canceller.expired,
            suspect_banks: self.health.suspect_count(),
            quarantined_banks: self.health.quarantined_count(),
            degraded_capacity: self.health.degraded_capacity(),
            deferred: self.deps.deferred,
            released: self.deps.released,
            cascaded: self.deps.cascade_cancelled + self.out.cascaded,
            ..self.out
        };
        (out, self.replay)
    }
}
