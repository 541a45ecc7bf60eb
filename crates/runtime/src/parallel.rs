//! The parallel scheduling engine (`SchedMode::Parallel`): fused
//! scheduler+executor domains with work stealing and merged accounting.

use crate::chaos::ChaosPlan;
use crate::cputime;
use crate::events::{Event, EventTrace};
use crate::exec::{demux, resolve_attempt, Dispatcher, Executor};
use crate::handle::ServeError;
use crate::job::{PimJob, Placement};
use crate::options::{RuntimeError, RuntimeOptions};
use crate::queue::{JobQueue, Pop};
use crate::sched::{BankScheduler, DispatchMode, IssuedBatch, Placer};
use crate::session::{Canceller, Completion, Gate, Submission};
use crate::stats::Histogram;
use crate::{sync, Runtime};
use coruscant_mem::{MemoryConfig, MemoryController};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The parallel scheduling engine's handle-side state: one injector
/// queue, completion ring, and joinable domain thread per shard, plus
/// the submission router's cursor and unit→bank map.
pub(crate) struct ParEngine {
    pub domains: usize,
    pub dispatch: DispatchMode,
    /// Per-domain submission injectors (domain `d` owns `injectors[d]`;
    /// siblings steal `Placement::Auto` entries from it when idle).
    pub injectors: Vec<Arc<JobQueue<Submission>>>,
    /// Per-domain completion rings, merged and replayed by `finish`.
    pub rings: Vec<Arc<Mutex<Vec<Completion>>>>,
    pub handles: Vec<JoinHandle<DomainOutput>>,
    /// Round-robin router cursor for `Placement::Auto` submissions.
    pub route_cursor: AtomicUsize,
    /// Bank of each PIM unit index (routes `Placement::Unit` to the
    /// owning domain).
    pub unit_banks: Vec<usize>,
}

impl ParEngine {
    /// The domain a submission must route to. Placement-pinned jobs go
    /// to the domain owning their bank (they are not stealable);
    /// `Placement::Auto` round-robins across domains and stays stealable.
    pub(crate) fn route(&self, placement: Placement) -> usize {
        match placement {
            Placement::Auto => match self.dispatch {
                DispatchMode::Circular => {
                    self.route_cursor.fetch_add(1, Ordering::Relaxed) % self.domains
                }
                DispatchMode::SingleBank => self.unit_banks[0] % self.domains,
            },
            Placement::Unit(idx) => self.unit_banks[idx % self.unit_banks.len()] % self.domains,
            Placement::Fixed(loc) => loc.bank % self.domains,
            // Unknown residency (pins are rejected under Parallel): any
            // domain drops it as cascaded, exactly like classic.
            Placement::Resident(_) => 0,
        }
    }
}

/// Submissions a domain admits per loop iteration. Bounded so the rest
/// of a burst stays in the injector where idle siblings can steal it.
const ADMIT_CHUNK: usize = 32;
/// Most submissions one steal sweep takes from a sibling's injector.
const STEAL_MAX: usize = 16;
/// Completions buffered domain-locally before flushing to the shared
/// ring (one lock crossing per `RING_FLUSH` dispatches, not per job).
const RING_FLUSH: usize = 64;

/// Everything a parallel scheduling domain thread needs at spawn.
struct DomainCtx {
    domain: usize,
    domains: usize,
    config: MemoryConfig,
    /// All domains' injectors: `injectors[domain]` is this domain's own;
    /// the rest are steal victims.
    injectors: Vec<Arc<JobQueue<Submission>>>,
    /// This domain's completion ring, merged and replayed by `finish`.
    ring: Arc<Mutex<Vec<Completion>>>,
    gate: Arc<Gate>,
    trace: Option<Arc<EventTrace>>,
    canceller: Canceller,
    /// The session's options (`shards`, `sched` and `trace_path` are
    /// already resolved into the fields above).
    options: RuntimeOptions,
}

/// What a domain thread hands back on join: its share of every counter
/// `finish` merges, plus its occupancy profile.
#[derive(Default)]
pub(crate) struct DomainOutput {
    pub domain: usize,
    pub depth_hist: Histogram,
    pub issued: u64,
    pub batches: u64,
    pub batched_jobs: u64,
    pub splice_hits: u64,
    pub splice_misses: u64,
    pub cancelled: u64,
    /// Jobs dropped at issue time because their deadline had passed.
    pub expired: u64,
    pub redispatches: u64,
    /// Jobs dropped for an unknown residency or a defensively rejected
    /// chain/pin (counted with the cascades).
    pub dropped: u64,
    /// Member jobs this domain dispatched (batch members counted
    /// individually).
    pub jobs_done: u64,
    pub steals: u64,
    pub ring_peak: u64,
    pub panics: u64,
    pub crash_redispatches: u64,
    pub abandoned_jobs: u64,
    pub pop_micros: u64,
    pub admit_micros: u64,
    pub place_micros: u64,
    pub dispatch_micros: u64,
    pub ack_micros: u64,
    pub busy_micros: u64,
    pub wall_micros: u64,
}

/// One fused scheduler+executor domain of the parallel engine. Owns the
/// banks `b` with `b % domains == domain`, a strided-seq
/// [`BankScheduler`] over them, and a persistent machine it executes
/// dispatches on inline — completions become function calls, not
/// channel crossings.
struct Domain {
    ctx: DomainCtx,
    disp: Dispatcher,
    exec: Executor,
    /// The active chaos plan, if any (admit-time delays; the executor
    /// holds its own copy for the attempt crossings).
    chaos: Option<ChaosPlan>,
    /// Walks the PIM units on owned banks, in global circular order.
    placer: Placer,
    sched: BankScheduler,
    ring_buf: Vec<Completion>,
    out: DomainOutput,
}

/// Body of one parallel domain thread.
fn domain_loop(ctx: DomainCtx) -> DomainOutput {
    ctx.gate.wait_open();
    let options = &ctx.options;
    let disp = Dispatcher::new(&ctx.config, options, ctx.trace.clone());
    let (domain, domains) = (ctx.domain, ctx.domains);
    let placer = Placer::new(&ctx.config, options.dispatch, |u| {
        u.bank % domains == domain
    });
    let exec = Executor::new(&ctx.config, options);
    // Strided seqs: domain d issues d, d+S, d+2S, … — globally unique,
    // so `finish` restores one total issue order with a plain sort.
    let sched =
        BankScheduler::with_seq_stride(ctx.config.banks, ctx.domain as u64, ctx.domains as u64)
            .with_policy(options.issue_policy);
    let out = DomainOutput {
        domain: ctx.domain,
        ..DomainOutput::default()
    };
    let mut dom = Domain {
        disp,
        exec,
        chaos: options.active_chaos(),
        placer,
        sched,
        ring_buf: Vec::new(),
        out,
        ctx,
    };
    dom.run();
    let mut out = dom.out;
    out.depth_hist = dom.sched.depth_histogram().clone();
    out.issued = dom.disp.issued;
    out.batches = dom.disp.batches;
    out.batched_jobs = dom.disp.batched_jobs;
    (out.splice_hits, out.splice_misses) = dom.disp.splice_counts();
    out.cancelled = dom.ctx.canceller.cancelled;
    out.expired = dom.ctx.canceller.expired;
    out.busy_micros = out.admit_micros + out.place_micros + out.dispatch_micros + out.ack_micros;
    out
}

impl Domain {
    fn run(&mut self) {
        let wall_start = Instant::now();
        let mut clock = cputime::StageClock::start();
        let mut drained: Vec<Submission> = Vec::new();
        let mut ready: Vec<PimJob> = Vec::new();
        let mut closed = false;
        loop {
            // 1. Pop a bounded chunk from our own injector. Bounded, not
            //    a full drain: the remainder stays in the injector where
            //    idle siblings can steal it.
            if !closed {
                let wait = if self.sched.pending() > 0 {
                    Duration::ZERO
                } else {
                    self.idle_wait()
                };
                match self.ctx.injectors[self.ctx.domain].pop_timeout(wait) {
                    Pop::Item(first) => {
                        drained.push(first);
                        while drained.len() < ADMIT_CHUNK {
                            match self.ctx.injectors[self.ctx.domain].pop_timeout(Duration::ZERO) {
                                Pop::Item(s) => drained.push(s),
                                _ => break,
                            }
                        }
                    }
                    Pop::Timeout => {}
                    Pop::Closed => closed = true,
                }
            }
            // 2. Steal when idle: nothing admitted, nothing queued on our
            //    banks. (Also the termination probe: after close, a final
            //    sweep must come up empty before the domain may exit.)
            if drained.is_empty() && self.sched.pending() == 0 {
                self.steal_sweep(&mut drained);
                if closed && drained.is_empty() {
                    break;
                }
            }
            self.out.pop_micros += clock.lap();

            // 3. Admit, with the classic scheduler's admit-time chaos
            //    delay; cancellations are filtered at placement below.
            for submission in drained.drain(..) {
                match submission {
                    Submission::Job(job) => {
                        if let Some(plan) = self.chaos {
                            plan.admit_delay(job.id);
                        }
                        ready.push(job);
                    }
                    // Chains and pins are rejected at submit under
                    // SchedMode::Parallel; drop defensively if one ever
                    // slips through, exactly like an unknown residency.
                    Submission::Chain(chain) => {
                        for gated in chain {
                            self.out.dropped += 1;
                            self.ctx
                                .canceller
                                .drop_cascaded(gated.id, gated.done.as_ref());
                        }
                    }
                    Submission::Pin { job, .. } => {
                        self.out.dropped += 1;
                        self.ctx.canceller.drop_cascaded(job.id, job.done.as_ref());
                    }
                }
            }
            self.out.admit_micros += clock.lap();

            // 4. Place onto owned banks (a cancellation that lands
            //    mid-pass is caught at issue time).
            let armed = self.ctx.canceller.armed();
            for job in ready.drain(..) {
                if armed && self.ctx.canceller.drop_if_cancelled(&job) {
                    continue;
                }
                self.place(job);
            }
            self.out.place_micros += clock.lap();

            // 5. Issue and execute inline until the owned FIFOs drain
            //    (re-dispatches re-enter them and are picked up here).
            let max_jobs = self.ctx.options.batch.cap();
            let grouping = self.ctx.options.batch.grouping;
            while let Some(mut issue) =
                self.sched
                    .issue_next_batch_grouped(max_jobs, grouping, |_| true)
            {
                self.ctx.canceller.filter_issue(&mut issue.jobs);
                if issue.jobs.is_empty() {
                    continue;
                }
                self.execute_dispatch(issue, &mut clock);
            }
        }
        self.flush_ring();
        self.out.wall_micros = wall_start.elapsed().as_micros() as u64;
    }

    /// How long an idle domain's injector pop may sleep: short when a
    /// sibling has stealable backlog (come back fast and take some),
    /// the full classic timeout when the whole engine is quiet.
    fn idle_wait(&self) -> Duration {
        let sibling_backlog = self
            .ctx
            .injectors
            .iter()
            .enumerate()
            .any(|(i, q)| i != self.ctx.domain && !q.is_empty());
        if sibling_backlog {
            Duration::from_millis(1)
        } else {
            Duration::from_millis(50)
        }
    }

    /// Steals up to [`STEAL_MAX`] `Placement::Auto` jobs from the first
    /// sibling injector that has any, re-placing them on our banks.
    fn steal_sweep(&mut self, into: &mut Vec<Submission>) {
        if self.ctx.domains == 1 {
            return;
        }
        for off in 1..self.ctx.domains {
            let victim = (self.ctx.domain + off) % self.ctx.domains;
            let before = into.len();
            let got = self.ctx.injectors[victim].steal_matching(
                |s| matches!(s, Submission::Job(j) if matches!(j.placement, Placement::Auto)),
                STEAL_MAX,
                into,
            );
            if got > 0 {
                self.out.steals += got as u64;
                if let Some(trace) = &self.ctx.trace {
                    let jobs: Vec<u64> = into[before..]
                        .iter()
                        .filter_map(|s| match s {
                            Submission::Job(j) => Some(j.id),
                            _ => None,
                        })
                        .collect();
                    trace.record(&Event::Steal {
                        from: victim,
                        to: self.ctx.domain,
                        jobs,
                    });
                }
                return;
            }
        }
    }

    /// Resolves a job's placement onto this domain's banks and queues it
    /// beside its unit. `Placement::Unit`/`Fixed` jobs were routed here
    /// because their bank is owned; `Auto` jobs (routed or stolen) take
    /// the owned cursor — in single-bank mode too when unit 0 is not
    /// ours, where stealing intentionally spreads them.
    fn place(&mut self, job: PimJob) {
        let (domain, domains) = (self.ctx.domain, self.ctx.domains);
        let unit = match job.placement {
            Placement::Resident(_) => {
                // Pins are rejected under Parallel, so every residency
                // is unknown: drop as cascaded, exactly like classic.
                self.out.dropped += 1;
                self.ctx.canceller.drop_cascaded(job.id, job.done.as_ref());
                return;
            }
            placement => self
                .placer
                .named(placement, |u| u.bank % domains != domain)
                .unwrap_or_else(|| self.placer.pick(None, |_| false)),
        };
        self.sched.enqueue(job, unit);
    }

    /// Executes one issued dispatch inline on the domain's machine and
    /// does what the classic ack path does for it, as function calls:
    /// re-dispatch unverified members, mark every other member's attempt
    /// final and resolve its handle, and push the completion to the ring.
    fn execute_dispatch(&mut self, issue: IssuedBatch, clock: &mut cputime::StageClock) {
        let mut dispatch = self.disp.prepare(&issue, self.ctx.domain);
        let IssuedBatch { seq, jobs, unit } = issue;
        let bank = unit.bank;
        self.out.jobs_done += jobs.len() as u64;
        let executed = self.exec.attempt(&dispatch);
        self.out.dispatch_micros += clock.lap();
        let Ok(out) = executed else {
            // The attempt died exactly as a crashed worker's would have:
            // every member retries on our banks within its budget.
            self.out.panics += 1;
            for job in jobs {
                self.crash_retry_or_abandon(job);
            }
            self.out.ack_micros += clock.lap();
            return;
        };
        let max_redispatch = self.ctx.options.health.max_redispatch;
        let redispatch = self.ctx.options.protection.is_active() && !out.verified;
        let members = jobs.len();
        let slots = demux(&mut dispatch.slots, &out.outputs);
        for (member, (slot, outputs)) in jobs.into_iter().zip(slots) {
            slot.last = !redispatch
                || matches!(member.placement, Placement::Fixed(_))
                || !self.disp.take_redispatch(member.id, max_redispatch);
            if slot.last {
                resolve_attempt(slot, outputs, &out, bank, members);
                self.ctx.canceller.retire(member.id);
                continue;
            }
            self.out.redispatches += 1;
            let unit = self.placer.pick(Some(bank), |_| false);
            if let Some(trace) = &self.ctx.trace {
                trace.record(&Event::Redispatch {
                    job: member.id,
                    from_bank: bank,
                    to_bank: unit.bank,
                    attempt: self.disp.attempt_of(member.id),
                });
            }
            self.sched.enqueue(member, unit);
        }
        self.ring_push(Completion {
            seq,
            unit,
            slots: dispatch.slots,
            out,
        });
        self.out.ack_micros += clock.lap();
    }

    /// Re-places one member whose attempt died in a chaos panic, bounded
    /// by the crash-retry budget; over budget the job is abandoned and
    /// its handle resolves `Crashed`, exactly like classic supervision.
    fn crash_retry_or_abandon(&mut self, member: PimJob) {
        if self
            .disp
            .take_crash_retry(member.id, self.ctx.options.supervise.max_job_retries)
        {
            self.out.crash_redispatches += 1;
            self.place(member);
        } else {
            self.out.abandoned_jobs += 1;
            self.ctx.canceller.retire(member.id);
            if let Some(done) = &member.done {
                done.resolve(|| Err(ServeError::Crashed));
            }
        }
    }

    fn ring_push(&mut self, msg: Completion) {
        self.ring_buf.push(msg);
        if self.ring_buf.len() >= RING_FLUSH {
            self.flush_ring();
        }
    }

    fn flush_ring(&mut self) {
        if self.ring_buf.is_empty() {
            return;
        }
        let mut ring = sync::lock(&self.ctx.ring);
        ring.append(&mut self.ring_buf);
        self.out.ring_peak = self.out.ring_peak.max(ring.len() as u64);
    }
}

/// Rejects the option surfaces the parallel engine does not support.
pub(crate) fn check_options(options: &RuntimeOptions) -> Result<(), RuntimeError> {
    if options.watchdog.enabled {
        return Err(RuntimeError::Config(
            "the execution watchdog requires SchedMode::Classic (inline domains \
             cannot be hung-scanned)"
                .into(),
        ));
    }
    if options
        .active_chaos()
        .is_some_and(|plan| plan.stall_permille > 0)
    {
        return Err(RuntimeError::Config(
            "chaos stall injection requires SchedMode::Classic (a stalled inline \
             domain would wedge its whole bank partition)"
                .into(),
        ));
    }
    Ok(())
}

impl Runtime {
    /// Starts the sharded scheduling engine: one fused scheduler+executor
    /// domain thread per shard, each owning `bank % shards == d` banks.
    pub(crate) fn start_parallel(&mut self, options: &RuntimeOptions) {
        let domains = self.shards;
        let units = MemoryController::new(self.config.clone());
        let unit_banks: Vec<usize> = (0..units.pim_unit_count())
            .map(|i| units.pim_unit(i).bank)
            .collect();
        let injectors: Vec<Arc<JobQueue<Submission>>> = (0..domains)
            .map(|_| Arc::new(JobQueue::new(options.queue_capacity)))
            .collect();
        let rings: Vec<Arc<Mutex<Vec<Completion>>>> = (0..domains)
            .map(|_| Arc::new(Mutex::new(Vec::new())))
            .collect();
        let handles: Vec<JoinHandle<DomainOutput>> = (0..domains)
            .map(|d| {
                let ctx = DomainCtx {
                    domain: d,
                    domains,
                    config: self.config.clone(),
                    injectors: injectors.clone(),
                    ring: Arc::clone(&rings[d]),
                    gate: Arc::clone(&self.gate),
                    trace: self.trace.clone(),
                    canceller: Canceller::new(Arc::clone(&self.cancels), self.trace.clone()),
                    options: options.clone(),
                };
                std::thread::spawn(move || domain_loop(ctx))
            })
            .collect();
        self.par = Some(ParEngine {
            domains,
            dispatch: options.dispatch,
            injectors,
            rings,
            handles,
            route_cursor: AtomicUsize::new(0),
            unit_banks,
        });
    }
}
