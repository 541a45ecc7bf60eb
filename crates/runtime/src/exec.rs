//! Preparing and executing dispatches: the per-dispatch logic the
//! classic scheduler, its worker shards and the parallel domains share,
//! plus the worker thread body and protected execution itself.

use crate::cache::BatchCache;
use crate::chaos::{self, ChaosAction, ChaosPlan, CrossingPoint};
use crate::cputime;
use crate::events::{Event, EventTrace};
use crate::health::ProtectionPolicy;
use crate::job::{Binding, PimJob};
use crate::notify::JobNotice;
use crate::options::RuntimeOptions;
use crate::queue::JobQueue;
use crate::sched::IssuedBatch;
use crate::session::{AckMsg, Completion, SlotMeta, Submission, WorkMsg};
use coruscant_compiler::{splice_programs, Compiler};
use coruscant_core::dispatch::PimMachine;
use coruscant_core::isa::CpimInstr;
use coruscant_core::nmr::NmrVoter;
use coruscant_core::program::{PimProgram, Step};
use coruscant_core::PimError;
use coruscant_mem::{Dbc, MemoryConfig, Row};
use coruscant_racetrack::{Cost, CostMeter};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// The program one dispatch executes: a single member's program shared
/// as-is, or the cross-boundary-optimized splice of all members (falling
/// back to the plain splice — still semantics-preserving — if the batch
/// pipeline fails). Members are placement-free, so the splice is too.
fn batch_program(jobs: &[PimJob], compiler: &Compiler) -> Arc<PimProgram> {
    if jobs.len() == 1 {
        return Arc::clone(&jobs[0].program);
    }
    let spliced = splice_programs(jobs.iter().map(|j| (j.id, j.program.as_ref())));
    match compiler.optimize(&spliced.program) {
        Ok((optimized, _)) => Arc::new(optimized),
        Err(_) => Arc::new(spliced.program),
    }
}

/// One prepared dispatch — what [`Dispatcher::prepare`] makes of an
/// issued batch, and what an [`Executor`] runs: a single job's program,
/// or a batched splice of several same-unit jobs.
pub(crate) struct Dispatch {
    /// The unit the members were placed on, and how the program's
    /// addresses bind to it.
    pub bind: Binding,
    /// A single member's program, or the splice of all members.
    pub program: Arc<PimProgram>,
    /// Per-member demux records, in member order.
    pub slots: Vec<SlotMeta>,
}

/// Turns issued batches into dispatches, once for both scheduling
/// engines: the (spliced) program and its binding, each member's slot
/// with its attempt number, the `Batch`/`Issue` trace events, and the
/// issue and batch counters. Also owns the two per-job retry budgets the
/// attempt number is made of.
pub(crate) struct Dispatcher {
    /// Optimizes *across* spliced program boundaries; per-job
    /// optimization already happened at submit.
    compiler: Compiler,
    splice_cache: Option<BatchCache>,
    trace: Option<Arc<EventTrace>>,
    /// Verification re-dispatch count per job id.
    redispatched: HashMap<u64, u32>,
    /// Crash/hang re-placement count per job id (bounds supervision
    /// recovery, separately from verification re-dispatch).
    crash_retries: HashMap<u64, u32>,
    /// Dispatches issued.
    pub issued: u64,
    /// Dispatches with two or more members.
    pub batches: u64,
    /// Member jobs of those batched dispatches.
    pub batched_jobs: u64,
}

impl Dispatcher {
    pub(crate) fn new(
        config: &MemoryConfig,
        options: &RuntimeOptions,
        trace: Option<Arc<EventTrace>>,
    ) -> Dispatcher {
        Dispatcher {
            compiler: Compiler::new(config.clone(), &options.compile),
            splice_cache: options.batch.splice_cache(),
            trace,
            redispatched: HashMap::new(),
            crash_retries: HashMap::new(),
            issued: 0,
            batches: 0,
            batched_jobs: 0,
        }
    }

    /// Verification re-dispatches of `job_id` so far.
    fn redispatches_of(&self, job_id: u64) -> u32 {
        self.redispatched.get(&job_id).copied().unwrap_or(0)
    }

    /// The dispatch attempt `job_id` is on: verification re-dispatches
    /// and crash/hang re-placements share one axis (each restart of the
    /// job is a distinct attempt). This is the number the job's slot,
    /// its notices, its chaos draws and its trace events all carry.
    pub(crate) fn attempt_of(&self, job_id: u64) -> u32 {
        self.redispatches_of(job_id) + self.crash_retries.get(&job_id).copied().unwrap_or(0)
    }

    /// Spends one verification re-dispatch of `job_id`; `false` once
    /// `max` are used up.
    pub(crate) fn take_redispatch(&mut self, job_id: u64, max: u32) -> bool {
        take_retry(&mut self.redispatched, job_id, max)
    }

    /// Spends one crash/hang retry of `job_id`; `false` once `max` are
    /// used up.
    pub(crate) fn take_crash_retry(&mut self, job_id: u64, max: u32) -> bool {
        take_retry(&mut self.crash_retries, job_id, max)
    }

    /// `(hits, misses)` of the batched-splice cache.
    pub(crate) fn splice_counts(&self) -> (u64, u64) {
        self.splice_cache
            .as_ref()
            .map_or((0, 0), BatchCache::counts)
    }

    /// Prepares `issue` for execution on `shard` (a worker shard or a
    /// parallel domain) and accounts for it.
    pub(crate) fn prepare(&mut self, issue: &IssuedBatch, shard: usize) -> Dispatch {
        let IssuedBatch { seq, jobs, unit } = issue;
        let bank = unit.bank;
        let program = match &mut self.splice_cache {
            Some(cache) if jobs.len() >= 2 => {
                cache.get_or_build(jobs, || batch_program(jobs, &self.compiler))
            }
            _ => batch_program(jobs, &self.compiler),
        };
        let slots = jobs
            .iter()
            .map(|j| SlotMeta {
                job_id: j.id,
                readouts: j.readouts,
                attempt: self.attempt_of(j.id),
                redispatches: self.redispatches_of(j.id),
                last: false,
            })
            .collect();
        self.issued += 1;
        if jobs.len() >= 2 {
            self.batches += 1;
            self.batched_jobs += jobs.len() as u64;
        }
        if let Some(trace) = &self.trace {
            if jobs.len() >= 2 {
                trace.record(&Event::Batch {
                    seq: *seq,
                    bank,
                    jobs: jobs.iter().map(|j| j.id).collect(),
                });
            }
            for job in jobs {
                trace.record(&Event::Issue {
                    job: job.id,
                    seq: *seq,
                    bank,
                    shard,
                });
            }
        }
        Dispatch {
            // Members of one dispatch share one binding kind.
            bind: Binding {
                unit: *unit,
                tile_relative: jobs[0].placement.tile_relative(),
            },
            program,
            slots,
        }
    }
}

fn take_retry(spent: &mut HashMap<u64, u32>, job_id: u64, max: u32) -> bool {
    let count = spent.entry(job_id).or_insert(0);
    let granted = *count < max;
    if granted {
        *count += 1;
    }
    granted
}

/// Splits a dispatch's output stream back into per-member outputs.
/// Readout counts were recorded at dispatch and passes neither remove
/// nor reorder readouts, so the slices are exact — and live notices,
/// dependency gates and the final report all see the same bytes.
/// `slots` may be shared or mutable borrows (the classic ack stage marks
/// each slot final or not as it walks them).
pub(crate) fn demux<'a, S: std::borrow::Borrow<SlotMeta>>(
    slots: impl IntoIterator<Item = S> + 'a,
    outputs: &'a [(String, Vec<u64>)],
) -> impl Iterator<Item = (S, &'a [(String, Vec<u64>)])> {
    let mut cursor = 0usize;
    slots.into_iter().map(move |slot| {
        let readouts = slot.borrow().readouts;
        let start = cursor.min(outputs.len());
        let end = (cursor + readouts).min(outputs.len());
        cursor += readouts;
        (slot, &outputs[start..end])
    })
}

/// The live [`JobNotice::Attempt`] of every member of an executed
/// dispatch, in slot order.
pub(crate) fn attempt_notices(
    slots: &[SlotMeta],
    out: &ExecOutcome,
    bank: usize,
    protection: ProtectionPolicy,
    max_redispatch: u32,
) -> Vec<JobNotice> {
    demux(slots, &out.outputs)
        .map(|(slot, outputs)| JobNotice::Attempt {
            job_id: slot.job_id,
            attempt: slot.attempt,
            redispatches: slot.redispatches,
            bank,
            batch: slots.len() as u32,
            outputs: outputs.to_vec(),
            error: out.error.clone(),
            verified: out.verified,
            protection_active: protection.is_active(),
            max_redispatch,
        })
        .collect()
}

/// What one protected execution of a dispatch produced.
pub(crate) struct ExecOutcome {
    pub outputs: Vec<(String, Vec<u64>)>,
    pub instr_costs: Vec<Cost>,
    pub error: Option<PimError>,
    pub replicas: u32,
    pub faults_detected: u64,
    pub retries: u32,
    pub votes_overturned: u64,
    pub verified: bool,
}

/// A machine plus everything one dispatch attempt consults around it.
/// Each classic worker shard and each parallel domain owns one.
pub(crate) struct Executor {
    /// A full machine; storage is sparse, so it only pays for the DBCs
    /// of the banks routed to its owner.
    machine: PimMachine,
    /// The NMR majority gate: a fault-free PIM DBC reserved as the voter
    /// (paper §III-F models voting as one write per replica plus one TR).
    voter: Option<(NmrVoter, Dbc)>,
    protection: ProtectionPolicy,
    chaos: Option<ChaosPlan>,
}

impl Executor {
    pub(crate) fn new(config: &MemoryConfig, options: &RuntimeOptions) -> Executor {
        Executor {
            machine: match options.faults.clone() {
                Some(plan) => PimMachine::with_faults(config.clone(), plan),
                None => PimMachine::new(config.clone()),
            },
            voter: match options.protection {
                ProtectionPolicy::Nmr { .. } => {
                    Some((NmrVoter::new(config), Dbc::pim_enabled(config)))
                }
                _ => None,
            },
            protection: options.protection,
            chaos: options.active_chaos(),
        }
    }

    /// Runs one dispatch attempt; `Err` means it panicked. Chaos draws
    /// key on the dispatch's first member and its attempt, so a
    /// re-dispatched attempt draws fresh, two runs of one seed inject
    /// identically, and both engines draw alike. Chaos fires only at the
    /// two crossings — before execution and after it — never inside, so
    /// a caught panic leaves the machine untouched.
    pub(crate) fn attempt(&mut self, dispatch: &Dispatch) -> std::thread::Result<ExecOutcome> {
        let first = dispatch.slots.first();
        let (job, attempt) = first.map_or((0, 0), |s| (s.job_id, s.attempt));
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(plan) = self.chaos {
                match plan.decide(CrossingPoint::WorkerStart, job, attempt) {
                    ChaosAction::Panic => chaos::chaos_panic(),
                    ChaosAction::Stall => std::thread::sleep(Duration::from_millis(plan.stall_ms)),
                    ChaosAction::Delay => std::thread::sleep(Duration::from_micros(plan.delay_us)),
                    ChaosAction::None => {}
                }
            }
            let out = execute_protected(
                &mut self.machine,
                self.protection,
                &dispatch.program,
                dispatch.bind,
                self.voter.as_mut(),
            );
            if let Some(plan) = self.chaos {
                if plan.decide(CrossingPoint::WorkerReport, job, attempt) == ChaosAction::Panic {
                    chaos::chaos_panic();
                }
            }
            out
        }))
    }
}

/// One worker incarnation's identity — the shard and generation stamped
/// into its supervision acks — and its shared handles.
pub(crate) struct WorkerCtx {
    pub shard: usize,
    pub generation: u64,
    /// Per-shard busy meters (thread CPU micros spent executing work),
    /// indexed by `shard`; folded into [`SchedStats`](crate::SchedStats)
    /// at drain.
    pub busy: Arc<Vec<AtomicU64>>,
    /// The submission queue, kicked after every ack so the scheduler's
    /// event-driven pop wakes immediately instead of riding out its
    /// timeout (see [`JobQueue::pop_kicked`]).
    pub kick: Arc<JobQueue<Submission>>,
}

/// Body of one classic worker shard thread.
pub(crate) fn worker_loop(
    config: &MemoryConfig,
    options: &RuntimeOptions,
    rx: &mpsc::Receiver<WorkMsg>,
    ack: &mpsc::Sender<AckMsg>,
    ctx: &WorkerCtx,
) {
    let mut exec = Executor::new(config, options);
    // Ack first, then kick: the scheduler snapshots the kick counter
    // before draining acks, so this order can never lose the wakeup.
    let send_ack = |msg: AckMsg| {
        let _ = ack.send(msg);
        ctx.kick.kick();
    };
    // Reports this incarnation's death to the supervisor. Per-producer
    // mpsc FIFO order guarantees every ack this worker already sent is
    // processed before the down report.
    let report_down = |panicked_seq: Option<u64>| {
        send_ack(AckMsg::ShardDown {
            shard: ctx.shard,
            generation: ctx.generation,
            panicked_seq,
        });
    };
    let mut clock = cputime::StageClock::start();
    while let Ok(msg) = rx.recv() {
        // Charge only the processing span: re-stamp after the blocking
        // recv so queue-wait CPU (≈0 anyway) never counts as busy.
        clock.reset();
        match msg {
            WorkMsg::Scrub { bank } => {
                let scrubbed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut meter = CostMeter::new();
                    exec.machine
                        .controller_mut()
                        .scrub_bank(bank, &mut meter)
                        .unwrap_or_default()
                }));
                let Ok(outcome) = scrubbed else {
                    report_down(None);
                    return;
                };
                send_ack(AckMsg::Scrub { bank, outcome });
            }
            WorkMsg::Job { seq, dispatch } => {
                let unit = dispatch.bind.unit;
                // Heartbeat, only useful when the watchdog reads it.
                if options.watchdog.enabled {
                    let _ = ack.send(AckMsg::Started { seq });
                }
                let Ok(out) = exec.attempt(&dispatch) else {
                    report_down(Some(seq));
                    return;
                };
                let slots = dispatch.slots;
                if let Some(notify) = &options.notify {
                    let max_redispatch = options.health.max_redispatch;
                    for notice in
                        attempt_notices(&slots, &out, unit.bank, exec.protection, max_redispatch)
                    {
                        let _ = notify.send(notice);
                    }
                }
                send_ack(AckMsg::Job(Completion {
                    seq,
                    unit,
                    slots,
                    out,
                }));
            }
        }
        ctx.busy[ctx.shard].fetch_add(clock.lap(), Ordering::Relaxed);
    }
}

/// Runs a job under the worker's protection policy.
fn execute_protected(
    machine: &mut PimMachine,
    protection: ProtectionPolicy,
    program: &PimProgram,
    bind: Binding,
    voter: Option<&mut (NmrVoter, Dbc)>,
) -> ExecOutcome {
    match protection {
        ProtectionPolicy::None => {
            let (readouts, instr_costs, error) = run_once(machine, program, bind);
            ExecOutcome {
                outputs: unpack_readouts(&readouts),
                instr_costs,
                error,
                replicas: 1,
                faults_detected: 0,
                retries: 0,
                votes_overturned: 0,
                verified: false,
            }
        }
        ProtectionPolicy::Reexecute { max_retries } => {
            let mut instr_costs = Vec::new();
            let mut replicas = 0u32;
            let mut faults_detected = 0u64;
            let mut retries = 0u32;
            let mut pairs = 0u32;
            loop {
                let (ro_a, c_a, e_a) = run_once(machine, program, bind);
                let (ro_b, c_b, e_b) = run_once(machine, program, bind);
                replicas += 2;
                instr_costs.extend(c_a);
                instr_costs.extend(c_b);
                let clean = e_a.is_none() && e_b.is_none();
                if clean && readout_rows_equal(&ro_a, &ro_b) {
                    return ExecOutcome {
                        outputs: unpack_readouts(&ro_b),
                        instr_costs,
                        error: None,
                        replicas,
                        faults_detected,
                        retries,
                        votes_overturned: 0,
                        verified: true,
                    };
                }
                faults_detected += 1;
                if pairs >= max_retries {
                    // Exhausted: surface the least-broken run unverified;
                    // the scheduler may re-dispatch to another bank.
                    let (readouts, error) = if e_b.is_none() {
                        (ro_b, None)
                    } else if e_a.is_none() {
                        (ro_a, None)
                    } else {
                        (ro_b, e_b)
                    };
                    return ExecOutcome {
                        outputs: unpack_readouts(&readouts),
                        instr_costs,
                        error,
                        replicas,
                        faults_detected,
                        retries,
                        votes_overturned: 0,
                        verified: false,
                    };
                }
                pairs += 1;
                retries += 1;
            }
        }
        ProtectionPolicy::Nmr { n } => {
            let (voter, vote_dbc) = voter.expect("worker allocates a voter for NMR policies");
            let mut instr_costs = Vec::new();
            let mut runs = Vec::with_capacity(n);
            for i in 0..n {
                let (readouts, costs, error) = run_once(machine, program, bind);
                instr_costs.extend(costs);
                if let Some(err) = error {
                    return ExecOutcome {
                        outputs: unpack_readouts(&readouts),
                        instr_costs,
                        error: Some(err),
                        replicas: i as u32 + 1,
                        faults_detected: 0,
                        retries: 0,
                        votes_overturned: 0,
                        verified: false,
                    };
                }
                runs.push(readouts);
            }
            let mut outputs = Vec::with_capacity(runs[0].len());
            let mut faults_detected = 0u64;
            let mut votes_overturned = 0u64;
            let mut meter = CostMeter::new();
            for i in 0..runs[0].len() {
                let (label, lane, _) = &runs[0][i];
                let rows: Vec<Row> = runs.iter().map(|r| r[i].2.clone()).collect();
                let disagree = rows.windows(2).any(|w| w[0] != w[1]);
                if disagree {
                    faults_detected += 1;
                    votes_overturned += 1;
                }
                let voted = voter
                    .vote_rows(vote_dbc, &rows, &mut meter)
                    .unwrap_or_else(|_| NmrVoter::reference(&rows));
                outputs.push((label.clone(), voted.unpack(*lane)));
            }
            let vote_cost = meter.total();
            if vote_cost.cycles > 0 {
                instr_costs.push(vote_cost);
            }
            ExecOutcome {
                outputs,
                instr_costs,
                error: None,
                replicas: n as u32,
                faults_detected,
                retries: 0,
                votes_overturned,
                verified: true,
            }
        }
    }
}

/// Labeled raw readout rows of one program execution.
type Readouts = Vec<(String, usize, Row)>;

/// Unpacks raw readout rows into the per-lane word outputs jobs report.
fn unpack_readouts(readouts: &Readouts) -> Vec<(String, Vec<u64>)> {
    readouts
        .iter()
        .map(|(label, lane, row)| (label.clone(), row.unpack(*lane)))
        .collect()
}

/// Whether two executions produced identical raw readout rows (compared
/// at full row width — stricter than the unpacked lanes).
fn readout_rows_equal(a: &Readouts, b: &Readouts) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.2 == y.2)
}

/// Executes a placement-free program once on a shard machine, mapping
/// each address through `bind` as it steps — the only place a job's
/// concrete addresses exist — and collecting raw readout rows (for
/// verification) and per-instruction device costs (for the central
/// timing replay).
fn run_once(
    machine: &mut PimMachine,
    program: &PimProgram,
    bind: Binding,
) -> (Readouts, Vec<Cost>, Option<PimError>) {
    let width = machine.controller().config().nanowires_per_dbc;
    let mut meter = CostMeter::new();
    let mut readouts = Vec::new();
    let mut instr_costs = Vec::new();
    for step in &program.steps {
        let result: Result<(), PimError> = (|| {
            match step {
                Step::Load { addr, values, lane } => {
                    let row = Row::pack(width, *lane, values);
                    machine
                        .controller_mut()
                        .store_row(bind.map(*addr), &row, &mut meter)?;
                }
                Step::Exec(instr) => {
                    let instr = CpimInstr {
                        src: bind.map(instr.src),
                        dst: instr.dst.map(|d| bind.map(d)),
                        ..*instr
                    };
                    let out = machine.execute(&instr)?;
                    instr_costs.push(out.cost);
                }
                Step::Readout { label, addr, lane } => {
                    let addr = bind.map(*addr);
                    let row = machine.controller_mut().load_row(addr, &mut meter)?;
                    readouts.push((label.clone(), *lane, row));
                }
            }
            Ok(())
        })();
        if let Err(err) = result {
            return (readouts, instr_costs, Some(err));
        }
    }
    (readouts, instr_costs, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attempt_notices_carry_the_slots_redispatch_count() {
        let slot = |job_id, attempt, redispatches| SlotMeta {
            job_id,
            readouts: 1,
            attempt,
            redispatches,
            last: false,
        };
        let out = ExecOutcome {
            outputs: vec![("a".into(), vec![1]), ("b".into(), vec![2])],
            instr_costs: Vec::new(),
            error: None,
            replicas: 2,
            faults_detected: 1,
            retries: 0,
            votes_overturned: 0,
            verified: false,
        };
        // Job 4 crashed once and was re-dispatched once; job 5 was
        // re-dispatched twice, which is the whole budget.
        let slots = [slot(4, 2, 1), slot(5, 2, 2)];
        let policy = ProtectionPolicy::Reexecute { max_retries: 0 };
        let notices = attempt_notices(&slots, &out, 3, policy, 2);
        let seen: Vec<(u64, u32, u32, bool)> = notices
            .iter()
            .map(|notice| match notice {
                JobNotice::Attempt {
                    job_id,
                    attempt,
                    redispatches,
                    ..
                } => (*job_id, *attempt, *redispatches, notice.is_final()),
                other => panic!("not an attempt: {other:?}"),
            })
            .collect();
        assert_eq!(seen, [(4, 2, 1, false), (5, 2, 2, true)]);
    }
}
