//! Draining a session and assembling its report: what each engine
//! hands back on shutdown, the completion-stream collection, and the
//! engine-agnostic timing replay that turns it into [`RuntimeStats`].

use crate::cache::ProgramCache;
use crate::events::Event;
use crate::exec::demux;
use crate::job::JobOutcome;
use crate::options::RuntimeError;
use crate::parallel::{DomainOutput, ParEngine};
use crate::session::DoneMsg;
use crate::stats::{
    BankOccupancy, BatchStats, DomainStats, FaultStats, Histogram, PipelineStats, RuntimeStats,
    SchedStats,
};
use crate::supervise::SupervisionStats;
use crate::{sync, Runtime};
use coruscant_core::PimError;
use coruscant_mem::controller::Request;
use coruscant_mem::{MemoryController, ScrubOutcome};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Per-stage occupancy counters a scheduler loop accumulates as it
/// runs. Stage busy times are thread-CPU micros (see [`crate::cputime`]), so
/// they measure work done, not wall time lost to preemption;
/// `wall_micros` is the loop's wall-clock lifetime.
#[derive(Default)]
pub(crate) struct SchedProfile {
    pub pop_micros: u64,
    pub admit_micros: u64,
    pub place_micros: u64,
    pub dispatch_micros: u64,
    pub ack_micros: u64,
    pub wall_micros: u64,
    /// Dispatches issued per worker shard (`bank % shards`).
    pub per_shard_issued: Vec<u64>,
    /// Member jobs issued per worker shard.
    pub per_shard_jobs: Vec<u64>,
}

/// What the scheduler thread hands back on shutdown.
#[derive(Default)]
pub(crate) struct SchedulerOutput {
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
    pub scrubs: u64,
    pub scrub_total: ScrubOutcome,
    pub suspect_banks: u64,
    pub quarantined_banks: u64,
    pub degraded_capacity: f64,
    pub deferred: u64,
    pub released: u64,
    pub cascaded: u64,
    pub pins: u64,
    pub remats: u64,
    /// Scheduler-side supervision counters (the supervisor itself keeps
    /// the panic/restart/retire counts; `finish` merges both).
    pub supervision: SupervisionStats,
    /// Issue sequence numbers that will never produce a completion: the
    /// dispatch died with its shard (and was re-issued under a new seq,
    /// abandoned, or declared hung). `finish` excludes them from the
    /// expected completion count and discards late results under them.
    pub lost: Vec<u64>,
    /// Scheduler-occupancy counters (stage busy CPU micros, per-shard
    /// issue counts).
    pub profile: SchedProfile,
}

/// What either scheduling engine hands `finish` once fully drained:
/// the merged scheduler output, the completion stream sorted by seq,
/// the assembled supervision counters, and the occupancy profile. The
/// replay and stats assembly downstream are engine-agnostic — that is
/// the "merged accounting" half of sharded scheduling.
pub(crate) struct DrainedSession {
    sched_out: SchedulerOutput,
    completions: Vec<DoneMsg>,
    supervision: SupervisionStats,
    sched_stats: SchedStats,
}

/// The report a finished session produces.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeReport {
    /// Per-job completion records, ordered by job id.
    pub outcomes: Vec<JobOutcome>,
    /// Aggregate statistics.
    pub stats: RuntimeStats,
}

impl Runtime {
    /// Classic drain: close the queue, join the single scheduler thread,
    /// collect the done-channel stream (bounded when supervision is
    /// dirty), and fold the scheduler's stage profile plus the per-worker
    /// busy meters into [`SchedStats`].
    pub(crate) fn drain_classic(&mut self) -> Result<DrainedSession, RuntimeError> {
        self.queue.close();
        // A paused runtime drains on finish: open the gate so the
        // scheduler can run the backlog down.
        self.gate.open();
        let sched_out = self
            .scheduler
            .take()
            .expect("scheduler joined only once")
            .join()
            .map_err(|_| RuntimeError::WorkerLost)?;

        let supervisor = self.supervisor.take().expect("classic mode");
        // Stop supervision: drop the factory and every live sender so
        // workers drain their channels and exit.
        supervisor.close();
        let lost: HashSet<u64> = sched_out.lost.iter().copied().collect();
        let done_rx = self
            .done_rx
            .take()
            .expect("classic mode")
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let stalled = supervisor.stalled_workers();
        let mut completions: Vec<DoneMsg> = if stalled == 0 && lost.is_empty() {
            // Every worker has exited (or exits as its channel drains):
            // the completion stream ends when the last sender drops.
            done_rx.iter().collect()
        } else {
            // A stalled or abandoned-but-undetached worker still holds a
            // `done` sender, so the stream never disconnects. Collect
            // exactly the completions the scheduler accounted for,
            // bounded by the drain deadline. The lost filter drops late
            // results of replaced or given-up workers.
            let expected = (sched_out.issued as usize).saturating_sub(lost.len());
            let deadline = Instant::now() + self.supervise.drain_deadline();
            let mut collected = Vec::with_capacity(expected);
            while collected.len() < expected {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                match done_rx.recv_timeout(deadline - now) {
                    Ok(c) => {
                        if !lost.contains(&c.seq) {
                            collected.push(c);
                        }
                    }
                    Err(_) => break,
                }
            }
            collected
        };
        drop(done_rx);
        let workers_lost = supervisor.join_all(Instant::now() + self.supervise.drain_deadline());
        completions.sort_by_key(|c| c.seq);

        let (panics_caught, shard_restarts, shards_retired) = supervisor.counters();
        let supervision = SupervisionStats {
            panics_caught,
            shard_restarts,
            shards_retired,
            workers_lost,
            ..sched_out.supervision
        };

        // Fold the loop's stage profile and the worker busy meters into
        // the occupancy stats. The classic serial bottleneck is whichever
        // is larger: the scheduler's own non-wait CPU, or the busiest
        // worker. Pops are excluded — blocked waits are idleness, not
        // work.
        let p = &sched_out.profile;
        let worker_busy: Vec<u64> = self
            .worker_busy
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let sched_busy = p.admit_micros + p.place_micros + p.dispatch_micros + p.ack_micros;
        let busy_micros = worker_busy
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
            .max(sched_busy);
        let per_domain: Vec<DomainStats> = (0..self.shards)
            .map(|s| DomainStats {
                domain: s,
                issued: p.per_shard_issued[s],
                jobs: p.per_shard_jobs[s],
                busy_micros: worker_busy[s],
                ..DomainStats::default()
            })
            .collect();
        let sched_stats = SchedStats {
            mode: "classic".into(),
            domains: self.shards,
            pop_micros: p.pop_micros,
            admit_micros: p.admit_micros,
            place_micros: p.place_micros,
            dispatch_micros: p.dispatch_micros,
            ack_micros: p.ack_micros,
            busy_micros,
            wall_micros: p.wall_micros,
            occupancy_pct: if p.wall_micros > 0 {
                busy_micros as f64 / p.wall_micros as f64 * 100.0
            } else {
                0.0
            },
            steals: 0,
            per_domain,
        };
        Ok(DrainedSession {
            sched_out,
            completions,
            supervision,
            sched_stats,
        })
    }

    /// Parallel drain: close every injector, join the domain threads,
    /// merge their completion rings into one seq-ordered stream, and sum
    /// their counters — the merged-accounting step that lets the shared
    /// replay treat a sharded session exactly like a classic one.
    pub(crate) fn drain_parallel(
        &mut self,
        par: ParEngine,
    ) -> Result<DrainedSession, RuntimeError> {
        for injector in &par.injectors {
            injector.close();
        }
        self.gate.open();
        let mut outs: Vec<DomainOutput> = Vec::with_capacity(par.handles.len());
        for handle in par.handles {
            outs.push(handle.join().map_err(|_| RuntimeError::WorkerLost)?);
        }
        let mut completions: Vec<DoneMsg> = Vec::new();
        for ring in &par.rings {
            completions.append(&mut sync::lock(ring));
        }
        // Domain seqs are strided (`seq ≡ domain (mod domains)`), so a
        // plain sort restores one globally consistent issue order.
        completions.sort_by_key(|c| c.seq);

        let mut sched_out = SchedulerOutput::default();
        let mut supervision = SupervisionStats::default();
        let mut per_domain: Vec<DomainStats> = Vec::with_capacity(outs.len());
        let (mut busy_max, mut wall_max) = (0u64, 0u64);
        let mut stage = [0u64; 5];
        let mut steals = 0u64;
        for o in &outs {
            sched_out.depth_hist.merge(&o.depth_hist);
            sched_out.issued += o.issued;
            sched_out.batches += o.batches;
            sched_out.batched_jobs += o.batched_jobs;
            sched_out.splice_hits += o.splice_hits;
            sched_out.splice_misses += o.splice_misses;
            sched_out.cancelled += o.cancelled;
            sched_out.expired += o.expired;
            sched_out.redispatches += o.redispatches;
            sched_out.cascaded += o.dropped;
            supervision.panics_caught += o.panics;
            supervision.crash_redispatches += o.crash_redispatches;
            supervision.abandoned_jobs += o.abandoned_jobs;
            stage[0] += o.pop_micros;
            stage[1] += o.admit_micros;
            stage[2] += o.place_micros;
            stage[3] += o.dispatch_micros;
            stage[4] += o.ack_micros;
            steals += o.steals;
            busy_max = busy_max.max(o.busy_micros);
            wall_max = wall_max.max(o.wall_micros);
            per_domain.push(DomainStats {
                domain: o.domain,
                issued: o.issued,
                jobs: o.jobs_done,
                steals: o.steals,
                busy_micros: o.busy_micros,
                ring_peak: o.ring_peak,
            });
        }
        let sched_stats = SchedStats {
            mode: "parallel".into(),
            domains: par.domains,
            pop_micros: stage[0],
            admit_micros: stage[1],
            place_micros: stage[2],
            dispatch_micros: stage[3],
            ack_micros: stage[4],
            // The serial bottleneck is the busiest domain's CPU time;
            // occupancy is that domain's busy share of its own wall.
            busy_micros: busy_max,
            wall_micros: wall_max,
            occupancy_pct: if wall_max > 0 {
                busy_max as f64 / wall_max as f64 * 100.0
            } else {
                0.0
            },
            steals,
            per_domain,
        };
        Ok(DrainedSession {
            sched_out,
            completions,
            supervision,
            sched_stats,
        })
    }

    /// Engine-agnostic report assembly: replays the merged completion
    /// stream through one [`MemoryController`] and builds the final
    /// stats. Both scheduling engines end here, which is what keeps
    /// their accounting identical.
    pub(crate) fn assemble_report(
        self,
        drained: DrainedSession,
    ) -> Result<RuntimeReport, RuntimeError> {
        let DrainedSession {
            sched_out,
            completions,
            supervision,
            sched_stats,
        } = drained;

        // Timing accounting: replay every instruction's measured device
        // cost through one MemoryController in issue order — the same
        // accounting a sequential dispatcher would produce, so bank
        // conflicts serialize and distinct banks overlap. Every attempt
        // (retries and re-dispatches included) is replayed, so wasted
        // work honestly degrades the modeled throughput; only the final
        // attempt per job becomes its reported outcome.
        let mut timing = MemoryController::new(self.config.clone());
        let mut wait_hist = Histogram::new();
        let mut per_bank: Vec<BankOccupancy> = (0..self.config.banks)
            .map(|bank| BankOccupancy {
                bank,
                ..BankOccupancy::default()
            })
            .collect();
        let mut instructions = 0u64;
        let mut device_cycles = 0u64;
        let mut fstats = FaultStats {
            redispatches: sched_out.redispatches,
            scrubs: sched_out.scrubs,
            scrub: sched_out.scrub_total,
            suspect_banks: sched_out.suspect_banks,
            quarantined_banks: sched_out.quarantined_banks,
            degraded_capacity: sched_out.degraded_capacity,
            ..FaultStats::default()
        };
        // Winning (latest-seq) attempt per job id, with any error it hit.
        let mut winners: HashMap<u64, (JobOutcome, Option<PimError>)> = HashMap::new();
        for c in completions {
            let bank = c.unit.bank;
            let wait = timing.bank_free_at(bank).saturating_sub(timing.now());
            let mut done = 0;
            let mut batch_device = 0;
            for cost in &c.out.instr_costs {
                let t = timing.submit(Request::Pim {
                    location: c.unit,
                    device_cycles: cost.cycles,
                    energy_pj: cost.energy_pj,
                })?;
                done = done.max(t);
                batch_device += cost.cycles;
            }
            instructions += c.out.instr_costs.len() as u64;
            device_cycles += batch_device;
            fstats.replicas_run += u64::from(c.out.replicas);
            fstats.faults_detected += c.out.faults_detected;
            fstats.retries += u64::from(c.out.retries);
            fstats.votes_overturned += c.out.votes_overturned;
            // Demux the batched output stream back into per-job outputs
            // and apportion the batch's measured device cycles evenly,
            // with the remainder on the first member.
            let members = c.slots.len();
            let share = batch_device / members.max(1) as u64;
            let mut remainder = batch_device - share * members as u64;
            for (slot, outputs) in demux(&c.slots, &c.out.outputs) {
                let job_device = share + remainder;
                remainder = 0;
                wait_hist.record(wait);
                per_bank[bank].jobs += 1;
                per_bank[bank].wait_cycles += wait;
                if let Some(trace) = &self.trace {
                    trace.record(&Event::Complete {
                        job: slot.job_id,
                        bank,
                        wait,
                        done,
                    });
                }
                let outcome = JobOutcome {
                    job_id: slot.job_id,
                    seq: c.seq,
                    unit: c.unit,
                    bank,
                    outputs: outputs.to_vec(),
                    device_cycles: job_device,
                    wait_cycles: wait,
                    completion: done,
                    attempt: slot.attempt,
                    replicas: c.out.replicas,
                    faults_detected: c.out.faults_detected,
                    retries: c.out.retries,
                    votes_overturned: c.out.votes_overturned,
                    verified: c.out.verified,
                    batch: members as u32,
                };
                // Attempts arrive in seq order, so a later re-dispatch of
                // the same job replaces the unverified earlier outcome.
                winners.insert(slot.job_id, (outcome, c.out.error.clone()));
            }
        }
        let makespan = timing.drain();
        for (bank, busy) in timing.bank_stats().busy_cycles.iter().enumerate() {
            per_bank[bank].busy_cycles = *busy;
        }
        // Surface the first (issue-order) error among winning attempts.
        let mut first_err: Option<(u64, PimError)> = None;
        let mut outcomes = Vec::with_capacity(winners.len());
        for (outcome, error) in winners.into_values() {
            if let Some(err) = error {
                if first_err.as_ref().is_none_or(|(seq, _)| outcome.seq < *seq) {
                    first_err = Some((outcome.seq, err));
                }
                continue;
            }
            outcomes.push(outcome);
        }
        if let Some((_, err)) = first_err {
            return Err(RuntimeError::Pim(err));
        }
        outcomes.sort_by_key(|o| o.job_id);
        if self.protection.is_active() {
            fstats.protected_jobs = outcomes.len() as u64;
            fstats.unverified_jobs = outcomes.iter().filter(|o| !o.verified).count() as u64;
        }

        let jobs = outcomes.len() as u64;
        let modeled_us = makespan as f64 * self.config.memory_cycle_ns / 1000.0;
        let stats = RuntimeStats {
            jobs,
            cancelled: sched_out.cancelled,
            expired: sched_out.expired,
            instructions,
            shards: self.shards,
            optimized_jobs: self.optimized_jobs.load(Ordering::Relaxed),
            instructions_eliminated: self.instructions_eliminated.load(Ordering::Relaxed),
            est_device_cycles_saved: self.est_device_cycles_saved.load(Ordering::Relaxed),
            makespan_cycles: makespan,
            device_cycles,
            jobs_per_us: if modeled_us > 0.0 {
                jobs as f64 / modeled_us
            } else {
                0.0
            },
            per_bank,
            queue_depth: sched_out.depth_hist,
            wait: wait_hist,
            controller: *timing.stats(),
            bank_stats: timing.bank_stats().clone(),
            faults: fstats,
            cache: self
                .cache
                .as_ref()
                .map(ProgramCache::stats)
                .unwrap_or_default(),
            batch: BatchStats {
                batches: sched_out.batches,
                batched_jobs: sched_out.batched_jobs,
                splice_hits: sched_out.splice_hits,
                splice_misses: sched_out.splice_misses,
            },
            pipeline: PipelineStats {
                deferred_jobs: sched_out.deferred,
                released_jobs: sched_out.released,
                cascade_cancelled: sched_out.cascaded,
                residents: sched_out.pins,
                rematerializations: sched_out.remats,
            },
            supervision,
            sched: sched_stats,
        };
        if let Some(trace) = &self.trace {
            trace.flush();
        }
        Ok(RuntimeReport { outcomes, stats })
    }
}
