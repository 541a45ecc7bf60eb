//! Accounting: the one [`Replay`] that turns executed dispatches into
//! modeled times and [`RuntimeStats`], and the drain that assembles the
//! report. The classic scheduler drives the replay live — acks park in a
//! [`Reorder`] buffer and are replayed and dropped as the issue-order
//! watermark passes them — so a session holds what is in flight, not
//! what it has served. Parallel domains still collect completions for
//! [`Runtime::drain_parallel`] to merge and replay: a live merge of
//! their strided seqs would stall behind an idle domain's next seq.

use crate::cache::ProgramCache;
use crate::events::{Event, EventTrace};
use crate::job::JobOutcome;
use crate::options::RuntimeError;
use crate::parallel::{DomainOutput, ParEngine};
use crate::session::{Completion, SlotMeta};
use crate::stats::{
    BankOccupancy, BatchStats, DomainStats, FaultStats, Histogram, PipelineStats, RuntimeStats,
    SchedStats,
};
use crate::supervise::SupervisionStats;
use crate::{sync, Runtime};
use coruscant_mem::controller::Request;
use coruscant_mem::{MemoryConfig, MemoryController, ScrubOutcome};
use coruscant_racetrack::Cost;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// A seq-keyed reorder buffer: items settle in any order, and leave in
/// ascending seq as a watermark advances over every contiguous settled
/// seq. Seqs must be dense from 0; a seq that will never produce an
/// item settles as `None` and the watermark skips it.
pub(crate) struct Reorder<T> {
    /// The watermark: every seq below it was passed on or skipped.
    next: u64,
    /// Seqs settled ahead of the watermark (`None`: skipped).
    parked: BTreeMap<u64, Option<T>>,
}

impl<T> Reorder<T> {
    pub(crate) fn new() -> Reorder<T> {
        Reorder {
            next: 0,
            parked: BTreeMap::new(),
        }
    }

    /// Settles `seq` and hands `sink` every item the watermark now
    /// passes, in seq order. The first settle of a seq wins: a late
    /// report of a seq already skipped (or already passed) is dropped.
    pub(crate) fn settle(&mut self, seq: u64, mut item: Option<T>, mut sink: impl FnMut(T)) {
        if seq != self.next {
            if seq > self.next {
                self.parked.entry(seq).or_insert(item);
            }
            return;
        }
        loop {
            if let Some(item) = item {
                sink(item);
            }
            self.next += 1;
            match self.parked.remove(&self.next) {
                Some(parked) => item = parked,
                None => return,
            }
        }
    }
}

/// The merged-accounting replay: every instruction's measured device
/// cost goes through one [`MemoryController`] in issue order — the same
/// accounting a sequential dispatcher would produce, so bank conflicts
/// serialize and distinct banks overlap. Every attempt (retries and
/// re-dispatches included) is replayed, so wasted work honestly degrades
/// the modeled throughput; only a member's *final* attempt becomes its
/// reported outcome — kept for the report unless the job was served with
/// a handle, which already holds its outputs.
pub(crate) struct Replay {
    timing: MemoryController,
    trace: Option<Arc<EventTrace>>,
    outcomes: Vec<JobOutcome>,
    /// `jobs`, `instructions`, `device_cycles`, `per_bank`, `wait` and
    /// the replay's fault counters; `assemble_report` fills in the rest.
    stats: RuntimeStats,
    /// The first error in issue order (of a final attempt, or of the
    /// controller): it fails the session.
    error: Option<RuntimeError>,
    /// Open dependency chains by first member id: (last member id, the
    /// per-instruction energy held back for them, in issue order).
    chains: BTreeMap<u64, (u64, Vec<f64>)>,
}

impl Replay {
    pub(crate) fn new(config: &MemoryConfig, trace: Option<Arc<EventTrace>>) -> Replay {
        let per_bank = (0..config.banks).map(|bank| BankOccupancy {
            bank,
            ..BankOccupancy::default()
        });
        Replay {
            timing: MemoryController::new(config.clone()),
            trace,
            outcomes: Vec::new(),
            stats: RuntimeStats {
                per_bank: per_bank.collect(),
                ..RuntimeStats::default()
            },
            error: None,
            chains: BTreeMap::new(),
        }
    }

    /// Holds back the energy of chain `first..=last` (see [`Replay::push`]).
    pub(crate) fn open_chain(&mut self, first: u64, last: u64) {
        self.chains.insert(first, (last, Vec::new()));
    }

    /// Charges every open chain that starts at or before `first`: one
    /// that lost a member to a cancellation never closes itself.
    pub(crate) fn close_chains(&mut self, first: u64) {
        while let Some(chain) = self.chains.first_entry().filter(|c| *c.key() <= first) {
            for energy_pj in chain.remove().1 {
                self.timing.charge_energy(Cost::energy(energy_pj));
            }
        }
    }

    /// Accounts one executed dispatch; call in ascending issue seq.
    pub(crate) fn push(&mut self, c: Completion) {
        let (stats, bank, out) = (&mut self.stats, c.unit.bank, c.out);
        let wait = self
            .timing
            .bank_free_at(bank)
            .saturating_sub(self.timing.now());
        let mut done = 0;
        let mut batch_device = 0;
        // Concurrent chains' members issue in ack-timing order, and an
        // `f64` sum follows its order: a chain member's energy is held and
        // charged once the chain's last member (or one whose failure
        // cascades) is accounted, so chains add up one after another.
        let id = c.slots.first().map_or(u64::MAX, |s| s.job_id);
        let chain = self.chains.range_mut(..=id).next_back();
        let held = chain
            .filter(|(_, (last, _))| id <= *last)
            .map(|(&first, (last, energy))| {
                energy.reserve_exact(out.instr_costs.len());
                energy.extend(out.instr_costs.iter().map(|c| c.energy_pj));
                let ends = |s: &SlotMeta| s.last && (s.job_id == *last || out.error.is_some());
                (first, c.slots.iter().any(ends))
            });
        let charged = if held.is_some() { 0.0 } else { 1.0 };
        for cost in &out.instr_costs {
            match self.timing.submit(Request::Pim {
                location: c.unit,
                device_cycles: cost.cycles,
                energy_pj: cost.energy_pj * charged,
            }) {
                Ok(t) => done = done.max(t),
                Err(e) => {
                    self.error.get_or_insert(e.into());
                    return;
                }
            }
            batch_device += cost.cycles;
        }
        stats.instructions += out.instr_costs.len() as u64;
        stats.device_cycles += batch_device;
        stats.faults.replicas_run += u64::from(out.replicas);
        stats.faults.faults_detected += out.faults_detected;
        stats.faults.retries += u64::from(out.retries);
        stats.faults.votes_overturned += out.votes_overturned;
        // Demux the batched output stream back into per-job outputs and
        // apportion the batch's measured device cycles evenly, with the
        // remainder on the first member.
        let members = c.slots.len();
        let share = batch_device / members.max(1) as u64;
        let mut remainder = batch_device - share * members as u64;
        let mut rest = out.outputs;
        for slot in c.slots {
            let job_device = share + remainder;
            remainder = 0;
            stats.wait.record(wait);
            stats.per_bank[bank].jobs += 1;
            stats.per_bank[bank].wait_cycles += wait;
            if let Some(trace) = &self.trace {
                trace.record(&Event::Complete {
                    job: slot.job_id,
                    bank,
                    wait,
                    done,
                    attempt: slot.attempt,
                });
            }
            // Moved, not copied: only a batch's later members allocate.
            let tail = rest.split_off(slot.readouts.min(rest.len()));
            let outputs = std::mem::replace(&mut rest, tail);
            if !slot.last {
                continue;
            }
            if let Some(err) = &out.error {
                self.error.get_or_insert(RuntimeError::Pim(err.clone()));
                continue;
            }
            stats.jobs += 1;
            stats.faults.unverified_jobs += u64::from(!out.verified);
            if slot.done.is_some() {
                continue;
            }
            self.outcomes.push(JobOutcome {
                job_id: slot.job_id,
                seq: c.seq,
                unit: c.unit,
                bank,
                outputs,
                device_cycles: job_device,
                wait_cycles: wait,
                completion: done,
                attempt: slot.attempt,
                replicas: out.replicas,
                faults_detected: out.faults_detected,
                retries: out.retries,
                votes_overturned: out.votes_overturned,
                verified: out.verified,
                batch: members as u32,
            });
        }
        if let Some((first, true)) = held {
            self.close_chains(first);
        }
    }
}

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
    /// Scheduler-occupancy counters (stage busy CPU micros, per-shard
    /// issue counts).
    pub profile: SchedProfile,
}

/// What either scheduling engine hands `finish` once fully drained:
/// the merged scheduler output, the replay its completions went
/// through, the assembled supervision counters, and the occupancy
/// profile. The stats assembly downstream is engine-agnostic — that is
/// the "merged accounting" half of sharded scheduling.
pub(crate) struct DrainedSession {
    sched_out: SchedulerOutput,
    replay: Replay,
    supervision: SupervisionStats,
    sched_stats: SchedStats,
}

/// The report a finished session produces.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeReport {
    /// Per-job completion records, ordered by job id — of the jobs
    /// submitted without a handle (a served job's handle holds its
    /// outputs instead).
    pub outcomes: Vec<JobOutcome>,
    /// Aggregate statistics.
    pub stats: RuntimeStats,
}

impl Runtime {
    /// Classic drain: close the queue, join the single scheduler thread —
    /// which hands back the replay it drove live — stop the workers, and
    /// fold the scheduler's stage profile plus the per-worker busy meters
    /// into [`SchedStats`].
    pub(crate) fn drain_classic(&mut self) -> Result<DrainedSession, RuntimeError> {
        self.queue.close();
        // A paused runtime drains on finish: open the gate so the
        // scheduler can run the backlog down.
        self.gate.open();
        let (sched_out, replay) = self
            .scheduler
            .take()
            .expect("scheduler joined only once")
            .join()
            .map_err(|_| RuntimeError::WorkerLost)?;

        let supervisor = self.supervisor.take().expect("classic mode");
        // Stop supervision: drop the factory and every live sender so
        // workers drain their channels and exit.
        supervisor.close();
        let workers_lost = supervisor.join_all(Instant::now() + self.supervise.drain_deadline());

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
            replay,
            supervision,
            sched_stats,
        })
    }

    /// Parallel drain: close every injector, join the domain threads,
    /// merge their completion rings into one seq-ordered stream, feed it
    /// to the shared replay, and sum their counters — the
    /// merged-accounting step that lets a sharded session report exactly
    /// like a classic one.
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
        let mut completions: Vec<Completion> = Vec::new();
        for ring in &par.rings {
            completions.append(&mut sync::lock(ring));
        }
        // Domain seqs are strided (`seq ≡ domain (mod domains)`), so a
        // plain sort restores one globally consistent issue order.
        completions.sort_by_key(|c| c.seq);
        let mut replay = Replay::new(&self.config, self.trace.clone());
        for completion in completions {
            replay.push(completion);
        }

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
            replay,
            supervision,
            sched_stats,
        })
    }

    /// Engine-agnostic report assembly: closes the replay both engines
    /// fed and builds the final stats from it, which is what keeps their
    /// accounting identical.
    pub(crate) fn assemble_report(
        self,
        drained: DrainedSession,
    ) -> Result<RuntimeReport, RuntimeError> {
        let DrainedSession {
            sched_out,
            mut replay,
            supervision,
            sched_stats,
        } = drained;
        replay.close_chains(u64::MAX);
        let Replay {
            mut timing,
            mut stats,
            error,
            mut outcomes,
            ..
        } = replay;
        if let Some(err) = error {
            return Err(err);
        }
        let makespan = timing.drain();
        for (bank, busy) in timing.bank_stats().busy_cycles.iter().enumerate() {
            stats.per_bank[bank].busy_cycles = *busy;
        }
        // Without a policy no outcome counts as protected or unverified.
        let (protected_jobs, unverified_jobs) = if self.protection.is_active() {
            (stats.jobs, stats.faults.unverified_jobs)
        } else {
            (0, 0)
        };
        outcomes.sort_by_key(|o| o.job_id);

        let modeled_us = makespan as f64 * self.config.memory_cycle_ns / 1000.0;
        let stats = RuntimeStats {
            cancelled: sched_out.cancelled,
            expired: sched_out.expired,
            shards: self.shards,
            optimized_jobs: self.optimized_jobs.load(Ordering::Relaxed),
            instructions_eliminated: self.instructions_eliminated.load(Ordering::Relaxed),
            est_device_cycles_saved: self.est_device_cycles_saved.load(Ordering::Relaxed),
            makespan_cycles: makespan,
            jobs_per_us: if modeled_us > 0.0 {
                stats.jobs as f64 / modeled_us
            } else {
                0.0
            },
            queue_depth: sched_out.depth_hist,
            controller: *timing.stats(),
            bank_stats: timing.bank_stats().clone(),
            faults: FaultStats {
                protected_jobs,
                unverified_jobs,
                redispatches: sched_out.redispatches,
                scrubs: sched_out.scrubs,
                scrub: sched_out.scrub_total,
                suspect_banks: sched_out.suspect_banks,
                quarantined_banks: sched_out.quarantined_banks,
                degraded_capacity: sched_out.degraded_capacity,
                ..stats.faults
            },
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
            ..stats
        };
        if let Some(trace) = &self.trace {
            trace.flush();
        }
        Ok(RuntimeReport { outcomes, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::{Reorder, Replay};
    use crate::exec::ExecOutcome;
    use crate::session::{Completion, SlotMeta};
    use coruscant_mem::{DbcLocation, MemoryConfig};
    use coruscant_racetrack::Cost;

    /// What job `id` of chain A (10, 11) or chain B (12, 13) charges,
    /// per instruction: values whose `f64` sum depends on their order.
    fn charges(id: u64) -> Vec<f64> {
        match id {
            10 => vec![0.269, 1.695],
            11 => vec![1.528],
            12 => vec![329_562.123, 0.991],
            _ => vec![0.899],
        }
    }

    /// The charges of `ids`, added one by one in that order.
    fn summed(ids: &[u64]) -> f64 {
        ids.iter()
            .flat_map(|&id| charges(id))
            .fold(0.0, |t, e| t + e)
    }

    /// Replays one final attempt of each of `issued`, in that issue
    /// order, with chains A and B open; returns the session's energy.
    fn replayed(issued: &[u64]) -> f64 {
        let mut replay = Replay::new(&MemoryConfig::tiny(), None);
        replay.open_chain(10, 11);
        replay.open_chain(12, 13);
        for (seq, &id) in issued.iter().enumerate() {
            let instr_costs = (charges(id).into_iter())
                .map(|energy_pj| Cost {
                    cycles: 1,
                    energy_pj,
                })
                .collect();
            replay.push(Completion {
                seq: seq as u64,
                unit: DbcLocation::new(id as usize % 2, 0, 0, 0),
                slots: vec![SlotMeta {
                    job_id: id,
                    readouts: 0,
                    attempt: 0,
                    redispatches: 0,
                    last: true,
                    done: None,
                }],
                out: ExecOutcome {
                    outputs: Vec::new(),
                    instr_costs,
                    error: None,
                    replicas: 1,
                    faults_detected: 0,
                    retries: 0,
                    votes_overturned: 0,
                    verified: false,
                },
            });
        }
        replay.close_chains(u64::MAX);
        replay.timing.stats().energy_pj
    }

    #[test]
    fn chains_add_up_whole_whatever_the_issue_interleaving() {
        // Added in issue order, two interleavings disagree in the last place.
        let whole = summed(&[10, 11, 12, 13]);
        assert_ne!(summed(&[10, 12, 11, 13]).to_bits(), whole.to_bits());
        for issued in [[10, 11, 12, 13], [10, 12, 11, 13], [12, 10, 11, 13]] {
            assert_eq!(replayed(&issued).to_bits(), whole.to_bits(), "{issued:?}");
        }
    }

    #[test]
    fn a_chain_that_never_finishes_is_charged_by_the_next_to_close() {
        // Job 11 never runs (say, cancelled): B's close charges A first.
        assert_eq!(
            replayed(&[10, 12, 13]).to_bits(),
            summed(&[10, 12, 13]).to_bits()
        );
        // Nothing closes it: the drain does.
        assert_eq!(replayed(&[10]).to_bits(), summed(&[10]).to_bits());
    }

    /// Settles `(seq, item)` pairs in the given order and returns what
    /// left the buffer, in the order it left.
    fn passed(settles: &[(u64, Option<&'static str>)]) -> Vec<&'static str> {
        let mut reorder = Reorder::new();
        let mut out = Vec::new();
        for &(seq, item) in settles {
            reorder.settle(seq, item, |x| out.push(x));
        }
        out
    }

    #[test]
    fn acks_arriving_in_reverse_leave_in_seq_order() {
        let got = passed(&[
            (3, Some("d")),
            (2, Some("c")),
            (1, Some("b")),
            (0, Some("a")),
        ]);
        assert_eq!(got, ["a", "b", "c", "d"]);
    }

    #[test]
    fn a_lost_seq_in_the_middle_is_skipped() {
        let got = passed(&[(0, Some("a")), (2, Some("c")), (1, None), (3, Some("d"))]);
        assert_eq!(got, ["a", "c", "d"]);
        // Lost before anything behind it settled, and lost at the head.
        assert_eq!(
            passed(&[(1, None), (0, Some("a")), (2, Some("c"))]),
            ["a", "c"]
        );
        assert_eq!(passed(&[(0, None), (1, Some("b"))]), ["b"]);
    }

    #[test]
    fn one_slow_seq_holds_the_watermark_until_it_settles() {
        let mut reorder = Reorder::new();
        let mut out = Vec::new();
        for seq in 1..=5u64 {
            reorder.settle(seq, Some(seq), |x| out.push(x));
        }
        assert!(out.is_empty(), "seq 0 has not settled");
        assert_eq!((reorder.next, reorder.parked.len()), (0, 5));
        reorder.settle(0, Some(0), |x| out.push(x));
        assert_eq!(out, [0, 1, 2, 3, 4, 5]);
        assert_eq!((reorder.next, reorder.parked.len()), (6, 0));
        // In order from here on, nothing parks.
        reorder.settle(6, Some(6), |x| out.push(x));
        assert_eq!((out.len(), reorder.next, reorder.parked.len()), (7, 7, 0));
    }

    #[test]
    fn a_stale_ack_of_a_skipped_seq_is_dropped() {
        // Skipped while still ahead of the watermark, then reported late.
        let got = passed(&[
            (1, None),
            (1, Some("stale")),
            (0, Some("a")),
            (2, Some("c")),
        ]);
        assert_eq!(got, ["a", "c"]);
        // Reported after the watermark passed it.
        let got = passed(&[
            (0, Some("a")),
            (1, None),
            (2, Some("c")),
            (1, Some("stale")),
        ]);
        assert_eq!(got, ["a", "c"]);
    }
}
