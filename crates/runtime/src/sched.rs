//! The bank-parallel scheduler: per-bank FIFOs issued in circular-bank
//! order (paper §V-C).
//!
//! Jobs land in the FIFO of the bank their placement resolves to. Issue
//! then walks the banks in a circular fashion — one job from each
//! non-empty FIFO per sweep — so consecutive issues target *different*
//! banks whenever possible and their internal PIM latencies overlap.
//! Same-bank jobs stay FIFO within their queue and therefore serialize,
//! exactly as the bank-occupancy model in the memory controller charges
//! them.

use crate::job::PimJob;
use crate::stats::Histogram;
use coruscant_core::program::Step;
use coruscant_mem::DbcLocation;
use std::collections::VecDeque;

/// How the runtime places `Placement::Auto` jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchMode {
    /// Successive jobs go to successive PIM units in bank-major order, so
    /// consecutive jobs occupy different banks (high-throughput mode,
    /// §V-C).
    #[default]
    Circular,
    /// Every job goes to PIM unit 0 — the paper's low-cost baseline where
    /// one bank serves all PIM traffic and operations serialize.
    SingleBank,
}

/// Within-bank issue order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IssuePolicy {
    /// Arrival order: jobs leave a bank's queue exactly as enqueued.
    #[default]
    Fifo,
    /// Earliest-deadline-first within each bank: an enqueued job is
    /// stably inserted before the first queued job with a *strictly*
    /// later deadline; deadline-free jobs sort last (`None` =
    /// +infinity). Equal deadlines — and every deadline-free job —
    /// keep arrival order, so the issue stream stays deterministic and
    /// a deadline-free workload is bit-identical to
    /// [`IssuePolicy::Fifo`]. Cross-bank order is untouched: the
    /// circular sweep, batch grouping, and seq assignment all operate
    /// on the (now deadline-sorted) queues unchanged.
    Edf,
}

/// A job bound to its resolved bank, carrying its issue sequence number
/// once the scheduler emits it.
#[derive(Debug)]
pub struct IssuedJob {
    /// Issue sequence number (global, dense from 0).
    pub seq: u64,
    /// The job, already retargeted to its unit.
    pub job: PimJob,
    /// Resolved bank.
    pub bank: usize,
}

/// A group of jobs issued together under one sequence number: either a
/// single job, or ≥2 consecutive same-unit jobs the batch fuser splices
/// into one program.
#[derive(Debug)]
pub struct IssuedBatch {
    /// Issue sequence number (global, dense from 0) shared by the group.
    pub seq: u64,
    /// Member jobs, in FIFO order; every member targets the same unit
    /// when `jobs.len() >= 2`.
    pub jobs: Vec<PimJob>,
    /// Resolved bank.
    pub bank: usize,
}

/// The PIM unit a placed job's program targets (`None` for an empty
/// program).
fn job_unit(job: &PimJob) -> Option<DbcLocation> {
    job.program.steps.first().map(Step::target)
}

/// The single PIM unit *every* step of the job targets, or `None` for an
/// empty or multi-unit program. Gathering non-consecutive jobs reorders
/// them past interveners, so it needs this stronger confinement check —
/// a first-step match is not enough.
fn confined_unit(job: &PimJob) -> Option<DbcLocation> {
    let mut steps = job.program.steps.iter();
    let first = steps.next().map(Step::target)?;
    steps.all(|s| s.target() == first).then_some(first)
}

/// How [`BankScheduler::issue_next_batch_grouped`] collects the members
/// of a batched dispatch from a bank's FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchGrouping {
    /// Group only *consecutive* same-unit jobs at the head of the FIFO.
    /// Never reorders anything, so it is always semantics-preserving and
    /// keeps the exact issue order of the unbatched scheduler.
    #[default]
    Consecutive,
    /// Additionally gather non-consecutive same-unit jobs from deeper in
    /// the FIFO, hopping over intervening jobs that are provably
    /// hazard-free (confined to a *different* unit, so the reorder
    /// cannot change what either job observes). Any job not confined to
    /// a single unit is a barrier that stops the scan. Deterministic for
    /// a given enqueue order, but the issue order differs from
    /// [`BatchGrouping::Consecutive`] — hence opt-in.
    SameUnit,
}

/// Per-bank FIFO queues plus the circular issue cursor.
#[derive(Debug)]
pub struct BankScheduler {
    fifos: Vec<VecDeque<PimJob>>,
    /// Next bank the circular sweep starts from.
    cursor: usize,
    /// Next issue sequence number.
    next_seq: u64,
    /// Gap between successive sequence numbers (1 for the classic
    /// global scheduler; the domain count for a parallel domain).
    seq_stride: u64,
    /// Queue depth observed at each enqueue.
    depth_hist: Histogram,
    pending: usize,
    /// Within-bank issue order (enforced at enqueue).
    policy: IssuePolicy,
}

impl BankScheduler {
    /// Creates a scheduler over `banks` bank queues.
    pub fn new(banks: usize) -> BankScheduler {
        BankScheduler::with_seq_stride(banks, 0, 1)
    }

    /// Creates a scheduler whose issue sequence numbers start at `start`
    /// and advance by `stride`. The parallel engine gives domain `d` of
    /// `S` the stream `d, d+S, d+2S, …` so sequence numbers stay
    /// globally unique without a shared counter, and the merged drain
    /// can order completions by `seq` alone.
    pub fn with_seq_stride(banks: usize, start: u64, stride: u64) -> BankScheduler {
        assert!(stride > 0, "seq stride must be positive");
        BankScheduler {
            fifos: (0..banks).map(|_| VecDeque::new()).collect(),
            cursor: 0,
            next_seq: start,
            seq_stride: stride,
            depth_hist: Histogram::new(),
            pending: 0,
            policy: IssuePolicy::Fifo,
        }
    }

    /// Sets the within-bank issue order (builder style).
    pub fn with_policy(mut self, policy: IssuePolicy) -> BankScheduler {
        self.policy = policy;
        self
    }

    /// Jobs enqueued but not yet issued.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// The distribution of per-bank queue depths sampled at enqueue time.
    pub fn depth_histogram(&self) -> &Histogram {
        &self.depth_hist
    }

    /// Adds a job to its bank's queue: at the back under
    /// [`IssuePolicy::Fifo`], or stably sorted by deadline under
    /// [`IssuePolicy::Edf`].
    pub fn enqueue(&mut self, job: PimJob, bank: usize) {
        let fifo = &mut self.fifos[bank];
        match self.policy {
            IssuePolicy::Fifo => fifo.push_back(job),
            IssuePolicy::Edf => {
                let pos = match job.deadline {
                    None => fifo.len(),
                    Some(d) => fifo
                        .iter()
                        .position(|queued| queued.deadline.is_none_or(|qd| qd > d))
                        .unwrap_or(fifo.len()),
                };
                fifo.insert(pos, job);
            }
        }
        self.depth_hist.record(fifo.len() as u64);
        self.pending += 1;
    }

    /// Issues the next job in circular-bank order: scan banks starting at
    /// the cursor, take the head of the first non-empty FIFO, and advance
    /// the cursor past that bank so the next issue prefers a *different*
    /// bank.
    pub fn issue_next(&mut self) -> Option<IssuedJob> {
        self.issue_next_where(|_| true)
    }

    /// Like [`BankScheduler::issue_next`], but only considers banks the
    /// `eligible` predicate accepts — the classic scheduler excludes
    /// banks of down shards and, when device faults are configured,
    /// banks at the in-flight cap, so a failing bank cannot absorb
    /// unbounded work before its health score catches up.
    pub fn issue_next_where<F: FnMut(usize) -> bool>(
        &mut self,
        mut eligible: F,
    ) -> Option<IssuedJob> {
        let banks = self.fifos.len();
        for off in 0..banks {
            let bank = (self.cursor + off) % banks;
            if !eligible(bank) {
                continue;
            }
            if let Some(job) = self.fifos[bank].pop_front() {
                self.cursor = (bank + 1) % banks;
                self.pending -= 1;
                let seq = self.next_seq;
                self.next_seq += self.seq_stride;
                return Some(IssuedJob { seq, job, bank });
            }
        }
        None
    }

    /// Like [`BankScheduler::issue_next_where`], but greedily groups up
    /// to `max_jobs` consecutive head-of-FIFO jobs that target the *same
    /// PIM unit* into one [`IssuedBatch`] under a single sequence number.
    /// With `max_jobs <= 1` every batch is a singleton, reproducing the
    /// unbatched issue order exactly.
    pub fn issue_next_batch_where<F: FnMut(usize) -> bool>(
        &mut self,
        max_jobs: usize,
        eligible: F,
    ) -> Option<IssuedBatch> {
        self.issue_next_batch_grouped(max_jobs, BatchGrouping::Consecutive, eligible)
    }

    /// Like [`BankScheduler::issue_next_batch_where`], with the member
    /// collection strategy chosen by `grouping` (see [`BatchGrouping`]).
    pub fn issue_next_batch_grouped<F: FnMut(usize) -> bool>(
        &mut self,
        max_jobs: usize,
        grouping: BatchGrouping,
        mut eligible: F,
    ) -> Option<IssuedBatch> {
        let banks = self.fifos.len();
        for off in 0..banks {
            let bank = (self.cursor + off) % banks;
            if !eligible(bank) {
                continue;
            }
            let Some(first) = self.fifos[bank].pop_front() else {
                continue;
            };
            self.cursor = (bank + 1) % banks;
            self.pending -= 1;
            let seq = self.next_seq;
            self.next_seq += self.seq_stride;
            let unit = job_unit(&first);
            let mut jobs = vec![first];
            if unit.is_some() {
                // Head run: consecutive same-unit jobs never reorder.
                while jobs.len() < max_jobs
                    && self.fifos[bank]
                        .front()
                        .is_some_and(|j| job_unit(j) == unit)
                {
                    jobs.push(self.fifos[bank].pop_front().expect("front checked"));
                    self.pending -= 1;
                }
                if grouping == BatchGrouping::SameUnit {
                    // Gather past hazard-free interveners: a candidate
                    // must be *confined* to the batch unit, every hopped
                    // job confined to a different unit (disjoint state),
                    // and any non-confined job is a barrier.
                    let mut idx = 0;
                    while jobs.len() < max_jobs && idx < self.fifos[bank].len() {
                        match confined_unit(&self.fifos[bank][idx]) {
                            Some(u) if Some(u) == unit => {
                                jobs.push(
                                    self.fifos[bank].remove(idx).expect("index bounds checked"),
                                );
                                self.pending -= 1;
                            }
                            Some(_) => idx += 1,
                            None => break,
                        }
                    }
                }
            }
            return Some(IssuedBatch { seq, jobs, bank });
        }
        None
    }

    /// Removes and returns every queued job of `bank`, in FIFO order —
    /// used when a bank is quarantined and its backlog must be re-routed.
    pub fn drain_bank(&mut self, bank: usize) -> Vec<PimJob> {
        let drained: Vec<PimJob> = self.fifos[bank].drain(..).collect();
        self.pending -= drained.len();
        drained
    }

    /// Issues everything pending, in circular-bank order.
    pub fn issue_all(&mut self) -> Vec<IssuedJob> {
        let mut out = Vec::with_capacity(self.pending);
        while let Some(issued) = self.issue_next() {
            out.push(issued);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Placement;
    use coruscant_core::program::PimProgram;
    use coruscant_mem::RowAddress;
    use std::sync::Arc;

    fn job(id: u64) -> PimJob {
        PimJob {
            id,
            program: Arc::new(PimProgram::default()),
            placement: Placement::Auto,
            deadline: None,
        }
    }

    fn job_due(id: u64, deadline_ms: u64) -> PimJob {
        PimJob {
            deadline: Some(base_instant() + std::time::Duration::from_millis(deadline_ms)),
            ..job(id)
        }
    }

    /// A fixed epoch so deadline offsets are comparable within a test.
    fn base_instant() -> std::time::Instant {
        use std::sync::OnceLock;
        static BASE: OnceLock<std::time::Instant> = OnceLock::new();
        *BASE.get_or_init(std::time::Instant::now)
    }

    /// A one-step program pinned to `unit`, so batch grouping sees it.
    fn job_at(id: u64, unit: DbcLocation) -> PimJob {
        PimJob {
            id,
            program: Arc::new(PimProgram {
                steps: vec![Step::Readout {
                    label: format!("j{id}"),
                    addr: RowAddress::new(unit, 4),
                    lane: 8,
                }],
            }),
            placement: Placement::Fixed(unit),
            deadline: None,
        }
    }

    #[test]
    fn circular_issue_interleaves_banks() {
        let mut s = BankScheduler::new(4);
        // Two jobs per bank on banks 0 and 1, one on bank 3.
        s.enqueue(job(0), 0);
        s.enqueue(job(1), 0);
        s.enqueue(job(2), 1);
        s.enqueue(job(3), 1);
        s.enqueue(job(4), 3);
        assert_eq!(s.pending(), 5);

        let order: Vec<(u64, usize)> = s.issue_all().iter().map(|i| (i.job.id, i.bank)).collect();
        // Sweep 1: bank 0 (job 0), bank 1 (job 2), bank 3 (job 4);
        // sweep 2: bank 0 (job 1), bank 1 (job 3).
        assert_eq!(order, vec![(0, 0), (2, 1), (4, 3), (1, 0), (3, 1)]);
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn same_bank_jobs_stay_fifo() {
        let mut s = BankScheduler::new(2);
        for id in 0..5 {
            s.enqueue(job(id), 1);
        }
        let ids: Vec<u64> = s.issue_all().iter().map(|i| i.job.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn seq_numbers_are_dense_and_ordered() {
        let mut s = BankScheduler::new(3);
        for id in 0..7 {
            s.enqueue(job(id), (id % 3) as usize);
        }
        let seqs: Vec<u64> = s.issue_all().iter().map(|i| i.seq).collect();
        assert_eq!(seqs, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn ineligible_banks_are_skipped_until_allowed() {
        let mut s = BankScheduler::new(3);
        s.enqueue(job(0), 0);
        s.enqueue(job(1), 1);
        // Bank 0 gated: the sweep starts at the cursor but takes bank 1.
        let first = s.issue_next_where(|b| b != 0).unwrap();
        assert_eq!((first.job.id, first.bank), (1, 1));
        // Nothing else is eligible.
        assert!(s.issue_next_where(|b| b != 0).is_none());
        assert_eq!(s.pending(), 1);
        // Once ungated, bank 0's job issues with the next dense seq.
        let second = s.issue_next().unwrap();
        assert_eq!((second.job.id, second.bank, second.seq), (0, 0, 1));
    }

    #[test]
    fn strided_seqs_are_disjoint_across_domains() {
        // Two domains with stride 2: evens and odds, no collisions.
        let mut a = BankScheduler::with_seq_stride(2, 0, 2);
        let mut b = BankScheduler::with_seq_stride(2, 1, 2);
        for id in 0..4 {
            a.enqueue(job(id), (id % 2) as usize);
            b.enqueue(job(10 + id), (id % 2) as usize);
        }
        let sa: Vec<u64> = a.issue_all().iter().map(|i| i.seq).collect();
        let sb: Vec<u64> = b.issue_all().iter().map(|i| i.seq).collect();
        assert_eq!(sa, vec![0, 2, 4, 6]);
        assert_eq!(sb, vec![1, 3, 5, 7]);
    }

    #[test]
    fn drain_bank_empties_only_that_bank() {
        let mut s = BankScheduler::new(2);
        s.enqueue(job(0), 0);
        s.enqueue(job(1), 1);
        s.enqueue(job(2), 1);
        let drained: Vec<u64> = s.drain_bank(1).iter().map(|j| j.id).collect();
        assert_eq!(drained, vec![1, 2]);
        assert_eq!(s.pending(), 1);
        assert_eq!(s.issue_next().unwrap().job.id, 0);
        assert!(s.drain_bank(1).is_empty());
    }

    #[test]
    fn batch_issue_groups_consecutive_same_unit_jobs() {
        let u0 = DbcLocation::new(0, 0, 0, 0);
        let u1 = DbcLocation::new(0, 1, 0, 0); // same bank, different unit
        let mut s = BankScheduler::new(2);
        s.enqueue(job_at(0, u0), 0);
        s.enqueue(job_at(1, u0), 0);
        s.enqueue(job_at(2, u1), 0);
        s.enqueue(job_at(3, u0), 0);
        // First batch: jobs 0 and 1 (same unit); job 2 breaks the run.
        let b = s.issue_next_batch_where(8, |_| true).unwrap();
        let ids: Vec<u64> = b.jobs.iter().map(|j| j.id).collect();
        assert_eq!((b.seq, b.bank, ids), (0, 0, vec![0, 1]));
        let b = s.issue_next_batch_where(8, |_| true).unwrap();
        assert_eq!(b.jobs.len(), 1);
        assert_eq!((b.seq, b.jobs[0].id), (1, 2));
        let b = s.issue_next_batch_where(8, |_| true).unwrap();
        assert_eq!((b.seq, b.jobs[0].id), (2, 3));
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn batch_issue_respects_max_jobs_and_singleton_mode() {
        let u0 = DbcLocation::new(0, 0, 0, 0);
        let mut s = BankScheduler::new(1);
        for id in 0..5 {
            s.enqueue(job_at(id, u0), 0);
        }
        let b = s.issue_next_batch_where(3, |_| true).unwrap();
        assert_eq!(b.jobs.len(), 3, "cap respected");
        // max_jobs = 1 degenerates to unbatched issue.
        let b = s.issue_next_batch_where(1, |_| true).unwrap();
        assert_eq!(b.jobs.len(), 1);
        assert_eq!(b.jobs[0].id, 3);
        assert_eq!(s.pending(), 1);
    }

    /// A program with steps on two units — a grouping hazard barrier.
    fn job_spanning(id: u64, a: DbcLocation, b: DbcLocation) -> PimJob {
        PimJob {
            id,
            program: Arc::new(PimProgram {
                steps: vec![
                    Step::Readout {
                        label: format!("j{id}a"),
                        addr: RowAddress::new(a, 4),
                        lane: 8,
                    },
                    Step::Readout {
                        label: format!("j{id}b"),
                        addr: RowAddress::new(b, 4),
                        lane: 8,
                    },
                ],
            }),
            placement: Placement::Fixed(a),
            deadline: None,
        }
    }

    #[test]
    fn same_unit_grouping_gathers_past_confined_interveners() {
        let u0 = DbcLocation::new(0, 0, 0, 0);
        let u1 = DbcLocation::new(0, 1, 0, 0);
        let mut s = BankScheduler::new(1);
        s.enqueue(job_at(0, u0), 0);
        s.enqueue(job_at(1, u1), 0); // intervener confined to another unit
        s.enqueue(job_at(2, u0), 0);
        s.enqueue(job_at(3, u0), 0);
        let b = s
            .issue_next_batch_grouped(8, BatchGrouping::SameUnit, |_| true)
            .unwrap();
        let ids: Vec<u64> = b.jobs.iter().map(|j| j.id).collect();
        assert_eq!(ids, vec![0, 2, 3], "u0 jobs gathered past the u1 job");
        // The hopped intervener issues next, still FIFO.
        let b = s
            .issue_next_batch_grouped(8, BatchGrouping::SameUnit, |_| true)
            .unwrap();
        assert_eq!(b.jobs.len(), 1);
        assert_eq!(b.jobs[0].id, 1);
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn same_unit_grouping_stops_at_multi_unit_barrier() {
        let u0 = DbcLocation::new(0, 0, 0, 0);
        let u1 = DbcLocation::new(0, 1, 0, 0);
        let mut s = BankScheduler::new(1);
        s.enqueue(job_at(0, u0), 0);
        s.enqueue(job_spanning(1, u1, u0), 0); // touches u0: hazard
        s.enqueue(job_at(2, u0), 0);
        let b = s
            .issue_next_batch_grouped(8, BatchGrouping::SameUnit, |_| true)
            .unwrap();
        assert_eq!(
            b.jobs.len(),
            1,
            "job 2 must not be pulled ahead of the spanning job"
        );
        assert_eq!(b.jobs[0].id, 0);
    }

    #[test]
    fn consecutive_grouping_ignores_non_adjacent_same_unit_jobs() {
        let u0 = DbcLocation::new(0, 0, 0, 0);
        let u1 = DbcLocation::new(0, 1, 0, 0);
        let mut s = BankScheduler::new(1);
        s.enqueue(job_at(0, u0), 0);
        s.enqueue(job_at(1, u1), 0);
        s.enqueue(job_at(2, u0), 0);
        let b = s
            .issue_next_batch_grouped(8, BatchGrouping::Consecutive, |_| true)
            .unwrap();
        assert_eq!(b.jobs.len(), 1, "default grouping never reorders");
    }

    #[test]
    fn empty_programs_never_batch() {
        let mut s = BankScheduler::new(1);
        s.enqueue(job(0), 0);
        s.enqueue(job(1), 0);
        let b = s.issue_next_batch_where(8, |_| true).unwrap();
        assert_eq!(b.jobs.len(), 1, "unit-less jobs issue alone");
    }

    #[test]
    fn depth_histogram_sees_queue_buildup() {
        let mut s = BankScheduler::new(1);
        for id in 0..4 {
            s.enqueue(job(id), 0);
        }
        let h = s.depth_histogram();
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), 4);
    }

    #[test]
    fn edf_issues_earliest_deadline_first_within_a_bank() {
        let mut s = BankScheduler::new(1).with_policy(IssuePolicy::Edf);
        s.enqueue(job_due(0, 300), 0);
        s.enqueue(job_due(1, 100), 0);
        s.enqueue(job(2), 0); // deadline-free: sorts last
        s.enqueue(job_due(3, 200), 0);
        let ids: Vec<u64> = s.issue_all().iter().map(|i| i.job.id).collect();
        assert_eq!(ids, vec![1, 3, 0, 2]);
    }

    #[test]
    fn edf_breaks_deadline_ties_in_arrival_order() {
        let mut s = BankScheduler::new(1).with_policy(IssuePolicy::Edf);
        s.enqueue(job_due(0, 100), 0);
        s.enqueue(job_due(1, 100), 0);
        s.enqueue(job_due(2, 50), 0);
        s.enqueue(job_due(3, 100), 0);
        let ids: Vec<u64> = s.issue_all().iter().map(|i| i.job.id).collect();
        assert_eq!(ids, vec![2, 0, 1, 3], "equal deadlines stay FIFO");
    }

    #[test]
    fn edf_without_deadlines_is_bit_identical_to_fifo() {
        let mut fifo = BankScheduler::new(3);
        let mut edf = BankScheduler::new(3).with_policy(IssuePolicy::Edf);
        for id in 0..12 {
            fifo.enqueue(job(id), (id % 3) as usize);
            edf.enqueue(job(id), (id % 3) as usize);
        }
        let a: Vec<(u64, u64, usize)> = fifo
            .issue_all()
            .iter()
            .map(|i| (i.seq, i.job.id, i.bank))
            .collect();
        let b: Vec<(u64, u64, usize)> = edf
            .issue_all()
            .iter()
            .map(|i| (i.seq, i.job.id, i.bank))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn edf_keeps_cross_bank_circular_order() {
        // EDF reorders only *within* a bank; the circular sweep still
        // alternates banks.
        let mut s = BankScheduler::new(2).with_policy(IssuePolicy::Edf);
        s.enqueue(job_due(0, 500), 0);
        s.enqueue(job_due(1, 10), 0);
        s.enqueue(job_due(2, 900), 1);
        let order: Vec<(u64, usize)> = s.issue_all().iter().map(|i| (i.job.id, i.bank)).collect();
        assert_eq!(order, vec![(1, 0), (2, 1), (0, 0)]);
    }

    #[test]
    fn edf_batch_grouping_runs_in_deadline_order() {
        let u0 = DbcLocation::new(0, 0, 0, 0);
        let mut s = BankScheduler::new(1).with_policy(IssuePolicy::Edf);
        let due_at = |id: u64, ms: u64| PimJob {
            deadline: Some(base_instant() + std::time::Duration::from_millis(ms)),
            ..job_at(id, u0)
        };
        s.enqueue(due_at(0, 300), 0);
        s.enqueue(due_at(1, 100), 0);
        s.enqueue(due_at(2, 200), 0);
        // The head run groups same-unit jobs in the deadline-sorted
        // queue order.
        let b = s.issue_next_batch_where(8, |_| true).unwrap();
        let ids: Vec<u64> = b.jobs.iter().map(|j| j.id).collect();
        assert_eq!(ids, vec![1, 2, 0]);
    }
}
