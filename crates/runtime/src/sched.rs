//! The bank-parallel scheduler: per-bank FIFOs issued in circular-bank
//! order (paper §V-C).
//!
//! Placement resolves a job to a PIM unit in one place — the `Placer`,
//! which both scheduling engines consult — and the unit travels beside
//! the job from then on: into the FIFO of the unit's bank, out with the
//! issued dispatch, and on to the executor, which alone turns it into
//! addresses. Issue walks the banks in a circular fashion — one job from each
//! non-empty FIFO per sweep — so consecutive issues target *different*
//! banks whenever possible and their internal PIM latencies overlap.
//! Same-bank jobs stay FIFO within their queue and therefore serialize,
//! exactly as the bank-occupancy model in the memory controller charges
//! them.

use crate::job::{PimJob, Placement};
use crate::stats::Histogram;
use coruscant_mem::{DbcLocation, MemoryConfig, MemoryController};
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

/// A group of jobs issued together under one sequence number: either a
/// single job, or ≥2 same-unit jobs the batch fuser splices into one
/// program.
#[derive(Debug)]
pub(crate) struct IssuedBatch {
    /// Issue sequence number (global, dense from 0) shared by the group.
    pub seq: u64,
    /// Member jobs, in FIFO order.
    pub jobs: Vec<PimJob>,
    /// The PIM unit placement chose for every member (its bank is the
    /// FIFO the group left). Members also share one binding kind: all
    /// bound to the unit's DBC, or all tile-relative.
    pub unit: DbcLocation,
}

/// Picks PIM units: a circular cursor over a unit list, shared by the
/// classic scheduler (over every unit) and each parallel domain (over
/// the units on its banks).
pub(crate) struct Placer {
    /// Every PIM unit, bank-major (what [`Placement::Unit`] indexes).
    units: Vec<DbcLocation>,
    /// The units the cursor walks, in the same order.
    ring: Vec<DbcLocation>,
    cursor: usize,
    dispatch: DispatchMode,
}

impl Placer {
    /// A placer whose cursor walks the units `owned` accepts.
    pub(crate) fn new(
        config: &MemoryConfig,
        dispatch: DispatchMode,
        owned: impl Fn(&DbcLocation) -> bool,
    ) -> Placer {
        let geometry = MemoryController::new(config.clone());
        let count = geometry.pim_unit_count();
        let units: Vec<DbcLocation> = (0..count).map(|i| geometry.pim_unit(i)).collect();
        Placer {
            ring: units.iter().copied().filter(owned).collect(),
            units,
            cursor: 0,
            dispatch,
        }
    }

    /// The unit `placement` names outright, if it names a usable one:
    /// [`Placement::Fixed`] always, [`Placement::Unit`] and single-bank
    /// [`Placement::Auto`] unless `blocked`. `None` asks for a
    /// [`Placer::pick`].
    pub(crate) fn named(
        &self,
        placement: Placement,
        blocked: impl Fn(DbcLocation) -> bool,
    ) -> Option<DbcLocation> {
        let unit = match placement {
            Placement::Fixed(loc) => return Some(loc),
            Placement::Unit(idx) => self.units[idx % self.units.len()],
            Placement::Auto if self.dispatch == DispatchMode::SingleBank => self.units[0],
            Placement::Auto | Placement::Resident(_) => return None,
        };
        (!blocked(unit)).then_some(unit)
    }

    /// The next unit in circular order (bank-major: consecutive picks
    /// land on consecutive banks, §V-C), skipping `excluded` units and —
    /// when the ring has alternatives — `avoid`'s bank. Falls back to
    /// plain circular order if every unit is skipped.
    pub(crate) fn pick(
        &mut self,
        avoid: Option<usize>,
        excluded: impl Fn(DbcLocation) -> bool,
    ) -> DbcLocation {
        let n = self.ring.len();
        for _ in 0..n {
            let unit = self.advance();
            if !(excluded(unit) || (avoid == Some(unit.bank) && n > 1)) {
                return unit;
            }
        }
        self.advance()
    }

    /// The unit under the cursor, which then moves on.
    fn advance(&mut self) -> DbcLocation {
        let unit = self.ring[self.cursor % self.ring.len()];
        self.cursor += 1;
        unit
    }
}

/// How `BankScheduler::issue_next_batch_grouped` collects the members
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
    /// hazard-free: bound to the DBC of a *different* unit, so the
    /// reorder cannot change what either job observes. A tile-relative
    /// job, which reaches its whole tile, or an empty one is a barrier
    /// that stops the scan. Deterministic for a given enqueue order, but
    /// the issue order differs from [`BatchGrouping::Consecutive`] —
    /// hence opt-in.
    SameUnit,
}

/// Per-bank FIFO queues plus the circular issue cursor.
#[derive(Debug)]
pub(crate) struct BankScheduler {
    /// Each job beside the unit placement chose for it.
    fifos: Vec<VecDeque<(PimJob, DbcLocation)>>,
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
    pub(crate) fn new(banks: usize) -> BankScheduler {
        BankScheduler::with_seq_stride(banks, 0, 1)
    }

    /// Creates a scheduler whose issue sequence numbers start at `start`
    /// and advance by `stride`. The parallel engine gives domain `d` of
    /// `S` the stream `d, d+S, d+2S, …` so sequence numbers stay
    /// globally unique without a shared counter, and the merged drain
    /// can order completions by `seq` alone.
    pub(crate) fn with_seq_stride(banks: usize, start: u64, stride: u64) -> BankScheduler {
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
    pub(crate) fn with_policy(mut self, policy: IssuePolicy) -> BankScheduler {
        self.policy = policy;
        self
    }

    /// Jobs enqueued but not yet issued.
    pub(crate) fn pending(&self) -> usize {
        self.pending
    }

    /// The distribution of per-bank queue depths sampled at enqueue time.
    pub(crate) fn depth_histogram(&self) -> &Histogram {
        &self.depth_hist
    }

    /// Queues a job for `unit` on the unit's bank: at the back under
    /// [`IssuePolicy::Fifo`], or stably sorted by deadline under
    /// [`IssuePolicy::Edf`].
    pub(crate) fn enqueue(&mut self, job: PimJob, unit: DbcLocation) {
        let fifo = &mut self.fifos[unit.bank];
        let pos = match (self.policy, job.deadline) {
            (IssuePolicy::Fifo, _) | (IssuePolicy::Edf, None) => fifo.len(),
            (IssuePolicy::Edf, Some(d)) => fifo
                .iter()
                .position(|(queued, _)| queued.deadline.is_none_or(|qd| qd > d))
                .unwrap_or(fifo.len()),
        };
        fifo.insert(pos, (job, unit));
        self.depth_hist.record(fifo.len() as u64);
        self.pending += 1;
    }

    /// Issues the next dispatch in circular-bank order: scan the banks
    /// the `eligible` predicate accepts starting at the cursor, take the
    /// head of the first non-empty FIFO, and advance the cursor past
    /// that bank so the next issue prefers a *different* bank. The
    /// classic scheduler excludes banks of down shards and, when device
    /// faults are configured, banks at the in-flight cap, so a failing
    /// bank cannot absorb unbounded work before its health score catches
    /// up.
    ///
    /// Up to `max_jobs` jobs queued for the *same PIM unit under the
    /// same binding* join the head in one [`IssuedBatch`] under a single
    /// sequence number: its consecutive successors always, jobs deeper
    /// in the FIFO as `grouping` allows (see [`BatchGrouping`]). An
    /// empty program never shares a dispatch. With `max_jobs <= 1` every
    /// batch is a singleton, reproducing the unbatched issue order
    /// exactly.
    pub(crate) fn issue_next_batch_grouped<F: FnMut(usize) -> bool>(
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
            let fifo = &mut self.fifos[bank];
            let Some((first, unit)) = fifo.pop_front() else {
                continue;
            };
            self.cursor = (bank + 1) % banks;
            let seq = self.next_seq;
            self.next_seq += self.seq_stride;
            let tile_relative = first.placement.tile_relative();
            // Whether a queued job may share the head's dispatch.
            let joins = |(job, at): &(PimJob, DbcLocation)| {
                *at == unit
                    && job.placement.tile_relative() == tile_relative
                    && !job.program.is_empty()
            };
            let mut jobs = vec![first];
            if !jobs[0].program.is_empty() {
                // Head run: consecutive same-unit jobs never reorder.
                while jobs.len() < max_jobs && fifo.front().is_some_and(joins) {
                    jobs.push(fifo.pop_front().expect("front checked").0);
                }
                // Gather past hazard-free interveners: every hopped job
                // is confined to another unit's DBC (disjoint state).
                let mut idx = 0;
                while grouping == BatchGrouping::SameUnit
                    && !tile_relative
                    && jobs.len() < max_jobs
                    && idx < fifo.len()
                {
                    let (job, _) = &fifo[idx];
                    if job.placement.tile_relative() || job.program.is_empty() {
                        break;
                    }
                    if joins(&fifo[idx]) {
                        jobs.push(fifo.remove(idx).expect("index bounds checked").0);
                    } else {
                        idx += 1;
                    }
                }
            }
            self.pending -= jobs.len();
            return Some(IssuedBatch { seq, jobs, unit });
        }
        None
    }

    /// Removes and returns every queued job of `bank`, in FIFO order —
    /// used when a bank is quarantined and its backlog must be re-routed
    /// (which assigns each job a new unit).
    pub(crate) fn drain_bank(&mut self, bank: usize) -> Vec<PimJob> {
        let drained: Vec<PimJob> = self.fifos[bank].drain(..).map(|(job, _)| job).collect();
        self.pending -= drained.len();
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coruscant_core::program::{PimProgram, Step};
    use coruscant_mem::RowAddress;

    /// A job with an empty program (it never batches).
    fn job(id: u64) -> PimJob {
        PimJob::verbatim(id, PimProgram::default(), Placement::Auto)
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

    /// A one-step job, so batch grouping sees it. Its program names no
    /// unit; the one it is enqueued for decides the grouping.
    fn job_with(id: u64, placement: Placement) -> PimJob {
        let program = PimProgram {
            steps: vec![Step::Readout {
                label: format!("j{id}"),
                addr: RowAddress::new(DbcLocation::new(0, 0, 0, 0), 4),
                lane: 8,
            }],
        };
        PimJob::verbatim(id, program, placement)
    }

    fn step_job(id: u64) -> PimJob {
        job_with(id, Placement::Auto)
    }

    /// Some unit of `bank`.
    fn on(bank: usize) -> DbcLocation {
        DbcLocation::new(bank, 0, 0, 0)
    }

    fn next(s: &mut BankScheduler, max_jobs: usize, grouping: BatchGrouping) -> IssuedBatch {
        s.issue_next_batch_grouped(max_jobs, grouping, |_| true)
            .expect("work is queued")
    }

    /// Issues everything pending one job at a time, in circular-bank
    /// order: `(seq, job id, bank)` per issue.
    fn issue_all(s: &mut BankScheduler) -> Vec<(u64, u64, usize)> {
        let mut out = Vec::new();
        while let Some(b) = s.issue_next_batch_grouped(1, BatchGrouping::Consecutive, |_| true) {
            out.push((b.seq, b.jobs[0].id, b.unit.bank));
        }
        out
    }

    fn ids(batch: &IssuedBatch) -> Vec<u64> {
        batch.jobs.iter().map(|j| j.id).collect()
    }

    #[test]
    fn circular_issue_interleaves_banks() {
        let mut s = BankScheduler::new(4);
        // Two jobs per bank on banks 0 and 1, one on bank 3.
        s.enqueue(job(0), on(0));
        s.enqueue(job(1), on(0));
        s.enqueue(job(2), on(1));
        s.enqueue(job(3), on(1));
        s.enqueue(job(4), on(3));
        assert_eq!(s.pending(), 5);

        let order: Vec<(u64, usize)> = issue_all(&mut s).iter().map(|i| (i.1, i.2)).collect();
        // Sweep 1: bank 0 (job 0), bank 1 (job 2), bank 3 (job 4);
        // sweep 2: bank 0 (job 1), bank 1 (job 3).
        assert_eq!(order, vec![(0, 0), (2, 1), (4, 3), (1, 0), (3, 1)]);
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn same_bank_jobs_stay_fifo() {
        let mut s = BankScheduler::new(2);
        for id in 0..5 {
            s.enqueue(job(id), on(1));
        }
        let ids: Vec<u64> = issue_all(&mut s).iter().map(|i| i.1).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn seq_numbers_are_dense_and_ordered() {
        let mut s = BankScheduler::new(3);
        for id in 0..7 {
            s.enqueue(job(id), on((id % 3) as usize));
        }
        let seqs: Vec<u64> = issue_all(&mut s).iter().map(|i| i.0).collect();
        assert_eq!(seqs, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn ineligible_banks_are_skipped_until_allowed() {
        let mut s = BankScheduler::new(3);
        s.enqueue(job(0), on(0));
        s.enqueue(job(1), on(1));
        // Bank 0 gated: the sweep starts at the cursor but takes bank 1.
        let gated = |s: &mut BankScheduler| {
            s.issue_next_batch_grouped(1, BatchGrouping::Consecutive, |b| b != 0)
        };
        let first = gated(&mut s).unwrap();
        assert_eq!((ids(&first), first.unit), (vec![1], on(1)));
        // Nothing else is eligible.
        assert!(gated(&mut s).is_none());
        assert_eq!(s.pending(), 1);
        // Once ungated, bank 0's job issues with the next dense seq.
        assert_eq!(issue_all(&mut s), vec![(1, 0, 0)]);
    }

    #[test]
    fn strided_seqs_are_disjoint_across_domains() {
        // Two domains with stride 2: evens and odds, no collisions.
        let mut a = BankScheduler::with_seq_stride(2, 0, 2);
        let mut b = BankScheduler::with_seq_stride(2, 1, 2);
        for id in 0..4 {
            a.enqueue(job(id), on((id % 2) as usize));
            b.enqueue(job(10 + id), on((id % 2) as usize));
        }
        let sa: Vec<u64> = issue_all(&mut a).iter().map(|i| i.0).collect();
        let sb: Vec<u64> = issue_all(&mut b).iter().map(|i| i.0).collect();
        assert_eq!(sa, vec![0, 2, 4, 6]);
        assert_eq!(sb, vec![1, 3, 5, 7]);
    }

    #[test]
    fn drain_bank_empties_only_that_bank() {
        let mut s = BankScheduler::new(2);
        s.enqueue(job(0), on(0));
        s.enqueue(job(1), on(1));
        s.enqueue(job(2), on(1));
        let drained: Vec<u64> = s.drain_bank(1).iter().map(|j| j.id).collect();
        assert_eq!(drained, vec![1, 2]);
        assert_eq!(s.pending(), 1);
        assert_eq!(issue_all(&mut s), vec![(0, 0, 0)]);
        assert!(s.drain_bank(1).is_empty());
    }

    #[test]
    fn batch_issue_groups_consecutive_same_unit_jobs() {
        let u0 = DbcLocation::new(0, 0, 0, 0);
        let u1 = DbcLocation::new(0, 1, 0, 0); // same bank, different unit
        let mut s = BankScheduler::new(2);
        s.enqueue(step_job(0), u0);
        s.enqueue(step_job(1), u0);
        s.enqueue(step_job(2), u1);
        s.enqueue(step_job(3), u0);
        // First batch: jobs 0 and 1 (same unit); job 2 breaks the run.
        let b = next(&mut s, 8, BatchGrouping::Consecutive);
        assert_eq!((b.seq, b.unit, ids(&b)), (0, u0, vec![0, 1]));
        let b = next(&mut s, 8, BatchGrouping::Consecutive);
        assert_eq!((b.seq, b.unit, ids(&b)), (1, u1, vec![2]));
        let b = next(&mut s, 8, BatchGrouping::Consecutive);
        assert_eq!((b.seq, b.unit, ids(&b)), (2, u0, vec![3]));
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn batch_issue_respects_max_jobs_and_singleton_mode() {
        let mut s = BankScheduler::new(1);
        for id in 0..5 {
            s.enqueue(step_job(id), on(0));
        }
        let b = next(&mut s, 3, BatchGrouping::Consecutive);
        assert_eq!(b.jobs.len(), 3, "cap respected");
        // max_jobs = 1 degenerates to unbatched issue.
        let b = next(&mut s, 1, BatchGrouping::Consecutive);
        assert_eq!(ids(&b), vec![3]);
        assert_eq!(s.pending(), 1);
    }

    #[test]
    fn same_unit_grouping_gathers_past_confined_interveners() {
        let u0 = DbcLocation::new(0, 0, 0, 0);
        let u1 = DbcLocation::new(0, 1, 0, 0);
        let mut s = BankScheduler::new(1);
        s.enqueue(step_job(0), u0);
        s.enqueue(step_job(1), u1); // intervener confined to another unit
        s.enqueue(step_job(2), u0);
        s.enqueue(step_job(3), u0);
        let b = next(&mut s, 8, BatchGrouping::SameUnit);
        assert_eq!(ids(&b), vec![0, 2, 3], "u0 jobs gathered past the u1 job");
        // The hopped intervener issues next, still FIFO.
        let b = next(&mut s, 8, BatchGrouping::SameUnit);
        assert_eq!(ids(&b), vec![1]);
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn same_unit_grouping_stops_at_a_tile_relative_barrier() {
        let u0 = DbcLocation::new(0, 0, 0, 0);
        let u1 = DbcLocation::new(0, 1, 0, 0);
        let mut s = BankScheduler::new(1);
        s.enqueue(step_job(0), u0);
        // Hosted on u1, but it reaches every DBC of its tile: a hazard.
        s.enqueue(job_with(1, Placement::Resident(0)), u1);
        s.enqueue(step_job(2), u0);
        let b = next(&mut s, 8, BatchGrouping::SameUnit);
        assert_eq!(
            ids(&b),
            vec![0],
            "job 2 must not be pulled ahead of the tile-relative job"
        );
    }

    #[test]
    fn a_dispatch_holds_one_binding_kind() {
        let u0 = DbcLocation::new(0, 0, 0, 0);
        let mut s = BankScheduler::new(1);
        s.enqueue(job_with(0, Placement::Resident(0)), u0);
        s.enqueue(job_with(1, Placement::Resident(0)), u0);
        s.enqueue(step_job(2), u0);
        s.enqueue(step_job(3), u0);
        s.enqueue(job_with(4, Placement::Resident(0)), u0);
        // Tile-relative jobs run together, but only as a head run: the
        // gather never moves one.
        let b = next(&mut s, 8, BatchGrouping::SameUnit);
        assert_eq!(ids(&b), vec![0, 1]);
        let b = next(&mut s, 8, BatchGrouping::SameUnit);
        assert_eq!(ids(&b), vec![2, 3], "the gather stops at job 4");
        let b = next(&mut s, 8, BatchGrouping::SameUnit);
        assert_eq!(ids(&b), vec![4]);
    }

    #[test]
    fn consecutive_grouping_ignores_non_adjacent_same_unit_jobs() {
        let u0 = DbcLocation::new(0, 0, 0, 0);
        let u1 = DbcLocation::new(0, 1, 0, 0);
        let mut s = BankScheduler::new(1);
        s.enqueue(step_job(0), u0);
        s.enqueue(step_job(1), u1);
        s.enqueue(step_job(2), u0);
        let b = next(&mut s, 8, BatchGrouping::Consecutive);
        assert_eq!(b.jobs.len(), 1, "default grouping never reorders");
    }

    #[test]
    fn empty_programs_never_batch() {
        let mut s = BankScheduler::new(1);
        s.enqueue(job(0), on(0));
        s.enqueue(job(1), on(0));
        let b = next(&mut s, 8, BatchGrouping::Consecutive);
        assert_eq!(b.jobs.len(), 1, "empty jobs issue alone");
        assert_eq!(s.pending(), 1);
    }

    #[test]
    fn depth_histogram_sees_queue_buildup() {
        let mut s = BankScheduler::new(1);
        for id in 0..4 {
            s.enqueue(job(id), on(0));
        }
        let h = s.depth_histogram();
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), 4);
    }

    #[test]
    fn edf_issues_earliest_deadline_first_within_a_bank() {
        let mut s = BankScheduler::new(1).with_policy(IssuePolicy::Edf);
        s.enqueue(job_due(0, 300), on(0));
        s.enqueue(job_due(1, 100), on(0));
        s.enqueue(job(2), on(0)); // deadline-free: sorts last
        s.enqueue(job_due(3, 200), on(0));
        let ids: Vec<u64> = issue_all(&mut s).iter().map(|i| i.1).collect();
        assert_eq!(ids, vec![1, 3, 0, 2]);
    }

    #[test]
    fn edf_breaks_deadline_ties_in_arrival_order() {
        let mut s = BankScheduler::new(1).with_policy(IssuePolicy::Edf);
        s.enqueue(job_due(0, 100), on(0));
        s.enqueue(job_due(1, 100), on(0));
        s.enqueue(job_due(2, 50), on(0));
        s.enqueue(job_due(3, 100), on(0));
        let ids: Vec<u64> = issue_all(&mut s).iter().map(|i| i.1).collect();
        assert_eq!(ids, vec![2, 0, 1, 3], "equal deadlines stay FIFO");
    }

    #[test]
    fn edf_without_deadlines_is_bit_identical_to_fifo() {
        let mut fifo = BankScheduler::new(3);
        let mut edf = BankScheduler::new(3).with_policy(IssuePolicy::Edf);
        for id in 0..12 {
            fifo.enqueue(job(id), on((id % 3) as usize));
            edf.enqueue(job(id), on((id % 3) as usize));
        }
        assert_eq!(issue_all(&mut fifo), issue_all(&mut edf));
    }

    #[test]
    fn edf_keeps_cross_bank_circular_order() {
        // EDF reorders only *within* a bank; the circular sweep still
        // alternates banks.
        let mut s = BankScheduler::new(2).with_policy(IssuePolicy::Edf);
        s.enqueue(job_due(0, 500), on(0));
        s.enqueue(job_due(1, 10), on(0));
        s.enqueue(job_due(2, 900), on(1));
        let order: Vec<(u64, usize)> = issue_all(&mut s).iter().map(|i| (i.1, i.2)).collect();
        assert_eq!(order, vec![(1, 0), (2, 1), (0, 0)]);
    }

    #[test]
    fn edf_batch_grouping_runs_in_deadline_order() {
        let mut s = BankScheduler::new(1).with_policy(IssuePolicy::Edf);
        let due_at = |id: u64, ms: u64| PimJob {
            deadline: Some(base_instant() + std::time::Duration::from_millis(ms)),
            ..step_job(id)
        };
        s.enqueue(due_at(0, 300), on(0));
        s.enqueue(due_at(1, 100), on(0));
        s.enqueue(due_at(2, 200), on(0));
        // The head run groups same-unit jobs in the deadline-sorted
        // queue order.
        let b = next(&mut s, 8, BatchGrouping::Consecutive);
        assert_eq!(ids(&b), vec![1, 2, 0]);
    }

    fn tiny_placer(dispatch: DispatchMode, owned: impl Fn(&DbcLocation) -> bool) -> Placer {
        // 4 banks × 2 subarrays × 1 tile × 1 PIM DBC: eight units.
        let config = MemoryConfig {
            banks: 4,
            tiles_per_subarray: 1,
            ..MemoryConfig::tiny()
        };
        Placer::new(&config, dispatch, owned)
    }

    #[test]
    fn the_placer_walks_its_ring_in_bank_major_order() {
        let mut p = tiny_placer(DispatchMode::Circular, |_| true);
        let n = p.units.len();
        let picks: Vec<DbcLocation> = (0..n + 1).map(|_| p.pick(None, |_| false)).collect();
        assert_eq!(picks[..n], p.units[..], "one lap is every unit in order");
        assert_eq!(picks[n], p.units[0], "and it wraps");
        assert!(picks.windows(2).all(|w| w[1].bank == (w[0].bank + 1) % 4));
        // A domain's ring holds only the units on its banks.
        let mut odd = tiny_placer(DispatchMode::Circular, |u| u.bank % 2 == 1);
        assert!((0..n).all(|_| odd.pick(None, |_| false).bank % 2 == 1));
    }

    #[test]
    fn picks_skip_excluded_and_avoided_units_while_alternatives_exist() {
        let mut p = tiny_placer(DispatchMode::Circular, |_| true);
        let n = p.units.len();
        assert!((0..n).all(|_| [0, 3].contains(&p.pick(Some(1), |u| u.bank == 2).bank)));
        // Everything excluded: plain circular order, one full lap spent.
        let before = p.cursor;
        assert_eq!(p.pick(None, |_| true), p.units[before % n]);
        assert_eq!(p.cursor, before + n + 1);
        // A one-unit ring cannot avoid its only bank.
        let only = p.units[0];
        let mut one = tiny_placer(DispatchMode::Circular, |u| *u == only);
        assert_eq!(one.pick(Some(only.bank), |_| false), only);
    }

    #[test]
    fn placements_name_their_unit_unless_it_is_blocked() {
        let p = tiny_placer(DispatchMode::Circular, |_| true);
        let far = DbcLocation::new(3, 1, 0, 0);
        assert_eq!(p.named(Placement::Fixed(far), |_| true), Some(far));
        assert_eq!(p.named(Placement::Unit(5), |_| false), Some(p.units[5]));
        assert_eq!(
            p.named(Placement::Unit(5 + p.units.len()), |_| false),
            Some(p.units[5]),
            "unit indices wrap"
        );
        assert_eq!(p.named(Placement::Unit(5), |u| u == p.units[5]), None);
        assert_eq!(p.named(Placement::Auto, |_| false), None);
        assert_eq!(p.named(Placement::Resident(7), |_| false), None);
        // Single-bank mode names unit 0 for every `Auto` job.
        let single = tiny_placer(DispatchMode::SingleBank, |_| true);
        assert_eq!(single.named(Placement::Auto, |_| false), Some(p.units[0]));
        assert_eq!(single.named(Placement::Auto, |_| true), None);
    }
}
