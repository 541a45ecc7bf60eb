//! Deadline-aware scheduling end to end: EDF-off bit-identity (the QoS
//! machinery must be invisible when disabled), EDF issue ordering, and
//! the stalled-scheduler expiry regression in every engine.

use coruscant::core::program::PimProgram;
use coruscant::mem::MemoryConfig;
use coruscant::runtime::{
    IssuePolicy, Placement, Runtime, RuntimeOptions, RuntimeReport, RuntimeStats, SchedMode,
    SchedStats, WatchdogOptions,
};
use coruscant::workloads::serve::all_workload_programs;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

fn eight_bank_config() -> MemoryConfig {
    MemoryConfig {
        banks: 8,
        subarrays_per_bank: 2,
        tiles_per_subarray: 2,
        dbcs_per_tile: 4,
        pim_dbcs_per_tile: 1,
        nanowires_per_dbc: 64,
        rows_per_dbc: 32,
        trd: 7,
        bus_mhz: 1000,
        memory_cycle_ns: 1.25,
    }
}

fn corpus(repeats: usize) -> Vec<PimProgram> {
    let base = all_workload_programs(&eight_bank_config());
    let mut programs = Vec::with_capacity(base.len() * repeats);
    for _ in 0..repeats {
        programs.extend(base.iter().cloned());
    }
    programs
}

/// How a session's jobs carry deadlines: none at all, or a uniformly
/// generous one that can never expire during the test.
#[derive(Clone, Copy)]
enum Deadlines {
    None,
    Generous,
}

/// Runs one paused-start session: every submission is staged before the
/// scheduler gate opens, so classic-engine issue order is deterministic
/// and two sessions with the same effective policy compare bit-exactly.
fn run_staged(
    mut options: RuntimeOptions,
    programs: &[PimProgram],
    deadlines: Deadlines,
) -> RuntimeReport {
    // The whole corpus stages behind the closed gate, so the queue must
    // hold it outright — default capacity would deadlock the submitter
    // against a scheduler that is not draining yet.
    options.queue_capacity = options.queue_capacity.max(programs.len() + 1);
    let runtime = Runtime::new(eight_bank_config(), options.paused()).expect("runtime starts");
    let due = match deadlines {
        Deadlines::None => None,
        Deadlines::Generous => Some(Instant::now() + Duration::from_secs(3600)),
    };
    for program in programs {
        runtime
            .submit_due(program.clone(), Placement::Auto, due)
            .expect("submission accepted");
    }
    runtime.resume();
    runtime.finish().expect("session drains")
}

/// Stats with the scheduler-occupancy profile blanked: every other
/// field is modeled (deterministic), but `sched` carries measured
/// thread-CPU micros that legitimately differ run to run.
fn modeled(stats: &RuntimeStats) -> RuntimeStats {
    let mut stats = stats.clone();
    stats.sched = SchedStats::default();
    stats
}

fn outputs_by_job(report: &RuntimeReport) -> BTreeMap<u64, Vec<(String, Vec<u64>)>> {
    report
        .outcomes
        .iter()
        .map(|o| (o.job_id, o.outputs.clone()))
        .collect()
}

/// Classic engine: with the policy off (FIFO) the whole QoS layer must
/// be invisible — a FIFO session whose jobs carry generous deadlines,
/// and an EDF session whose jobs carry none, both reproduce the
/// baseline *full* outcome stream (seqs, banks, and modeled times
/// included), bit for bit.
#[test]
fn classic_fifo_bit_identical_with_qos_machinery_engaged() {
    let programs = corpus(3);
    let baseline = run_staged(RuntimeOptions::default(), &programs, Deadlines::None);
    assert_eq!(baseline.outcomes.len(), programs.len());

    // Deadlines present, policy off: the expiry scan sees every job but
    // drops none, and FIFO order is untouched.
    let fifo_due = run_staged(RuntimeOptions::default(), &programs, Deadlines::Generous);
    assert_eq!(fifo_due.outcomes, baseline.outcomes);
    assert_eq!(modeled(&fifo_due.stats), modeled(&baseline.stats));

    // EDF enabled, no deadlines: every job sorts to the FIFO position.
    let edf_none = run_staged(
        RuntimeOptions::default().with_issue_policy(IssuePolicy::Edf),
        &programs,
        Deadlines::None,
    );
    assert_eq!(edf_none.outcomes, baseline.outcomes);
    assert_eq!(modeled(&edf_none.stats), modeled(&baseline.stats));
}

/// Parallel engine, every shard count: same invisibility requirement,
/// compared on the placement-independent outcome map (work stealing
/// makes seqs and banks legitimately nondeterministic).
#[test]
fn parallel_fifo_outcomes_unchanged_by_qos_machinery() {
    let programs = corpus(3);
    let baseline = run_staged(RuntimeOptions::default(), &programs, Deadlines::None);
    let want = outputs_by_job(&baseline);
    for shards in [1usize, 2, 4, 8] {
        let par = |policy: IssuePolicy, deadlines: Deadlines| {
            run_staged(
                RuntimeOptions::default()
                    .with_shards(shards)
                    .with_sched_mode(SchedMode::Parallel)
                    .with_issue_policy(policy),
                &programs,
                deadlines,
            )
        };
        let fifo_due = par(IssuePolicy::Fifo, Deadlines::Generous);
        assert_eq!(
            outputs_by_job(&fifo_due),
            want,
            "shards={shards}: generous deadlines changed FIFO outcomes"
        );
        assert_eq!(fifo_due.stats.expired, 0);
        let edf_none = par(IssuePolicy::Edf, Deadlines::None);
        assert_eq!(
            outputs_by_job(&edf_none),
            want,
            "shards={shards}: deadline-free EDF changed outcomes"
        );
    }
}

/// EDF actually reorders: jobs staged behind a closed gate with
/// *reversed* deadlines issue earliest-deadline-first. Submission order
/// is 0..n with job 0 carrying the latest deadline, so under EDF the
/// per-bank issue sequence runs opposite to submission order.
#[test]
fn edf_issues_earliest_deadline_first() {
    const JOBS: u64 = 6;
    let programs = corpus(1);
    let program = &programs[0];
    let runtime = Runtime::new(
        eight_bank_config(),
        RuntimeOptions::default()
            .with_issue_policy(IssuePolicy::Edf)
            .paused(),
    )
    .expect("runtime starts");
    let base = Instant::now() + Duration::from_secs(600);
    let mut ids = Vec::new();
    for i in 0..JOBS {
        // Same unit => same bank queue; later submissions get *earlier*
        // deadlines.
        let due = base + Duration::from_secs(600 - 60 * i);
        ids.push(
            runtime
                .submit_due(program.clone(), Placement::Unit(0), Some(due))
                .expect("accepted"),
        );
    }
    runtime.resume();
    let report = runtime.finish().expect("drains");
    assert_eq!(report.outcomes.len(), JOBS as usize);
    let mut by_seq: Vec<(u64, u64)> = report.outcomes.iter().map(|o| (o.seq, o.job_id)).collect();
    by_seq.sort_unstable();
    let issue_order: Vec<u64> = by_seq.into_iter().map(|(_, id)| id).collect();
    let mut want = ids.clone();
    want.reverse();
    assert_eq!(issue_order, want, "EDF must issue in deadline order");
}

/// The stalled-scheduler regression: jobs whose deadline passes while
/// the scheduler gate is closed are dropped at issue time in *every*
/// engine — no bank ever sees them, the report carries no outcome, and
/// `RuntimeStats::expired` accounts for each one.
#[test]
fn stalled_scheduler_expires_overdue_jobs_in_every_engine() {
    const JOBS: u64 = 5;
    let configs: [(&str, RuntimeOptions); 3] = [
        ("classic", RuntimeOptions::default()),
        (
            // The one classic loop with its watchdog layer on: heartbeats
            // and the ≈1 ms scan timer must not disturb issue-time expiry.
            "classic+watchdog",
            RuntimeOptions::default().with_watchdog(WatchdogOptions {
                enabled: true,
                ..WatchdogOptions::default()
            }),
        ),
        (
            "parallel",
            RuntimeOptions::default()
                .with_shards(2)
                .with_sched_mode(SchedMode::Parallel),
        ),
    ];
    let programs = corpus(1);
    let program = &programs[0];
    for (name, options) in configs {
        let runtime = Runtime::new(eight_bank_config(), options.paused()).expect("runtime starts");
        let due = Instant::now() + Duration::from_millis(20);
        for _ in 0..JOBS {
            runtime
                .submit_due(program.clone(), Placement::Auto, Some(due))
                .expect("accepted");
        }
        std::thread::sleep(Duration::from_millis(60));
        runtime.resume();
        let report = runtime.finish().expect("drains");
        assert_eq!(
            report.outcomes.len(),
            0,
            "{name}: expired jobs must not reach a bank"
        );
        assert_eq!(
            report.stats.expired, JOBS,
            "{name}: every staged job expires"
        );
        assert_eq!(report.stats.jobs, 0, "{name}: no job retires");
    }
}

/// Mixed staging: overdue and live jobs interleaved behind a closed
/// gate — only the overdue ones expire, the rest complete normally.
#[test]
fn mixed_overdue_and_live_jobs_split_cleanly() {
    let programs = corpus(1);
    let program = &programs[0];
    let runtime = Runtime::new(eight_bank_config(), RuntimeOptions::default().paused())
        .expect("runtime starts");
    let overdue = Instant::now() + Duration::from_millis(15);
    let live = Instant::now() + Duration::from_secs(3600);
    let mut expect_live = Vec::new();
    for i in 0..8u64 {
        let due = if i % 2 == 0 { overdue } else { live };
        let id = runtime
            .submit_due(program.clone(), Placement::Auto, Some(due))
            .expect("accepted");
        if i % 2 == 1 {
            expect_live.push(id);
        }
    }
    std::thread::sleep(Duration::from_millis(50));
    runtime.resume();
    let report = runtime.finish().expect("drains");
    let done: Vec<u64> = report.outcomes.iter().map(|o| o.job_id).collect();
    assert_eq!(done, expect_live, "live jobs complete in id order");
    assert_eq!(report.stats.expired, 4);
}
