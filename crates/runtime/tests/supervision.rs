//! Supervision-contract regressions: completed work survives a retired
//! shard, the poison quarantine rejects repeat offenders at admission,
//! and abandonment is always observable exactly once.

use coruscant_core::isa::{BlockSize, CpimInstr, CpimOpcode};
use coruscant_core::program::{PimProgram, Step};
use coruscant_mem::{DbcLocation, MemoryConfig, RowAddress};
use coruscant_runtime::{
    install_quiet_hook, ChaosAction, ChaosPlan, CrossingPoint, JobHandle, Placement, Runtime,
    RuntimeError, RuntimeOptions, ServeError, SuperviseOptions, WatchdogOptions,
};
use std::time::{Duration, Instant};

fn four_bank_config() -> MemoryConfig {
    MemoryConfig {
        banks: 4,
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

fn add_job(a: u64) -> PimProgram {
    let loc = DbcLocation::new(0, 0, 0, 0);
    PimProgram {
        steps: vec![
            Step::Load {
                addr: RowAddress::new(loc, 4),
                values: vec![a; 8],
                lane: 8,
            },
            Step::Load {
                addr: RowAddress::new(loc, 5),
                values: vec![9; 8],
                lane: 8,
            },
            Step::Exec(
                CpimInstr::new(
                    CpimOpcode::Add,
                    RowAddress::new(loc, 4),
                    2,
                    BlockSize::new(8).unwrap(),
                    Some(RowAddress::new(loc, 20)),
                )
                .unwrap(),
            ),
            Step::Readout {
                label: "sum".into(),
                addr: RowAddress::new(loc, 20),
                lane: 8,
            },
        ],
    }
}

/// Whether job 0's first attempt survives both worker crossing points
/// under `plan` — used to pick seeds that keep early jobs clean.
fn first_attempt_clean(plan: &ChaosPlan, job: u64) -> bool {
    plan.decide(CrossingPoint::WorkerStart, job, 0) == ChaosAction::None
        && plan.decide(CrossingPoint::WorkerReport, job, 0) == ChaosAction::None
}

/// Serves `n` add jobs and returns their handles, in submission order.
fn serve_all(runtime: &Runtime, n: u64) -> Vec<JobHandle> {
    let serve = |tag| runtime.serve(add_job(tag), Placement::Auto, None, true);
    (0..n).map(|tag| serve(tag).unwrap()).collect()
}

/// Regression (satellite b): a session whose only shard panics and is
/// retired used to return `WorkerLost`, discarding every job that had
/// already completed. The supervised `finish` must salvage those
/// completions from the scheduler's accounting instead.
#[test]
fn retired_shard_salvages_completed_jobs() {
    install_quiet_hook();
    // Half the jobs panic on start; pick a seed where the first jobs
    // complete before the first panic retires the single shard.
    let plan = (0..1000)
        .map(|seed| ChaosPlan::panics(seed, 500))
        .find(|p| {
            first_attempt_clean(p, 0)
                && first_attempt_clean(p, 1)
                && (2..12).any(|j| !first_attempt_clean(p, j))
        })
        .expect("a suitable seed exists in 0..1000");
    let runtime = Runtime::new(
        four_bank_config(),
        RuntimeOptions::default()
            .with_shards(1)
            .with_chaos(plan)
            .with_supervise(SuperviseOptions {
                max_restarts: 0, // first panic retires the shard
                max_job_retries: 0,
                drain_deadline_ms: 2_000,
                ..SuperviseOptions::default()
            }),
    )
    .expect("runtime starts");
    let handles = serve_all(&runtime, 12);
    let report = runtime
        .finish()
        .expect("a retired shard must not fail the session");
    let sup = report.stats.supervision;
    assert_eq!(sup.shards_retired, 1, "the only shard was retired");
    assert!(sup.panics_caught >= 1);
    // Every job resolved exactly once: completed or abandoned, and the
    // session counts each one once.
    let fates: Vec<bool> = handles
        .into_iter()
        .map(|h| match h.wait() {
            Ok(_) => true,
            Err(ServeError::Crashed) => false,
            Err(e) => panic!("job resolved {e}"),
        })
        .collect();
    assert!(fates[0], "jobs completed before the crash are salvaged");
    let done = fates.iter().filter(|&&ok| ok).count() as u64;
    assert_eq!(report.stats.jobs, done);
    assert_eq!(sup.abandoned_jobs, 12 - done);
}

/// The watchdog's poison registry quarantines a program fingerprint
/// after its attempts hang, and admission then rejects it with
/// [`RuntimeError::Poisoned`].
#[test]
fn poison_quarantine_rejects_at_admission() {
    install_quiet_hook();
    // Every attempt stalls well past the watchdog budget.
    let plan = ChaosPlan::stalls(11, 1000, 2_000);
    let runtime = Runtime::new(
        four_bank_config(),
        RuntimeOptions::default()
            .with_shards(2)
            .with_chaos(plan)
            .with_supervise(SuperviseOptions {
                max_job_retries: 0,
                backoff_base_ms: 1,
                drain_deadline_ms: 3_000,
                ..SuperviseOptions::default()
            })
            .with_watchdog(WatchdogOptions {
                enabled: true,
                base_ms: 50,
                per_step_us: 10,
                slack_pct: 100,
                poison_strikes: 1,
            }),
    )
    .expect("runtime starts");
    runtime
        .submit(add_job(1), Placement::Auto)
        .expect("first submission is admitted");
    // The stall is detected after the ~50ms budget; once the strike
    // lands, re-submitting the same program is refused at admission.
    let deadline = Instant::now() + Duration::from_secs(10);
    let fingerprint = loop {
        match runtime.submit(add_job(1), Placement::Auto) {
            Err(RuntimeError::Poisoned { fingerprint }) => break fingerprint,
            Ok(_) => {
                assert!(
                    Instant::now() < deadline,
                    "program was never quarantined within 10s"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    };
    assert_ne!(fingerprint, 0, "fingerprint is the canonical program hash");
    // A *different* program is still admitted.
    runtime
        .submit(add_job(2), Placement::Auto)
        .expect("quarantine is per-fingerprint, not global");
    let report = runtime.finish().expect("drain succeeds");
    let sup = report.stats.supervision;
    assert!(sup.hung_attempts >= 1, "the stall was classified hung");
    assert!(sup.quarantined_programs >= 1, "the fingerprint was struck");
}

/// Hung abandonment is typed: a watchdog give-up resolves its handle
/// [`ServeError::Hung`] and the stats count it.
#[test]
fn hung_jobs_abandon_with_hung_flag() {
    install_quiet_hook();
    let plan = ChaosPlan::stalls(23, 1000, 2_000);
    let runtime = Runtime::new(
        four_bank_config(),
        RuntimeOptions::default()
            .with_shards(2)
            .with_chaos(plan)
            .with_supervise(SuperviseOptions {
                max_job_retries: 0,
                backoff_base_ms: 1,
                drain_deadline_ms: 3_000,
                ..SuperviseOptions::default()
            })
            .with_watchdog(WatchdogOptions {
                enabled: true,
                base_ms: 50,
                per_step_us: 10,
                slack_pct: 100,
                poison_strikes: u32::MAX,
            }),
    )
    .expect("runtime starts");
    let handles = serve_all(&runtime, 3);
    let report = runtime.finish().expect("drain succeeds");
    assert!(report.stats.supervision.hung_attempts >= 1);
    assert!(report.stats.supervision.abandoned_jobs >= 1);
    let hung = handles
        .into_iter()
        .map(JobHandle::wait)
        .filter(|fate| *fate == Err(ServeError::Hung))
        .count();
    assert!(hung >= 1, "at least one abandonment was typed hung");
}
