//! Seeded chaos campaigns over the supervised runtime.
//!
//! Every campaign drives a session through a replayable [`ChaosPlan`]
//! (worker panics, stalls, delays at named crossing points) and asserts
//! the supervision contract:
//!
//! * **Exactly-once resolution** — every submitted job's handle resolves
//!   to outputs or to a typed abandonment, and the session's own
//!   accounting agrees: as many final attempts as completed handles, as
//!   many abandoned jobs as abandoned handles.
//! * **Replayability** — two sessions with the same seed resolve the
//!   same jobs to the same fates (and the same outputs for completions),
//!   across shard counts.
//! * **Bounded drain** — `finish()` returns within the configured drain
//!   deadline even when an attempt hangs forever.

use coruscant_core::isa::{BlockSize, CpimInstr, CpimOpcode};
use coruscant_core::program::{PimProgram, Step};
use coruscant_mem::{DbcLocation, FaultPlan, MemoryConfig, RowAddress};
use coruscant_racetrack::FaultConfig;
use coruscant_runtime::{
    install_quiet_hook, ChaosPlan, HealthPolicy, Placement, ProtectionPolicy, Runtime,
    RuntimeOptions, ServeError, SuperviseOptions, WatchdogOptions,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::{Duration, Instant};

/// Eight banks so shard counts up to 8 each own at least one bank.
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

/// A self-contained add job with a per-job operand so outputs identify
/// the job that produced them.
fn add_job(tag: u64) -> PimProgram {
    let loc = DbcLocation::new(0, 0, 0, 0);
    PimProgram {
        steps: vec![
            Step::Load {
                addr: RowAddress::new(loc, 4),
                values: vec![tag; 8],
                lane: 8,
            },
            Step::Load {
                addr: RowAddress::new(loc, 5),
                values: vec![3; 8],
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

/// How one job ended, normalized for cross-run comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Fate {
    /// Completed with these outputs.
    Done(Vec<(String, Vec<u64>)>),
    /// Abandoned by supervision (`hung`: as a hang, not a crash).
    Abandoned { hung: bool },
}

/// Runs one chaos campaign and returns every job's fate, keyed by id.
/// Panics (failing the test) if a handle resolved to anything else, or
/// if the session's accounting counts a job twice or not at all.
fn run_campaign(
    shards: usize,
    plan: ChaosPlan,
    jobs: u64,
    options: RuntimeOptions,
) -> BTreeMap<u64, Fate> {
    install_quiet_hook();
    let runtime = Runtime::new(
        eight_bank_config(),
        options.with_shards(shards).with_chaos(plan),
    )
    .expect("runtime starts");
    let handles: Vec<_> = (0..jobs)
        .map(|tag| {
            let submitted = runtime.serve(add_job(tag), Placement::Auto, None, true);
            submitted.expect("chaos never rejects at submit")
        })
        .collect();
    let report = runtime.finish().expect("supervised finish succeeds");

    let fates: BTreeMap<u64, Fate> = handles
        .into_iter()
        .map(|handle| {
            let id = handle.id();
            let fate = match handle.wait() {
                Ok(done) => Fate::Done(done.outputs),
                Err(ServeError::Hung) => Fate::Abandoned { hung: true },
                Err(ServeError::Crashed) => Fate::Abandoned { hung: false },
                Err(e) => panic!("job {id} resolved {e}"),
            };
            (id, fate)
        })
        .collect();
    assert_eq!(fates.len() as u64, jobs, "one handle per job");
    assert!(
        report.outcomes.is_empty(),
        "served outcomes stay with handles"
    );
    let done = fates
        .values()
        .filter(|f| matches!(f, Fate::Done(_)))
        .count();
    assert_eq!(
        report.stats.jobs, done as u64,
        "one final attempt per completion"
    );
    let abandoned = report.stats.supervision.abandoned_jobs;
    assert_eq!(
        abandoned,
        jobs - done as u64,
        "one abandonment per abandoned job"
    );
    fates
}

/// Options used by the campaigns: modest retry budget, fast restarts,
/// and a watchdog tight enough to catch the stall plans quickly.
fn campaign_options() -> RuntimeOptions {
    RuntimeOptions::default()
        .with_supervise(SuperviseOptions {
            max_restarts: u32::MAX,
            backoff_base_ms: 1,
            backoff_max_ms: 8,
            max_job_retries: 4,
            drain_deadline_ms: 10_000,
        })
        .with_watchdog(WatchdogOptions {
            enabled: true,
            base_ms: 200,
            per_step_us: 50,
            slack_pct: 400,
            poison_strikes: u32::MAX, // campaigns resubmit nothing; never quarantine
        })
}

#[test]
fn panic_plan_resolves_every_job_across_shard_counts() {
    let plan = ChaosPlan::panics(0xC0FFEE, 120);
    for shards in [1usize, 2, 4, 8] {
        let fates = run_campaign(shards, plan, 48, campaign_options());
        let done = fates
            .values()
            .filter(|f| matches!(f, Fate::Done(_)))
            .count();
        assert!(
            done > 0,
            "some jobs survive a 12% panic rate (shards={shards})"
        );
        for fate in fates.values() {
            if let Fate::Abandoned { hung } = fate {
                assert!(!hung, "panic plan abandons as crashes, not hangs");
            }
        }
    }
}

#[test]
fn stall_plan_classifies_hangs_and_still_resolves() {
    // Stalls far beyond the watchdog budget: every stalled attempt is
    // declared hung, its shard is replaced, and the job either retries
    // to completion or is abandoned as hung.
    let plan = ChaosPlan::stalls(0xBADCAB, 100, 3_000);
    let fates = run_campaign(4, plan, 32, campaign_options());
    let done = fates
        .values()
        .filter(|f| matches!(f, Fate::Done(_)))
        .count();
    assert!(done > 0, "unaffected jobs complete");
}

#[test]
fn mixed_plan_resolves_every_job() {
    let plan = ChaosPlan::mixed(0x5EED, 80, 2_000, 200);
    for shards in [2usize, 8] {
        run_campaign(shards, plan, 40, campaign_options());
    }
}

#[test]
fn same_seed_runs_resolve_identically() {
    let plan = ChaosPlan::panics(42, 150);
    for shards in [1usize, 4] {
        let a = run_campaign(shards, plan, 40, campaign_options());
        let b = run_campaign(shards, plan, 40, campaign_options());
        assert_eq!(a, b, "same seed, same fates and outputs (shards={shards})");
    }
}

#[test]
fn quiet_plan_changes_nothing() {
    // A zero-rate plan must not reroute scheduling observably: every job
    // completes with the same outputs as a plain session.
    let quiet = run_campaign(4, ChaosPlan::quiet(7), 24, RuntimeOptions::default());
    let runtime = Runtime::new(
        eight_bank_config(),
        RuntimeOptions::default().with_shards(4),
    )
    .expect("runtime starts");
    for tag in 0..24 {
        runtime.submit(add_job(tag), Placement::Auto).unwrap();
    }
    let plain = runtime.finish().expect("plain finish");
    assert_eq!(quiet.len(), plain.outcomes.len());
    for outcome in &plain.outcomes {
        assert_eq!(
            quiet.get(&outcome.job_id),
            Some(&Fate::Done(outcome.outputs.clone())),
            "job {} diverged under a quiet plan",
            outcome.job_id
        );
    }
}

#[test]
fn finish_returns_within_drain_deadline_despite_permanent_hang() {
    install_quiet_hook();
    // Every attempt stalls for a minute — far beyond the drain deadline
    // — and the watchdog is off, so nothing ever detaches the stalled
    // workers. The deadline alone must bound `finish()`.
    let plan = ChaosPlan::stalls(9, 1000, 60_000);
    let runtime = Runtime::new(
        eight_bank_config(),
        RuntimeOptions::default()
            .with_shards(2)
            .with_chaos(plan)
            .with_supervise(SuperviseOptions {
                drain_deadline_ms: 1_500,
                ..SuperviseOptions::default()
            }),
    )
    .expect("runtime starts");
    for tag in 0..4 {
        runtime.submit(add_job(tag), Placement::Auto).unwrap();
    }
    let begin = Instant::now();
    let report = runtime.finish().expect("deadline-bounded finish");
    let elapsed = begin.elapsed();
    assert!(
        elapsed < Duration::from_secs(8),
        "finish took {elapsed:?}, deadline was 1.5s"
    );
    assert!(report.outcomes.is_empty(), "every attempt was stalled");
    let sup = report.stats.supervision;
    assert!(
        sup.abandoned_jobs == 4 || sup.workers_lost > 0,
        "jobs were abandoned at the deadline: {sup:?}"
    );
}

#[test]
fn supervision_counters_reflect_injected_panics() {
    let plan = ChaosPlan::panics(0xFACADE, 200);
    install_quiet_hook();
    let runtime = Runtime::new(
        eight_bank_config(),
        campaign_options().with_shards(4).with_chaos(plan),
    )
    .expect("runtime starts");
    for tag in 0..40 {
        runtime.submit(add_job(tag), Placement::Auto).unwrap();
    }
    let report = runtime.finish().expect("finish");
    let sup = report.stats.supervision;
    assert!(sup.panics_caught > 0, "a 20% panic rate panics somewhere");
    assert!(sup.shard_restarts > 0, "panicked shards were restarted");
    assert!(
        sup.crash_redispatches + sup.abandoned_jobs > 0,
        "crashed work was re-dispatched or abandoned"
    );
}

/// A dispatch has one attempt number — verification re-dispatches plus
/// crash retries — and its `FaultDetected` trace event carries the same
/// one as the `Complete` record of its execution, also for a job that
/// was crash-retried before a protected attempt of it detected a device
/// fault.
#[test]
fn fault_detected_traces_the_attempt_that_was_issued() {
    install_quiet_hook();
    // Detected faults that followed a crash retry of the same job.
    let mut after_crash_retry = 0;
    for seed in 0..4u64 {
        let path = std::env::temp_dir().join(format!("coruscant_chaos_attempts_{seed}.jsonl"));
        let options = RuntimeOptions {
            trace_path: Some(path.clone()),
            ..campaign_options()
        };
        let runtime = Runtime::new(
            eight_bank_config(),
            options
                .with_shards(4)
                .with_chaos(ChaosPlan::panics(0xA77E + seed, 250))
                .with_faults(
                    FaultPlan::uniform(FaultConfig::NONE.with_tr_fault_rate(2e-3), seed).unwrap(),
                )
                // No in-place retry: every mismatching pair goes back to
                // the scheduler unverified and is re-dispatched.
                .with_protection(ProtectionPolicy::Reexecute { max_retries: 0 })
                .with_health(HealthPolicy {
                    suspect_after: 10_000,
                    quarantine_after: 100_000,
                    ..HealthPolicy::default()
                }),
        )
        .expect("runtime starts");
        for tag in 0..64 {
            runtime.submit(add_job(tag), Placement::Auto).unwrap();
        }
        runtime.finish().expect("supervised finish succeeds");

        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        // Attempts that executed, as the replay numbers them (an attempt
        // that died in a chaos panic is never accounted).
        let mut executed: HashSet<(u64, u64)> = HashSet::new();
        let mut faults: Vec<(u64, u64, u64)> = Vec::new();
        let mut redispatches: HashMap<u64, u64> = HashMap::new();
        for line in text.lines() {
            let serde::json::Value::Object(event) = serde::json::parse(line).unwrap() else {
                panic!("trace line is not an object: {line}");
            };
            let (kind, serde::json::Value::Object(fields)) = &event[0] else {
                continue;
            };
            let field = |name: &str| {
                let (_, value) = fields.iter().find(|(k, _)| k == name).unwrap();
                value.as_u64().unwrap()
            };
            match kind.as_str() {
                "Redispatch" => *redispatches.entry(field("job")).or_insert(0) += 1,
                "Complete" => {
                    executed.insert((field("job"), field("attempt")));
                }
                "FaultDetected" => {
                    let (job, attempt) = (field("job"), field("attempt"));
                    let redispatched = redispatches.get(&job).copied().unwrap_or(0);
                    faults.push((job, attempt, redispatched));
                }
                _ => {}
            }
        }
        // The replay may account an attempt after later events, so the
        // check waits for the whole trace.
        for (job, attempt, redispatched) in faults {
            assert!(
                executed.contains(&(job, attempt)),
                "seed {seed}: job {job} traced a fault on attempt {attempt}, \
                 which never executed"
            );
            if attempt > redispatched {
                after_crash_retry += 1;
            }
        }
    }
    assert!(
        after_crash_retry > 0,
        "the campaigns must detect a fault on a crash-retried job"
    );
}

/// An outcome is its job's final attempt by construction, so a job the
/// supervisor gave up reports no outcome — also when an earlier,
/// unverified attempt of it had completed before it was re-dispatched.
/// (The drain-time "latest completed seq wins" reported that superseded
/// attempt next to the abandonment.) `run_campaign` fails on any job the
/// session's accounting counts both ways.
#[test]
fn an_abandoned_job_reports_no_superseded_outcome() {
    let mut abandoned = 0;
    for seed in 0..4u64 {
        // No crash retry and no in-place compare retry: a panic abandons
        // the attempt's job, a mismatching pair re-dispatches it.
        let options = campaign_options()
            .with_supervise(SuperviseOptions {
                max_job_retries: 0,
                ..campaign_options().supervise
            })
            .with_faults(
                FaultPlan::uniform(FaultConfig::NONE.with_tr_fault_rate(4e-3), seed).unwrap(),
            )
            .with_protection(ProtectionPolicy::Reexecute { max_retries: 0 })
            .with_health(HealthPolicy {
                suspect_after: 10_000,
                quarantine_after: 100_000,
                ..HealthPolicy::default()
            });
        let fates = run_campaign(4, ChaosPlan::panics(0xAB + seed, 250), 64, options);
        abandoned += fates
            .values()
            .filter(|f| matches!(f, Fate::Abandoned { .. }))
            .count();
    }
    assert!(abandoned > 0, "the campaigns must abandon a job");
}
