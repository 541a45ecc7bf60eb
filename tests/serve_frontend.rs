//! End-to-end tests of the async serving frontend (`coruscant-server`)
//! over the full workload corpus: determinism versus the direct runtime
//! path, overload shedding, deadline expiry, and explicit cancellation.

use coruscant::mem::{DbcLocation, FaultPlan, MemoryConfig};
use coruscant::racetrack::FaultConfig;
use coruscant::runtime::{
    run_batch, HealthPolicy, Placement, ProtectionPolicy, Runtime, RuntimeError, RuntimeOptions,
};
use coruscant::server::{
    AdmissionOptions, Priority, Rejected, ServeError, Server, ServerError, ServerOptions,
    SubmitOptions,
};
use coruscant::workloads::serve::{all_workload_programs, serve_programs_streamed};
use std::time::{Duration, Instant};

/// Runs the corpus both ways — direct [`run_batch`] and through a
/// [`coruscant::server::Client`] stream — and asserts bit-identical
/// labeled outputs, member by member in submission order.
fn assert_server_matches_direct(options: RuntimeOptions) {
    let config = MemoryConfig::tiny();
    let programs = all_workload_programs(&config);
    let n = programs.len();

    let direct = run_batch(&config, programs.clone(), options.clone()).unwrap();
    let server_options = ServerOptions {
        runtime: options,
        admission: AdmissionOptions::default(),
        ..ServerOptions::default()
    };
    let (served, stats) = serve_programs_streamed(&config, programs, server_options).unwrap();

    assert_eq!(direct.outcomes.len(), n);
    assert_eq!(served.len(), n);
    assert_eq!(stats.completed, n as u64);
    assert!(stats.balanced(), "{stats:?}");
    for (i, (direct_out, served_out)) in direct.outcomes.iter().zip(&served).enumerate() {
        assert_eq!(
            direct_out.outputs, served_out.outputs,
            "member {i}: served outputs must be bit-identical to the direct runtime"
        );
    }
    // The wrapped runtime saw exactly the same work.
    assert_eq!(stats.runtime.jobs, direct.stats.jobs);
}

#[test]
fn server_outputs_bit_identical_to_direct_runtime() {
    assert_server_matches_direct(RuntimeOptions::default());
}

#[test]
fn server_outputs_bit_identical_under_faults_and_reexecute() {
    let plan = FaultPlan::uniform(FaultConfig::NONE.with_tr_fault_rate(2e-3), 0xFA117).unwrap();
    let health = HealthPolicy {
        suspect_after: 10_000,
        quarantine_after: 100_000,
        scrub_on_suspect: false,
        ..HealthPolicy::default()
    };
    let options = RuntimeOptions::default()
        .with_faults(plan)
        .with_health(health)
        .with_protection(ProtectionPolicy::Reexecute { max_retries: 6 });
    assert_server_matches_direct(options);
}

#[test]
fn overload_shedding_is_typed_and_balanced() {
    let config = MemoryConfig::tiny();
    let programs = all_workload_programs(&config);
    // Gate the scheduler so the queue fills deterministically; queue of 4
    // puts Normal's high-water mark at ceil(0.75 * 4) = 3.
    let mut runtime = RuntimeOptions::default().paused();
    runtime.queue_capacity = 4;
    let server = Server::start(
        config,
        ServerOptions {
            runtime,
            admission: AdmissionOptions::enabled(),
            ..ServerOptions::default()
        },
    )
    .unwrap();
    let client = server.client();

    let mut handles = Vec::new();
    let mut overloads = 0u64;
    for program in programs.into_iter().take(10) {
        match client.submit(program) {
            Ok(h) => handles.push(h),
            Err(Rejected::Overload) => overloads += 1,
            Err(other) => panic!("unexpected rejection: {other}"),
        }
    }
    assert_eq!(handles.len(), 3, "admitted up to the high-water mark");
    assert_eq!(overloads, 7, "everything past the mark shed as Overload");

    // Every admitted job still completes and the books balance.
    let stats = server.shutdown().unwrap();
    assert_eq!(stats.submitted, 10);
    assert_eq!(stats.accepted, 3);
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.rejected_overload, 7);
    assert!(stats.balanced(), "{stats:?}");
    for h in handles {
        assert!(h.wait().is_ok(), "accepted jobs resolve Ok");
    }
}

#[test]
fn low_priority_sheds_before_high() {
    let config = MemoryConfig::tiny();
    let mut programs = all_workload_programs(&config).into_iter();
    let mut runtime = RuntimeOptions::default().paused();
    runtime.queue_capacity = 4;
    let server = Server::start(
        config,
        ServerOptions {
            runtime,
            admission: AdmissionOptions::enabled(),
            ..ServerOptions::default()
        },
    )
    .unwrap();
    let client = server.client();

    // Fill to depth 2: Low's high-water mark, ceil(0.5 * 4).
    for _ in 0..2 {
        client
            .submit_with(programs.next().unwrap(), SubmitOptions::default())
            .unwrap();
    }
    let low = client.submit_with(
        programs.next().unwrap(),
        SubmitOptions::priority(Priority::Low),
    );
    assert_eq!(low.err(), Some(Rejected::Overload), "Low sheds at depth 2");
    let high = client.submit_with(
        programs.next().unwrap(),
        SubmitOptions::priority(Priority::High),
    );
    assert!(high.is_ok(), "High still admits at depth 2");
    let stats = server.shutdown().unwrap();
    assert!(stats.balanced(), "{stats:?}");
}

#[test]
fn queued_deadline_expires_and_counts() {
    let config = MemoryConfig::tiny();
    let mut programs = all_workload_programs(&config).into_iter();
    let server = Server::start(
        config,
        ServerOptions {
            runtime: RuntimeOptions::default().paused(),
            admission: AdmissionOptions::default(),
            ..ServerOptions::default()
        },
    )
    .unwrap();
    let client = server.client();

    let doomed = client
        .submit_with(
            programs.next().unwrap(),
            SubmitOptions::default().with_deadline(Duration::from_millis(30)),
        )
        .unwrap();
    let healthy = client.submit(programs.next().unwrap()).unwrap();
    // Let the deadline lapse while the scheduler is still gated, then
    // release the backlog: the expired job must never reach a bank.
    std::thread::sleep(Duration::from_millis(150));
    server.resume();

    assert_eq!(doomed.wait(), Err(ServeError::Expired));
    assert!(healthy.wait().is_ok(), "undoomed neighbor completes");

    let stats = server.shutdown().unwrap();
    assert_eq!(stats.expired, 1);
    assert_eq!(stats.completed, 1);
    assert!(stats.balanced(), "{stats:?}");
    assert_eq!(
        (stats.runtime.cancelled, stats.runtime.expired),
        (0, 1),
        "the runtime dropped it unissued"
    );
}

#[test]
fn zero_deadline_rejected_at_submission() {
    let config = MemoryConfig::tiny();
    let mut programs = all_workload_programs(&config).into_iter();
    let server = Server::start(config, ServerOptions::default()).unwrap();
    let client = server.client();
    let r = client.submit_with(
        programs.next().unwrap(),
        SubmitOptions::default().with_deadline(Duration::ZERO),
    );
    assert_eq!(r.err(), Some(Rejected::Deadline));
    let stats = server.shutdown().unwrap();
    assert_eq!(stats.rejected_deadline, 1);
    assert!(stats.balanced(), "{stats:?}");
}

#[test]
fn explicit_cancel_resolves_cancelled() {
    let config = MemoryConfig::tiny();
    let mut programs = all_workload_programs(&config).into_iter();
    let server = Server::start(
        config,
        ServerOptions {
            runtime: RuntimeOptions::default().paused(),
            admission: AdmissionOptions::default(),
            ..ServerOptions::default()
        },
    )
    .unwrap();
    let client = server.client();
    let handle = client.submit(programs.next().unwrap()).unwrap();
    client.cancel(handle.id());
    server.resume();
    assert_eq!(handle.wait(), Err(ServeError::Cancelled));
    let stats = server.shutdown().unwrap();
    assert_eq!(stats.cancelled, 1);
    assert!(stats.balanced(), "{stats:?}");
}

#[test]
fn submissions_after_shutdown_are_rejected_closed() {
    let config = MemoryConfig::tiny();
    let mut programs = all_workload_programs(&config).into_iter();
    let server = Server::start(config, ServerOptions::default()).unwrap();
    let client = server.client();
    let ok = client.submit(programs.next().unwrap()).unwrap();
    assert!(ok.wait().is_ok());
    let stats = server.shutdown().unwrap();
    assert!(stats.balanced(), "{stats:?}");
    // The client outlives the server; its submissions now fail typed.
    assert_eq!(
        client.submit(programs.next().unwrap()).err(),
        Some(Rejected::Closed)
    );
}

#[test]
fn handles_are_pollable_futures() {
    use std::future::Future;
    use std::pin::Pin;
    use std::task::{Context, Poll, Waker};

    let config = MemoryConfig::tiny();
    let mut programs = all_workload_programs(&config).into_iter();
    let server = Server::start(config, ServerOptions::default()).unwrap();
    let mut handle = server.client().submit(programs.next().unwrap()).unwrap();

    // Poll to completion with a plain no-op waker — no executor needed.
    let waker = Waker::noop();
    let mut cx = Context::from_waker(waker);
    let done = loop {
        match Pin::new(&mut handle).poll(&mut cx) {
            Poll::Ready(c) => break c,
            Poll::Pending => std::thread::yield_now(),
        }
    };
    assert!(done.is_ok());
    let stats = server.shutdown().unwrap();
    assert_eq!(stats.completed, 1);
}

/// A job whose worker cannot tell its attempt is the last — it stayed
/// unverified, and only the scheduler knows that `Placement::Fixed`
/// keeps it from being re-dispatched — resolves while the server is
/// live, where the scheduler marks the attempt last, not at shutdown.
#[test]
fn unverified_fixed_job_resolves_before_shutdown() {
    let config = MemoryConfig::tiny();
    let program = all_workload_programs(&config).swap_remove(0);
    // TR faults frequent enough that compare pairs keep mismatching, and
    // no in-place retry: a mismatching pair surfaces unverified.
    let runtime = RuntimeOptions::default()
        .with_faults(FaultPlan::uniform(FaultConfig::NONE.with_tr_fault_rate(5e-2), 7).unwrap())
        .with_protection(ProtectionPolicy::Reexecute { max_retries: 0 })
        .with_health(HealthPolicy {
            suspect_after: 10_000,
            quarantine_after: 100_000,
            scrub_on_suspect: false,
            ..HealthPolicy::default()
        });
    let server = Server::start(
        config,
        ServerOptions {
            runtime,
            ..ServerOptions::default()
        },
    )
    .unwrap();
    let client = server.client();
    let pinned = SubmitOptions {
        placement: Placement::Fixed(DbcLocation::new(0, 0, 0, 0)),
        ..SubmitOptions::default()
    };
    let mut unverified = 0u64;
    for _ in 0..64 {
        let mut handle = client.submit_with(program.clone(), pinned.clone()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(20);
        while !handle.is_done() {
            assert!(
                Instant::now() < deadline,
                "job {} waits for shutdown to resolve it",
                handle.id()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let done = handle
            .try_take()
            .unwrap()
            .expect("TR faults raise no error");
        unverified += u64::from(!done.verified);
    }
    assert!(unverified > 0, "the fault rate must leave a job unverified");
    let stats = server.shutdown().unwrap();
    assert_eq!(stats.completed, 64);
    assert_eq!(stats.runtime.faults.unverified_jobs, unverified);
    assert!(stats.balanced() && stats.lost == 0, "{stats:?}");
}

/// A memory configuration that does not validate is refused before any
/// thread starts, through the runtime and through the server alike: no
/// banks (which used to panic while sizing the shards), a transverse-read
/// distance past the rows, and DBCs wider than a row holds.
#[test]
fn invalid_memory_configs_are_refused_at_start() {
    let mut no_banks = MemoryConfig::tiny();
    no_banks.banks = 0;
    let mut too_wide = MemoryConfig::tiny();
    too_wide.nanowires_per_dbc = 576;
    let invalid = [no_banks, MemoryConfig::tiny().with_trd(40), too_wide];
    for config in invalid {
        let direct = Runtime::new(config.clone(), RuntimeOptions::default());
        assert!(matches!(direct, Err(RuntimeError::Config(_))), "{config:?}");
        let served = Server::start(config.clone(), ServerOptions::default());
        let refused = matches!(served, Err(ServerError::Runtime(RuntimeError::Config(_))));
        assert!(refused, "{config:?}");
    }
}

/// Job ids the JSONL trace at `path` records an `Issue` for: every job
/// some bank was handed.
fn issued_jobs(path: &std::path::Path) -> Vec<u64> {
    let text = std::fs::read_to_string(path).expect("trace written");
    std::fs::remove_file(path).ok();
    let mut jobs = Vec::new();
    for line in text.lines() {
        if let serde::json::Value::Object(fields) = serde::json::parse(line).unwrap() {
            if let [(kind, serde::json::Value::Object(event))] = &fields[..] {
                if kind == "Issue" {
                    let job = event.iter().find(|(k, _)| k == "job").expect("job id");
                    jobs.push(job.1.as_u64().unwrap());
                }
            }
        }
    }
    jobs
}

/// A deadline that passes in each place a job can be: behind a paused
/// scheduler, in a one-bank FIFO behind a long job, and on a bank while
/// the job executes. Only the first two expire, neither ever reaches a
/// bank, and the fate counters — the server's, the runtime's and the
/// client's QoS ledger — name each outcome once.
#[test]
fn a_deadline_expires_where_the_scheduler_checks_it() {
    let config = MemoryConfig::tiny();
    let program = all_workload_programs(&config).swap_remove(0);
    let tenant = SubmitOptions::default().for_client("tenant");
    let due = |ms| tenant.clone().with_deadline(Duration::from_millis(ms));
    let qos = coruscant::qos::QosOptions::default().enabled();
    let trace = |name: &str| std::env::temp_dir().join(format!("coruscant_deadline_{name}.jsonl"));

    // 1. Paused: the deadline lapses before the scheduler sees the job.
    let paused_trace = trace("paused");
    let server = Server::start(
        config.clone(),
        ServerOptions {
            runtime: RuntimeOptions {
                trace_path: Some(paused_trace.clone()),
                ..RuntimeOptions::default().paused()
            },
            qos: qos.clone(),
            ..ServerOptions::default()
        },
    )
    .unwrap();
    let client = server.client();
    let doomed = client.submit_with(program.clone(), due(30)).unwrap();
    let doomed_id = doomed.id();
    std::thread::sleep(Duration::from_millis(150));
    server.resume();
    assert_eq!(doomed.wait(), Err(ServeError::Expired));
    let stats = server.shutdown().unwrap();
    assert!(stats.balanced(), "{stats:?}");
    assert_eq!((stats.expired, stats.completed, stats.cancelled), (1, 0, 0));
    assert_eq!((stats.runtime.cancelled, stats.runtime.expired), (0, 1));
    let ledger = stats.qos.client("tenant").expect("tenant accounted");
    assert_eq!((ledger.accepted, ledger.expired, ledger.served), (1, 1, 0));
    assert!(!issued_jobs(&paused_trace).contains(&doomed_id));

    // 2 and 3. One bank in flight at a time (a fault-free fault plan
    // turns the in-flight cap on), every attempt held 1 s on its worker.
    let held_trace = trace("held");
    let runtime = RuntimeOptions {
        trace_path: Some(held_trace.clone()),
        chaos: Some(coruscant::runtime::ChaosPlan {
            delay_permille: 1000,
            delay_us: 1_000_000,
            ..coruscant::runtime::ChaosPlan::quiet(5)
        }),
        ..RuntimeOptions::default()
            .with_shards(1)
            .with_faults(FaultPlan::uniform(FaultConfig::NONE, 5).unwrap())
            .with_health(HealthPolicy {
                max_inflight_per_bank: 1,
                ..HealthPolicy::default()
            })
    };
    let server = Server::start(
        config,
        ServerOptions {
            runtime,
            qos,
            ..ServerOptions::default()
        },
    )
    .unwrap();
    let client = server.client();
    let on_bank_0 = |options: SubmitOptions| SubmitOptions {
        placement: Placement::Unit(0),
        ..options
    };
    // 2. Queued behind a long job: the deadline passes in the bank FIFO.
    let long = client
        .submit_with(program.clone(), on_bank_0(tenant.clone()))
        .unwrap();
    let queued = client
        .submit_with(program.clone(), on_bank_0(due(250)))
        .unwrap();
    let queued_id = queued.id();
    assert_eq!(queued.wait(), Err(ServeError::Expired));
    assert!(long.wait().is_ok());
    // 3. Executing: issued at once, the deadline passes on the bank, and
    // the job completes (a deadline miss, not an expiry).
    let running = client
        .submit_with(program.clone(), on_bank_0(due(250)))
        .unwrap();
    assert!(running.wait().is_ok(), "a job past issue runs to the end");
    let stats = server.shutdown().unwrap();
    assert!(stats.balanced(), "{stats:?}");
    assert_eq!((stats.expired, stats.completed, stats.cancelled), (1, 2, 0));
    assert_eq!((stats.runtime.cancelled, stats.runtime.expired), (0, 1));
    assert_eq!(stats.runtime.jobs, 2);
    let ledger = stats.qos.client("tenant").expect("tenant accounted");
    assert_eq!((ledger.accepted, ledger.expired, ledger.served), (3, 1, 2));
    assert_eq!((ledger.deadline_hits, ledger.deadline_misses), (0, 1));
    let issued = issued_jobs(&held_trace);
    assert_eq!(issued.len(), 2, "{issued:?}");
    assert!(!issued.contains(&queued_id), "{issued:?}");
}
