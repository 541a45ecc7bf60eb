//! Streaming accounting ≡ the batch replay it replaced.
//!
//! `tests/fixtures/streaming_equivalence.txt` was recorded from the
//! drain-time replay (every completion buffered until `finish`, sorted
//! by seq, latest seq per job wins) before it was deleted: one line per
//! seeded session holding the session's `RuntimeStats` as serde JSON —
//! wall-clock scheduler fields zeroed — and a digest of its outcomes.
//! The live replay must reproduce every line, for both engines.
//!
//! Every session is staged so that nothing in it depends on thread
//! timing: submissions queue behind the pause gate (or go in one at a
//! time where acks steer issue order), fault and chaos arms run on one
//! worker shard, and parallel arms pin every job to a unit so nothing is
//! stolen. On a mismatch the test prints what it computed; replace the
//! fixture only when a PR means to move the accounting and says so.
//!
//! The last three lines were recorded later, at the last commit whose
//! scheduler rewrote a program's addresses at every placement, before
//! placement became a value carried beside a placement-free program: a
//! resident session, grouped batching over every placement kind from
//! non-canonical homes, and the parallel engine with batching on.
//!
//! The arms that admit one job at a time await each job's handle, and a
//! served job's outcome stays with its handle, out of the report. Their
//! lines carry a `served=` digest of what the handles resolved to —
//! job id, outputs, bank, attempt, batch size, verification — which was
//! recorded from the same fields of the report's outcomes at the last
//! commit whose runtime kept them there; their `stats=` are unchanged.

use coruscant::core::isa::{BlockSize, CpimInstr, CpimOpcode};
use coruscant::core::program::{PimProgram, Step};
use coruscant::mem::{DbcLocation, FaultPlan, MemoryConfig, MemoryController, RowAddress};
use coruscant::racetrack::FaultConfig;
use coruscant::runtime::{
    install_quiet_hook, BatchOptions, ChainJob, ChaosPlan, HealthPolicy, JobDone, JobHandle,
    Placement, ProgramSource, ProtectionPolicy, Runtime, RuntimeOptions, RuntimeReport, SchedMode,
    SuperviseOptions,
};
use coruscant::workloads::serve::all_workload_programs;
use std::fmt::Write as _;

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

/// A self-contained add job whose outputs identify it.
fn add_job(tag: u64) -> PimProgram {
    let loc = DbcLocation::new(0, 0, 0, 0);
    PimProgram {
        steps: vec![
            Step::Load {
                addr: RowAddress::new(loc, 4),
                values: vec![tag & 0x7F; 8],
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
                label: format!("sum{tag}"),
                addr: RowAddress::new(loc, 20),
                lane: 8,
            },
        ],
    }
}

/// The serving corpus four times over, interleaved with add jobs.
fn programs() -> Vec<PimProgram> {
    let base = all_workload_programs(&eight_bank_config());
    let mut out = Vec::new();
    for round in 0..4u64 {
        for (i, program) in base.iter().enumerate() {
            out.push(program.clone());
            out.push(add_job(round * 16 + i as u64));
        }
    }
    out
}

/// Staged session: everything queues behind the pause gate, so the
/// scheduler admits, places and issues the whole backlog in one pass.
fn staged(options: RuntimeOptions) -> RuntimeOptions {
    RuntimeOptions {
        queue_capacity: 4096,
        ..options
    }
    .paused()
}

fn run_staged(
    options: RuntimeOptions,
    programs: &[PimProgram],
    placement: impl Fn(usize) -> Placement,
) -> RuntimeReport {
    let runtime = Runtime::new(eight_bank_config(), staged(options)).expect("runtime starts");
    for (i, program) in programs.iter().enumerate() {
        runtime
            .submit(program.clone(), placement(i))
            .expect("submission accepted");
    }
    runtime.finish().expect("session drains")
}

/// A session plus what the handles of its served jobs resolved to.
type Served = (RuntimeReport, Vec<JobDone>);

/// Waits for every handle to resolve, collecting what it resolved to.
fn await_all(handles: Vec<JobHandle>, into: &mut Vec<JobDone>) {
    for handle in handles {
        into.push(handle.wait().expect("served jobs complete"));
    }
}

/// One job in the system at a time: the next is submitted once the
/// previous one's handle resolved, so verification re-dispatches (whose
/// issue order otherwise follows ack timing) land in one order.
fn run_one_at_a_time(options: RuntimeOptions, programs: &[PimProgram]) -> Served {
    let runtime = Runtime::new(eight_bank_config(), options).expect("runtime starts");
    let mut served = Vec::new();
    for program in programs {
        let handle = runtime
            .serve(program.clone(), Placement::Auto, None, true)
            .expect("submission accepted");
        await_all(vec![handle], &mut served);
    }
    (runtime.finish().expect("session drains"), served)
}

/// `program` with every address moved to `home`, rows kept: the same
/// logical program as a client that compiled it there would submit
/// (spelled out, so this file also builds at the recording commit).
fn at_home(program: &PimProgram, home: DbcLocation) -> PimProgram {
    let mv = |a: &RowAddress| RowAddress::new(home, a.row);
    let steps = program.steps.iter().map(|step| match step {
        Step::Load { addr, values, lane } => Step::Load {
            addr: mv(addr),
            values: values.clone(),
            lane: *lane,
        },
        Step::Exec(i) => {
            let mut i = *i;
            i.src = mv(&i.src);
            i.dst = i.dst.map(|d| mv(&d));
            Step::Exec(i)
        }
        Step::Readout { label, addr, lane } => Step::Readout {
            label: label.clone(),
            addr: mv(addr),
            lane: *lane,
        },
    });
    PimProgram {
        steps: steps.collect(),
    }
}

/// A resident session, one job in the system at a time on one worker
/// shard: two pins (one on a bank whose faults get it quarantined, so
/// its weights re-materialize elsewhere), chains of a tile-relative
/// consumer, a binder-built second consumer fed the first one's sum, and
/// a unit-pinned tail, plus consumers submitted through the compiler.
/// Compare pairs never retry in place, so a final attempt is always a
/// fault-free one and no bank-health transition can race the next
/// submission.
fn run_resident_session() -> Served {
    let storage = DbcLocation::new(0, 0, 0, 1);
    let pim = DbcLocation::new(0, 0, 0, 0);
    let bs = BlockSize::new(8).unwrap();
    // Both programs open on the PIM DBC: the recording commit reported a
    // job's unit as the DBC of its first step, so one that began on the
    // storage DBC would have recorded that instead of its hosting unit.
    let pin_program = |weight: u64| PimProgram {
        steps: vec![
            Step::Load {
                addr: RowAddress::new(pim, 30),
                values: vec![0; 8],
                lane: 8,
            },
            Step::Load {
                addr: RowAddress::new(storage, 5),
                values: vec![weight; 8],
                lane: 8,
            },
            Step::Readout {
                label: "pinned".into(),
                addr: RowAddress::new(storage, 5),
                lane: 8,
            },
        ],
    };
    // Copies the pinned row next to a per-request operand and adds them.
    let consumer = move |operand: Vec<u64>| PimProgram {
        steps: vec![
            Step::Load {
                addr: RowAddress::new(pim, 5),
                values: operand,
                lane: 8,
            },
            Step::Exec(
                CpimInstr::new(
                    CpimOpcode::Copy,
                    RowAddress::new(storage, 5),
                    1,
                    bs,
                    Some(RowAddress::new(pim, 4)),
                )
                .unwrap(),
            ),
            Step::Exec(
                CpimInstr::new(
                    CpimOpcode::Add,
                    RowAddress::new(pim, 4),
                    2,
                    bs,
                    Some(RowAddress::new(pim, 20)),
                )
                .unwrap(),
            ),
            Step::Readout {
                label: "sum".into(),
                addr: RowAddress::new(pim, 20),
                lane: 8,
            },
        ],
    };
    let poisoned_bank = 3;
    let plan = FaultPlan::healthy(0xDEC0DE)
        .with_bank(poisoned_bank, FaultConfig::NONE.with_tr_fault_rate(0.5))
        .unwrap();
    let options = RuntimeOptions::default()
        .with_shards(1)
        .with_faults(plan)
        .with_protection(ProtectionPolicy::Reexecute { max_retries: 0 })
        .with_health(HealthPolicy {
            suspect_after: 1,
            quarantine_after: 3,
            scrub_on_suspect: false,
            max_inflight_per_bank: 1,
            max_redispatch: 64,
        });
    let runtime = Runtime::new(eight_bank_config(), options).expect("runtime starts");
    let mut served = Vec::new();
    // Unit index == bank index for the first eight units.
    let (pins, handles): (Vec<_>, Vec<_>) = [(0x11, poisoned_bank), (0x22, 5)]
        .into_iter()
        .map(|(weight, unit)| runtime.serve_pin(pin_program(weight), unit).unwrap())
        .unzip();
    await_all(handles, &mut served);
    for round in 0..8u64 {
        let pin = pins[round as usize % 2];
        let handles = runtime
            .serve_chain(vec![
                ChainJob {
                    source: ProgramSource::Ready(consumer(vec![round + 1; 8])),
                    placement: Placement::Resident(pin.res),
                    after: vec![],
                },
                ChainJob {
                    source: ProgramSource::Deferred {
                        deps: vec![0],
                        build: Box::new(move |deps| {
                            let sum = deps[0]
                                .iter()
                                .find(|(label, _)| label == "sum")
                                .ok_or("no sum")?;
                            Ok(consumer(sum.1.iter().map(|v| v & 0x3F).collect()))
                        }),
                    },
                    placement: Placement::Resident(pin.res),
                    after: vec![],
                },
                ChainJob {
                    source: ProgramSource::Ready(add_job(round)),
                    placement: Placement::Unit(round as usize),
                    after: vec![1],
                },
            ])
            .expect("chain accepted");
        await_all(handles, &mut served);
        // The same consumer twice through the compiler: a miss, then a hit.
        for _ in 0..2 {
            let consumer = consumer(vec![round + 9; 8]);
            let handle = runtime
                .serve(consumer, Placement::Resident(pin.res), None, true)
                .expect("submission accepted");
            await_all(vec![handle], &mut served);
        }
    }
    (runtime.finish().expect("session drains"), served)
}

/// FNV-1a.
fn digest(text: &str) -> u64 {
    text.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// One fixture line: the stats with wall-clock fields zeroed, and the
/// outcome count and digest — and, for a session that served jobs, the
/// count and digest of what their handles resolved to, in job-id order.
fn served_line(name: &str, (report, mut served): Served, out: &mut String) {
    served.sort_by_key(|done| done.job_id);
    let mut text = String::new();
    for d in &served {
        let (id, outputs, bank, attempt) = (d.job_id, &d.outputs, d.bank, d.attempt);
        writeln!(
            text,
            "{id} {outputs:?} {bank} {attempt} {} {}",
            d.batch, d.verified
        )
        .unwrap();
    }
    let served = format!("{}:{:016x}", served.len(), digest(&text));
    line(&format!("{name} served={served}"), report, out);
}

/// One fixture line: the stats with wall-clock fields zeroed, and the
/// outcome count and digest.
fn line(name: &str, mut report: RuntimeReport, out: &mut String) {
    let sched = &mut report.stats.sched;
    sched.pop_micros = 0;
    sched.admit_micros = 0;
    sched.place_micros = 0;
    sched.dispatch_micros = 0;
    sched.ack_micros = 0;
    sched.busy_micros = 0;
    sched.wall_micros = 0;
    sched.occupancy_pct = 0.0;
    for domain in &mut sched.per_domain {
        domain.busy_micros = 0;
    }
    writeln!(
        out,
        "{name} outcomes={}:{:016x} stats={}",
        report.outcomes.len(),
        digest(&serde::json::to_string(&report.outcomes)),
        serde::json::to_string(&report.stats)
    )
    .unwrap();
}

/// Device faults frequent enough that compare pairs mismatch, with no
/// in-place retry, so unverified attempts go back to the scheduler.
fn faulty(options: RuntimeOptions) -> RuntimeOptions {
    options
        .with_faults(FaultPlan::uniform(FaultConfig::NONE.with_tr_fault_rate(4e-3), 5).unwrap())
        .with_protection(ProtectionPolicy::Reexecute { max_retries: 0 })
        .with_health(HealthPolicy {
            suspect_after: 10_000,
            quarantine_after: 100_000,
            max_inflight_per_bank: usize::MAX,
            ..HealthPolicy::default()
        })
}

fn computed() -> String {
    install_quiet_hook();
    let programs = programs();
    let mut out = String::new();
    for shards in [1usize, 2, 4, 8] {
        let report = run_staged(
            RuntimeOptions::default().with_shards(shards),
            &programs,
            |_| Placement::Auto,
        );
        line(&format!("plain/s{shards}"), report, &mut out);
    }

    // Runs of four same-unit jobs, so consecutive grouping batches.
    let report = run_staged(
        RuntimeOptions::default()
            .with_shards(2)
            .with_batch(BatchOptions::enabled()),
        &programs,
        |i| Placement::Unit(i / 4 % 32),
    );
    assert!(report.stats.batch.batches > 0, "the batch arm must batch");
    line("batch/s2", report, &mut out);

    for shards in [1usize, 4] {
        let report = run_one_at_a_time(
            faulty(RuntimeOptions::default().with_shards(shards)),
            &programs,
        );
        assert!(
            report.0.stats.faults.redispatches > 0,
            "the fault arm must re-dispatch"
        );
        served_line(&format!("faults/s{shards}"), report, &mut out);
    }

    // One worker shard: every crash takes the whole in-flight window
    // with it (lost seqs), and a budget of one retry abandons the jobs
    // whose first two attempts both panic.
    let report = run_staged(
        RuntimeOptions::default()
            .with_shards(1)
            .with_chaos(ChaosPlan::panics(0xC0FFEE, 250))
            .with_supervise(SuperviseOptions {
                max_restarts: u32::MAX,
                backoff_base_ms: 1,
                backoff_max_ms: 2,
                max_job_retries: 1,
                drain_deadline_ms: 20_000,
            }),
        &programs,
        |_| Placement::Auto,
    );
    let sup = report.stats.supervision;
    assert!(
        sup.crash_redispatches > 0 && sup.abandoned_jobs > 0,
        "the chaos arm must lose seqs and abandon a job: {sup:?}"
    );
    line("chaos/s1", report, &mut out);

    for shards in [2usize, 4] {
        let options = RuntimeOptions::default()
            .with_shards(shards)
            .with_sched_mode(SchedMode::Parallel);
        let report = run_staged(options.clone(), &programs, |i| Placement::Unit(i % 32));
        line(&format!("parallel/s{shards}"), report, &mut out);
        let report = run_staged(faulty(options), &programs, |i| Placement::Unit(i % 32));
        assert!(
            report.stats.faults.redispatches > 0,
            "the parallel fault arm must re-dispatch"
        );
        line(&format!("parallel-faults/s{shards}"), report, &mut out);
    }

    // Recorded before placement stopped rewriting programs.
    let report = run_resident_session();
    let pipeline = report.0.stats.pipeline;
    assert!(
        pipeline.rematerializations > 0 && pipeline.released_jobs > 0,
        "the resident arm must move a residency and release gated jobs: {pipeline:?}"
    );
    served_line("resident/s1", report, &mut out);

    // Every placement kind, each submission compiled at a different home
    // (storage DBCs included). Job `j` lands on unit `j / 3 % 32` whatever
    // its kind — the circular cursor only advances on `Auto` — so every
    // unit queues the same three-job pattern four times, interleaved on
    // its bank with three other units', and units four apart queue the
    // same logical programs: batches form by gathering, and their shapes
    // repeat from unit to unit.
    let units = MemoryController::new(eight_bank_config());
    let corpus = all_workload_programs(&eight_bank_config());
    let picks = [0, corpus.len() / 3, 2 * corpus.len() / 3, corpus.len() - 1];
    let homed: Vec<PimProgram> = (0..384)
        .map(|j| {
            let home = DbcLocation::new(j % 8, j / 8 % 2, j / 16 % 2, j % 4);
            at_home(&corpus[picks[j % 4]], home)
        })
        .collect();
    let report = run_staged(
        RuntimeOptions::default()
            .with_shards(2)
            .with_batch(BatchOptions::enabled_grouped()),
        &homed,
        |j| match j % 3 {
            0 => Placement::Auto,
            1 => Placement::Unit(j / 3 % 32),
            _ => Placement::Fixed(units.pim_unit(j / 3 % 32)),
        },
    );
    let batch = report.stats.batch;
    assert!(
        batch.batches > 0 && batch.splice_hits > 0,
        "the grouped arm must batch and hit the splice cache: {batch:?}"
    );
    line("grouped-mixed/s2", report, &mut out);

    let report = run_staged(
        RuntimeOptions::default()
            .with_shards(2)
            .with_sched_mode(SchedMode::Parallel)
            .with_batch(BatchOptions::enabled()),
        &programs,
        |i| Placement::Unit(i / 4 % 32),
    );
    assert!(
        report.stats.batch.batches > 0,
        "the parallel batch arm must batch"
    );
    line("parallel-batch/s2", report, &mut out);
    out
}

#[test]
fn streaming_replay_reproduces_the_recorded_batch_replay() {
    let got = computed();
    let mut want = include_str!("fixtures/streaming_equivalence.txt").lines();
    for g in got.lines() {
        let name = g.split(' ').next().unwrap_or_default();
        let w = want.next().unwrap_or("(nothing: a new arm)");
        assert!(g == w, "{name} moved; computed:\n{g}\nrecorded:\n{w}");
    }
    assert_eq!(want.next(), None, "a recorded arm was not computed");
}
