//! Integration tests for dependency-aware pipelines: `submit_chain` /
//! `submit_after` gating, deferred binders, cascade cancellation,
//! resident weight pins, and re-materialization under quarantine.

use coruscant_core::isa::{BlockSize, CpimInstr, CpimOpcode};
use coruscant_core::program::{PimProgram, Step};
use coruscant_mem::{DbcLocation, FaultPlan, MemoryConfig, RowAddress};
use coruscant_racetrack::FaultConfig;
use coruscant_runtime::{
    ChainJob, HealthPolicy, Placement, ProgramSource, ProtectionPolicy, Runtime, RuntimeOptions,
};

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

/// A self-contained one-instruction job: load two rows, add, read back.
fn add_job(a: u64, b: u64) -> PimProgram {
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
                values: vec![b; 8],
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

/// `submit_after` holds the successor until the predecessor retires, and
/// the pipeline counters record the deferral.
#[test]
fn submit_after_gates_on_predecessor() {
    // Paused until `finish`, so the predecessor cannot retire before the
    // successor is admitted (it would then never count as deferred).
    let rt = Runtime::new(eight_bank_config(), RuntimeOptions::default().paused()).unwrap();
    let a = rt.submit(add_job(1, 2), Placement::Unit(0)).unwrap();
    let b = rt
        .submit_after(add_job(10, 20), Placement::Unit(1), &[a])
        .unwrap();
    let report = rt.finish().unwrap();
    assert_eq!(report.outcomes.len(), 2);
    let out_a = report.outcomes.iter().find(|o| o.job_id == a).unwrap();
    let out_b = report.outcomes.iter().find(|o| o.job_id == b).unwrap();
    assert_eq!(out_a.outputs[0].1, vec![3; 8]);
    assert_eq!(out_b.outputs[0].1, vec![30; 8]);
    assert!(out_b.seq > out_a.seq, "gated job issues strictly later");
    assert_eq!(report.stats.pipeline.deferred_jobs, 1);
    assert_eq!(report.stats.pipeline.released_jobs, 1);
    assert_eq!(report.stats.pipeline.cascade_cancelled, 0);
}

/// A deferred chain member's binder receives its data dependency's
/// outputs and builds the follow-up program from them.
#[test]
fn chain_binder_flows_outputs_between_stages() {
    let rt = Runtime::new(eight_bank_config(), RuntimeOptions::default()).unwrap();
    let ids = rt
        .submit_chain(vec![
            ChainJob {
                source: ProgramSource::Ready(add_job(3, 4)),
                placement: Placement::Unit(0),
                after: vec![],
            },
            ChainJob {
                source: ProgramSource::Deferred {
                    deps: vec![0],
                    build: Box::new(|deps| {
                        let sum = deps[0][0].1[0]; // 3 + 4 = 7
                        Ok(add_job(sum, 5))
                    }),
                },
                placement: Placement::Unit(1),
                after: vec![],
            },
        ])
        .unwrap();
    let report = rt.finish().unwrap();
    assert_eq!(report.outcomes.len(), 2);
    let out1 = report.outcomes.iter().find(|o| o.job_id == ids[1]).unwrap();
    assert_eq!(out1.outputs[0].1, vec![12; 8], "binder saw 7, added 5");
    assert_eq!(report.stats.pipeline.deferred_jobs, 1);
    assert_eq!(report.stats.pipeline.released_jobs, 1);
}

/// Forward or self references in a chain are rejected at submission.
#[test]
fn chain_rejects_forward_dependencies() {
    let rt = Runtime::new(eight_bank_config(), RuntimeOptions::default()).unwrap();
    let err = rt.submit_chain(vec![ChainJob {
        source: ProgramSource::Ready(add_job(1, 1)),
        placement: Placement::Auto,
        after: vec![0],
    }]);
    assert!(err.is_err(), "a member cannot gate on itself");
    rt.finish().unwrap();
}

/// Cancelling a chain's head drops every transitive dependent: they
/// never run, report as cancelled, and count as cascades (not as user
/// cancellations).
#[test]
fn cancelled_predecessor_cascades_through_the_chain() {
    let options = RuntimeOptions {
        start_paused: true,
        ..RuntimeOptions::default()
    };
    let rt = Runtime::new(eight_bank_config(), options).unwrap();
    let ids = rt
        .submit_chain(vec![
            ChainJob {
                source: ProgramSource::Ready(add_job(1, 1)),
                placement: Placement::Unit(0),
                after: vec![],
            },
            ChainJob {
                source: ProgramSource::Ready(add_job(2, 2)),
                placement: Placement::Unit(1),
                after: vec![0],
            },
            ChainJob {
                source: ProgramSource::Ready(add_job(3, 3)),
                placement: Placement::Unit(2),
                after: vec![1],
            },
        ])
        .unwrap();
    rt.cancel(ids[0]);
    rt.resume();
    let report = rt.finish().unwrap();
    assert!(report.outcomes.is_empty(), "nothing ran");
    assert_eq!(report.stats.cancelled, 1, "only the head was cancelled");
    assert_eq!(report.stats.pipeline.cascade_cancelled, 2);
}

/// Pinned weights live in a tile's storage DBC; a `Placement::Resident`
/// job binds tile-relative so it can copy them into the PIM DBC and
/// compute against them.
#[test]
fn resident_pin_serves_jobs_on_its_unit() {
    let config = eight_bank_config();
    let rt = Runtime::new(config, RuntimeOptions::default()).unwrap();

    let storage = DbcLocation::new(0, 0, 0, 1);
    let pim = DbcLocation::new(0, 0, 0, 0);
    // The pin loads the "weights" into the storage DBC and echoes them
    // (the readout defeats dead-store elimination and lets callers audit
    // the pinned bytes).
    let pin_program = PimProgram {
        steps: vec![
            Step::Load {
                addr: RowAddress::new(storage, 5),
                values: vec![11; 8],
                lane: 8,
            },
            Step::Readout {
                label: "pinned".into(),
                addr: RowAddress::new(storage, 5),
                lane: 8,
            },
        ],
    };
    let pin = rt.pin_resident(pin_program, 3).unwrap();

    // The consumer copies the resident row into the PIM DBC and adds a
    // per-request operand to it.
    let consumer = PimProgram {
        steps: vec![
            Step::Exec(
                CpimInstr::new(
                    CpimOpcode::Copy,
                    RowAddress::new(storage, 5),
                    1,
                    BlockSize::new(8).unwrap(),
                    Some(RowAddress::new(pim, 4)),
                )
                .unwrap(),
            ),
            Step::Load {
                addr: RowAddress::new(pim, 5),
                values: vec![7; 8],
                lane: 8,
            },
            Step::Exec(
                CpimInstr::new(
                    CpimOpcode::Add,
                    RowAddress::new(pim, 4),
                    2,
                    BlockSize::new(8).unwrap(),
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
    let job = rt.submit(consumer, Placement::Resident(pin.res)).unwrap();

    let report = rt.finish().unwrap();
    let pin_out = report
        .outcomes
        .iter()
        .find(|o| o.job_id == pin.job)
        .unwrap();
    let job_out = report.outcomes.iter().find(|o| o.job_id == job).unwrap();
    assert_eq!(pin_out.bank, 3, "unit 3 is bank-major bank 3");
    assert_eq!(job_out.bank, 3, "the consumer followed the residency");
    // Each reports the PIM unit placement chose, though both programs
    // open on the tile's storage DBC.
    let hosting = DbcLocation::new(3, 0, 0, 0);
    assert_eq!((pin_out.unit, job_out.unit), (hosting, hosting));
    assert_eq!(pin_out.outputs[0].1, vec![11; 8]);
    assert_eq!(job_out.outputs[0].1, vec![18; 8], "11 pinned + 7 request");
    assert_eq!(report.stats.pipeline.residents, 1);
    assert_eq!(report.stats.pipeline.rematerializations, 0);
}

/// A job naming an unknown residency is dropped (reported like a
/// cancellation), not misplaced.
#[test]
fn unknown_residency_is_dropped() {
    let rt = Runtime::new(eight_bank_config(), RuntimeOptions::default()).unwrap();
    let id = rt.submit(add_job(1, 1), Placement::Resident(42)).unwrap();
    let report = rt.finish().unwrap();
    assert!(report.outcomes.iter().all(|o| o.job_id != id));
    assert_eq!(report.stats.pipeline.cascade_cancelled, 1);
}

/// Sixteen banks with exactly one PIM unit each, so a poisoned bank maps
/// to exactly one unit.
fn sixteen_bank_config() -> MemoryConfig {
    MemoryConfig {
        banks: 16,
        subarrays_per_bank: 1,
        tiles_per_subarray: 1,
        dbcs_per_tile: 2,
        pim_dbcs_per_tile: 1,
        nanowires_per_dbc: 64,
        rows_per_dbc: 32,
        trd: 7,
        bus_mhz: 1000,
        memory_cycle_ns: 1.25,
    }
}

/// Quarantining the hosting bank re-materializes the resident weights on
/// a healthy bank, and dependent jobs keep computing the right answer
/// against the moved copy.
#[test]
fn quarantine_rematerializes_resident_weights() {
    let config = sixteen_bank_config();
    let poisoned_bank = 3;
    let plan = FaultPlan::healthy(0xDEC0DE)
        .with_bank(poisoned_bank, FaultConfig::NONE.with_tr_fault_rate(0.5))
        .unwrap();
    let policy = HealthPolicy {
        suspect_after: 1,
        quarantine_after: 2,
        scrub_on_suspect: false,
        max_inflight_per_bank: 1,
        max_redispatch: 6,
    };
    let options = RuntimeOptions::default()
        .with_faults(plan)
        .with_health(policy)
        .with_protection(ProtectionPolicy::Reexecute { max_retries: 1 })
        .with_shards(2);
    let rt = Runtime::new(config, options).unwrap();

    let storage = DbcLocation::new(0, 0, 0, 1);
    let pim = DbcLocation::new(0, 0, 0, 0);
    let pin_program = PimProgram {
        steps: vec![
            Step::Load {
                addr: RowAddress::new(storage, 5),
                values: vec![0x2D; 8],
                lane: 8,
            },
            Step::Readout {
                label: "pinned".into(),
                addr: RowAddress::new(storage, 5),
                lane: 8,
            },
        ],
    };
    // Unit index == bank index in this geometry: pin onto the poisoned
    // bank so its faults force a quarantine and a re-materialization.
    let pin = rt.pin_resident(pin_program, poisoned_bank).unwrap();

    let consumer = |operand: u64| PimProgram {
        steps: vec![
            Step::Exec(
                CpimInstr::new(
                    CpimOpcode::Copy,
                    RowAddress::new(storage, 5),
                    1,
                    BlockSize::new(8).unwrap(),
                    Some(RowAddress::new(pim, 4)),
                )
                .unwrap(),
            ),
            Step::Load {
                addr: RowAddress::new(pim, 5),
                values: vec![operand; 8],
                lane: 8,
            },
            Step::Exec(
                CpimInstr::new(
                    CpimOpcode::Add,
                    RowAddress::new(pim, 4),
                    2,
                    BlockSize::new(8).unwrap(),
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
    let mut consumers = Vec::new();
    for i in 0..12u64 {
        consumers.push((
            rt.submit(consumer(i + 1), Placement::Resident(pin.res))
                .unwrap(),
            i + 1,
        ));
    }

    let report = rt.finish().unwrap();
    assert!(
        report.stats.faults.quarantined_banks >= 1,
        "the poisoned bank was quarantined"
    );
    assert!(
        report.stats.pipeline.rematerializations >= 1,
        "the residency moved off the quarantined bank"
    );
    // Every consumer computed against a live copy of the weights, and
    // the ones that ran after the move verified on a healthy bank.
    for (id, operand) in consumers {
        let out = report.outcomes.iter().find(|o| o.job_id == id).unwrap();
        if out.verified {
            assert_eq!(
                out.outputs[0].1,
                vec![0x2D + operand; 8],
                "job {id} computed against the pinned weights"
            );
        }
        if out.bank != poisoned_bank {
            assert!(
                out.verified,
                "job {id} re-ran on a healthy bank and must verify"
            );
        }
    }
    assert!(
        report
            .outcomes
            .iter()
            .filter(|o| o.bank != poisoned_bank)
            .count()
            > 0,
        "some work moved off the poisoned bank"
    );
}

/// A pure chain's report is bit-identical across shard counts: gating
/// resolves in id order and pinned placements never consult the cursor.
#[test]
fn chain_report_is_deterministic_across_shards() {
    let run = |shards: usize| {
        let options = RuntimeOptions::default().with_shards(shards);
        let rt = Runtime::new(eight_bank_config(), options).unwrap();
        rt.submit_chain(vec![
            ChainJob {
                source: ProgramSource::Ready(add_job(2, 3)),
                placement: Placement::Unit(0),
                after: vec![],
            },
            ChainJob {
                source: ProgramSource::Ready(add_job(4, 5)),
                placement: Placement::Unit(1),
                after: vec![],
            },
            ChainJob {
                source: ProgramSource::Deferred {
                    deps: vec![0, 1],
                    build: Box::new(|deps| {
                        let a = deps[0][0].1[0]; // 5
                        let b = deps[1][0].1[0]; // 9
                        Ok(add_job(a, b))
                    }),
                },
                placement: Placement::Unit(2),
                after: vec![],
            },
        ])
        .unwrap();
        rt.finish().unwrap()
    };
    let baseline = run(1);
    assert_eq!(baseline.outcomes[2].outputs[0].1, vec![14; 8]);
    for shards in [2, 4] {
        let report = run(shards);
        assert_eq!(report.outcomes, baseline.outcomes, "shards = {shards}");
        assert_eq!(report.stats.makespan_cycles, baseline.stats.makespan_cycles);
    }
}

#[test]
fn ack_wakeups_release_dependency_chains_promptly() {
    // Regression for the event-driven scheduler wakeup: releasing a
    // dependency-gated job requires an ack to arrive while the scheduler
    // sits in its queue pop. Workers kick the queue's wakeup counter
    // after every ack, so each link of this chain must release in
    // microseconds — under lost-wakeup polling, every link would wait
    // out the full 50 ms pop timeout and a 40-deep chain would take
    // two seconds or more.
    let depth = 40usize;
    let chain: Vec<ChainJob> = (0..depth)
        .map(|i| ChainJob {
            source: ProgramSource::Ready(add_job(i as u64, 1)),
            placement: Placement::Auto,
            after: if i == 0 { vec![] } else { vec![i - 1] },
        })
        .collect();
    let runtime = Runtime::new(eight_bank_config(), RuntimeOptions::default()).unwrap();
    let begin = std::time::Instant::now();
    let ids = runtime.submit_chain(chain).expect("chain accepted");
    let report = runtime.finish().expect("chain drains");
    let elapsed = begin.elapsed();
    assert_eq!(report.outcomes.len(), depth);
    for id in ids {
        assert!(report.outcomes.iter().any(|o| o.job_id == id));
    }
    assert!(
        elapsed < std::time::Duration::from_millis(1_500),
        "a {depth}-deep chain drained in {elapsed:?}; ack wakeups must not poll"
    );
}
