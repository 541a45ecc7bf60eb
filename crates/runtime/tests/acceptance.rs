//! Acceptance tests for the execution runtime: the paper's §V-C
//! bank-overlap property, agreement with the memory controller's
//! accounting, determinism across shard counts, and the event trace.

use coruscant_core::isa::{BlockSize, CpimInstr, CpimOpcode};
use coruscant_core::program::{PimProgram, Step};
use coruscant_mem::controller::Request;
use coruscant_mem::{DbcLocation, MemoryConfig, MemoryController, RowAddress};
use coruscant_runtime::{
    run_batch, ChainJob, DispatchMode, Histogram, JobOutcome, Placement, ProgramSource, Runtime,
    RuntimeOptions, RuntimeReport, RuntimeStats, SchedStats,
};

/// Eight banks so circular dispatch has room to spread a burst.
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
/// The placement is nominal — the executor binds it to the job's unit.
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

fn run(config: &MemoryConfig, n: u64, dispatch: DispatchMode, shards: usize) -> RuntimeReport {
    let options = RuntimeOptions::default()
        .with_dispatch(dispatch)
        .with_shards(shards);
    let programs = (0..n).map(|i| add_job(i, 10)).collect();
    run_batch(config, programs, options).unwrap()
}

/// The acceptance criterion: N independent single-op jobs issued
/// circularly onto N distinct banks complete in far less than N times the
/// single-op modeled latency, while the same N jobs forced onto one bank
/// serialize to at least N times that latency (§V-C).
#[test]
fn circular_dispatch_overlaps_banks_single_bank_serializes() {
    let config = eight_bank_config();
    let n = config.banks as u64; // one job per bank

    let single = run(&config, 1, DispatchMode::Circular, 2)
        .stats
        .makespan_cycles;
    assert!(single > 1, "a PIM add takes multiple memory cycles");

    let circular = run(&config, n, DispatchMode::Circular, 4);
    let serial = run(&config, n, DispatchMode::SingleBank, 4);

    // Every bank got exactly one job under circular dispatch.
    let banks: Vec<usize> = circular.outcomes.iter().map(|o| o.bank).collect();
    let mut sorted = banks.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), config.banks, "jobs spread over all banks");

    // Overlap: the whole burst finishes in less than N single-op
    // latencies — in fact within one latency plus the command-bus skew.
    assert!(
        circular.stats.makespan_cycles < n * single,
        "circular {} must beat N x single {}",
        circular.stats.makespan_cycles,
        n * single
    );
    assert!(
        circular.stats.makespan_cycles <= single + n,
        "banks overlap up to command-bus skew: {} vs {}",
        circular.stats.makespan_cycles,
        single + n
    );

    // Serialization: one bank services the burst back-to-back.
    assert_eq!(
        serial.outcomes.iter().map(|o| o.bank).max(),
        Some(0),
        "single-bank mode keeps every job on bank 0"
    );
    assert!(
        serial.stats.makespan_cycles >= n * single,
        "single-bank {} must serialize to at least N x single {}",
        serial.stats.makespan_cycles,
        n * single
    );

    // Waits mirror the same story.
    assert!(circular.outcomes.iter().all(|o| o.wait_cycles == 0));
    assert!(serial
        .outcomes
        .iter()
        .any(|o| o.wait_cycles >= (n - 1) * (single - 1)));

    // And both modes compute the right sums.
    for report in [&circular, &serial] {
        for out in &report.outcomes {
            assert_eq!(out.outputs[0].1, vec![out.job_id + 10; 8]);
        }
    }
}

/// The runtime's modeled completion times agree exactly with a bare
/// `MemoryController` replay of the same PIM command stream in issue
/// order.
#[test]
fn modeled_times_agree_with_controller_accounting() {
    let config = eight_bank_config();
    let report = run(&config, 12, DispatchMode::Circular, 4);

    let mut replay = MemoryController::new(config);
    let mut by_seq = report.outcomes.clone();
    by_seq.sort_by_key(|o| o.seq);
    for out in &by_seq {
        // Single-instruction jobs: the job's device cycles are the
        // instruction's device cycles.
        let expect_wait = replay.bank_free_at(out.bank).saturating_sub(replay.now());
        let done = replay
            .submit(Request::Pim {
                location: out.unit,
                device_cycles: out.device_cycles,
                energy_pj: 0.0,
            })
            .unwrap();
        assert_eq!(out.wait_cycles, expect_wait, "job {}", out.job_id);
        assert_eq!(out.completion, done, "job {}", out.job_id);
    }
    assert_eq!(report.stats.makespan_cycles, replay.drain());
    assert_eq!(
        report.stats.bank_stats.requests,
        replay.bank_stats().requests
    );
}

/// Results and modeled times are a function of the job stream, not of the
/// host parallelism: every shard count produces the identical report.
#[test]
fn report_is_deterministic_across_shard_counts() {
    let config = eight_bank_config();
    let baseline = run(&config, 20, DispatchMode::Circular, 1);
    for shards in [2, 4, 8] {
        let report = run(&config, 20, DispatchMode::Circular, shards);
        assert_eq!(report.outcomes, baseline.outcomes, "shards = {shards}");
        assert_eq!(
            report.stats.makespan_cycles, baseline.stats.makespan_cycles,
            "shards = {shards}"
        );
        assert_eq!(report.stats.per_bank, baseline.stats.per_bank);
        assert_eq!(report.stats.wait, baseline.stats.wait);
    }
}

/// The JSONL event trace records one submit, issue, and complete line per
/// job, each parseable as JSON.
#[test]
fn event_trace_records_job_lifecycle() {
    let config = eight_bank_config();
    let path = std::env::temp_dir().join("coruscant_runtime_acceptance_trace.jsonl");
    let options = RuntimeOptions {
        trace_path: Some(path.clone()),
        ..RuntimeOptions::default()
    };
    let rt = Runtime::new(config, options).unwrap();
    for i in 0..5 {
        rt.submit(add_job(i, 1), Placement::Auto).unwrap();
    }
    let report = rt.finish().unwrap();
    assert_eq!(report.stats.jobs, 5);

    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 15, "submit + issue + complete per job");
    for kind in ["Submit", "Issue", "Complete"] {
        assert_eq!(lines.iter().filter(|l| l.contains(kind)).count(), 5);
    }
    for line in lines {
        serde::json::parse(line).unwrap();
    }
}

/// A dependency-gated job is traced as `Released` when its last
/// predecessor retires: a three-member chain releases its second and
/// third members, and its head (gated by nothing) is never released.
#[test]
fn event_trace_records_dependency_releases() {
    let config = eight_bank_config();
    let path = std::env::temp_dir().join("coruscant_runtime_acceptance_release_trace.jsonl");
    let options = RuntimeOptions {
        trace_path: Some(path.clone()),
        ..RuntimeOptions::default()
    };
    let rt = Runtime::new(config, options).unwrap();
    let member = |i: u64, after: Vec<usize>| ChainJob {
        source: ProgramSource::Ready(add_job(i, 1)),
        placement: Placement::Unit(i as usize),
        after,
    };
    let ids = rt
        .submit_chain(vec![
            member(0, vec![]),
            member(1, vec![0]),
            member(2, vec![1]),
        ])
        .unwrap();
    let report = rt.finish().unwrap();
    assert_eq!(report.stats.jobs, 3);

    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let released: Vec<&str> = text.lines().filter(|l| l.contains("Released")).collect();
    assert_eq!(released.len(), 2, "{text}");
    for (line, id) in released.iter().zip(&ids[1..]) {
        assert!(line.contains(&format!("\"job\":{id}")), "{line}");
    }
}

/// Pinned placements land where the client asked.
#[test]
fn explicit_placements_are_honored() {
    let config = eight_bank_config();
    let rt = Runtime::new(config, RuntimeOptions::default()).unwrap();
    rt.submit(add_job(1, 2), Placement::Unit(3)).unwrap();
    let pinned = DbcLocation::new(5, 1, 0, 0);
    rt.submit(add_job(3, 4), Placement::Fixed(pinned)).unwrap();
    let report = rt.finish().unwrap();
    assert_eq!(report.outcomes[0].bank, 3, "unit 3 is bank-major bank 3");
    assert_eq!(report.outcomes[1].unit, pinned);
    assert_eq!(report.outcomes[1].bank, 5);
    assert_eq!(report.outcomes[0].outputs[0].1, vec![3; 8]);
    assert_eq!(report.outcomes[1].outputs[0].1, vec![7; 8]);
}

/// `Runtime::take_outcomes` partitions a session's outcomes: whatever
/// the harvest points, taken ∪ reported is every outcome of the same
/// session never harvested, each once, and the stats do not notice.
#[test]
fn harvested_and_reported_outcomes_partition_the_session() {
    /// The stats minus what depends on thread timing: the scheduler's
    /// wall-clock profile and the FIFO depths seen at enqueue.
    fn modeled(mut stats: RuntimeStats) -> RuntimeStats {
        stats.sched = SchedStats::default();
        stats.queue_depth = Histogram::new();
        stats
    }
    let config = eight_bank_config();
    let jobs = 240u64;
    for (seed, shards) in [(1u64, 1usize), (2, 4), (3, 8), (4, 2)] {
        let options = || RuntimeOptions::default().with_shards(shards);
        let rt = Runtime::new(config.clone(), options()).unwrap();
        for i in 0..jobs {
            rt.submit(add_job(i % 100, seed), Placement::Auto).unwrap();
        }
        let baseline = rt.finish().unwrap();
        assert_eq!(baseline.outcomes.len() as u64, jobs);

        let rt = Runtime::new(config.clone(), options()).unwrap();
        let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut taken: Vec<JobOutcome> = Vec::new();
        let mut harvests = 0;
        for i in 0..jobs {
            rt.submit(add_job(i % 100, seed), Placement::Auto).unwrap();
            // xorshift: harvest after about one submission in eight.
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            if rng % 8 != 0 {
                continue;
            }
            // Something submitted is not taken yet, so it will retire.
            let mut batch = rt.take_outcomes();
            while batch.is_empty() {
                std::thread::yield_now();
                batch = rt.take_outcomes();
            }
            assert!(
                batch.windows(2).all(|w| w[0].seq < w[1].seq),
                "a harvest is in issue order"
            );
            taken.append(&mut batch);
            harvests += 1;
        }
        assert!(harvests > 10, "seed {seed}: {harvests} harvest points");
        let report = rt.finish().unwrap();
        assert!(
            (report.outcomes.len() as u64) < jobs,
            "taken outcomes are not reported again"
        );
        taken.extend(report.outcomes);
        taken.sort_by_key(|o| o.job_id);
        assert_eq!(taken, baseline.outcomes, "seed {seed}, shards {shards}");
        assert_eq!(
            modeled(report.stats),
            modeled(baseline.stats),
            "seed {seed}, shards {shards}"
        );
    }
}
