//! Perf-trajectory harness for the runtime's cross-job optimizations:
//! a shards × cache × batch grid over a bank-blocked bitmap-query
//! stream, plus a repeated-query campaign isolating the compile-time
//! saving of the compiled-program cache.
//!
//! The `bench_runtime` binary serializes the result to
//! `BENCH_runtime.json` so successive PRs leave a comparable perf
//! trajectory in the repository history.

use coruscant_mem::{MemoryConfig, MemoryController};
use coruscant_runtime::{
    BatchOptions, CacheOptions, Placement, Runtime, RuntimeOptions, RuntimeReport, SchedMode,
    SchedStats,
};
use coruscant_workloads::bitmap::BitmapDataset;
use coruscant_workloads::compile::PimProgram;
use coruscant_workloads::serve::{compile_bitmap_query_with, QueryPlan};
use serde::Serialize;
use std::time::Instant;

/// One cell of the shards × cache × batch grid.
#[derive(Debug, Clone, Serialize)]
pub struct GridPoint {
    /// Worker shards the session ran with.
    pub shards: usize,
    /// Whether the compiled-program cache was enabled.
    pub cache: bool,
    /// Whether same-bank batch fusion was enabled.
    pub batch: bool,
    /// Jobs served.
    pub jobs: u64,
    /// Host wall time, milliseconds, submit through finish.
    pub wall_ms: f64,
    /// Host throughput.
    pub jobs_per_sec: f64,
    /// Total modeled device cycles across all jobs.
    pub device_cycles: u64,
    /// Modeled end-to-end makespan (memory cycles, all banks drained).
    pub makespan_cycles: u64,
    /// Cache hits the session recorded.
    pub cache_hits: u64,
    /// Batched dispatches (≥2 jobs spliced) the session recorded.
    pub batches: u64,
}

/// The repeated-query campaign: the same compiled query submitted many
/// times, cold (cache off) vs warm (cache on).
#[derive(Debug, Clone, Serialize)]
pub struct RepeatedQueryCampaign {
    /// Submissions per arm.
    pub jobs: u64,
    /// Submit-side wall time with the cache disabled (every submission
    /// runs the full pass pipeline), milliseconds.
    pub cold_submit_ms: f64,
    /// Submit-side wall time with the cache enabled (one miss, then
    /// hash-lookup hits), milliseconds.
    pub warm_submit_ms: f64,
    /// `cold_submit_ms / warm_submit_ms` — the compile-time saving.
    pub speedup: f64,
    /// Cache hits the warm arm recorded (must be `jobs - 1`).
    pub warm_hits: u64,
}

/// Share of the scheduling hot path each stage consumed, percent of the
/// summed stage micros.
#[derive(Debug, Clone, Default, Serialize)]
pub struct StagePct {
    /// Submission-queue pops (and steal sweeps, parallel mode).
    pub pop: f64,
    /// Admission: compile-cache front, gating, chain admission.
    pub admit: f64,
    /// Placement resolution (unit choice and bank queueing).
    pub place: f64,
    /// Batching, splicing, and dispatch (inline execution, parallel mode).
    pub dispatch: f64,
    /// Completion-ack draining and bookkeeping.
    pub ack: f64,
}

impl StagePct {
    fn of(sched: &SchedStats) -> StagePct {
        let total = sched.stage_micros();
        if total == 0 {
            return StagePct::default();
        }
        let pct = |v: u64| v as f64 / total as f64 * 100.0;
        StagePct {
            pop: pct(sched.pop_micros),
            admit: pct(sched.admit_micros),
            place: pct(sched.place_micros),
            dispatch: pct(sched.dispatch_micros),
            ack: pct(sched.ack_micros),
        }
    }
}

/// One cell of the scheduler-scaling sweep: a mode × shards × jobs run
/// with its wall throughput and its preemption-independent capacity.
#[derive(Debug, Clone, Serialize)]
pub struct ScalePoint {
    /// Scheduling engine: `"classic"` or `"parallel"`.
    pub mode: String,
    /// Shards (classic workers, or parallel scheduler domains).
    pub shards: usize,
    /// Jobs served.
    pub jobs: u64,
    /// Host wall time, milliseconds, submit through finish.
    pub wall_ms: f64,
    /// Host wall throughput. On hosts with fewer cores than shards this
    /// is preemption-bound — compare `capacity_jobs_per_sec` instead.
    pub jobs_per_sec: f64,
    /// Scheduler-capacity throughput: jobs divided by the busiest single
    /// thread's CPU busy time. Immune to core-count preemption, this is
    /// the serial-bottleneck metric scaling claims are made against.
    pub capacity_jobs_per_sec: f64,
    /// Busiest single thread's CPU busy time, microseconds.
    pub busy_micros: u64,
    /// Busiest thread's busy share of the engine's wall, percent.
    pub occupancy_pct: f64,
    /// Submissions moved between domains by work-stealing.
    pub steals: u64,
    /// Dispatches each shard/domain issued.
    pub per_shard_issued: Vec<u64>,
    /// Member jobs each shard/domain completed.
    pub per_shard_jobs: Vec<u64>,
    /// Where the scheduling hot path spent its stage time.
    pub stage_pct: StagePct,
}

/// The perf-smoke summary: the 8-domain vs 1-domain parallel scaling
/// ratio CI gates on, measured best-of-N on the capacity metric.
#[derive(Debug, Clone, Serialize)]
pub struct PerfSmoke {
    /// What the gated number means (kept in the JSON so the trajectory
    /// is self-describing).
    pub metric: String,
    /// Cores the host offered (`std::thread::available_parallelism`).
    pub host_cores: usize,
    /// Jobs per arm.
    pub jobs: u64,
    /// Runs per arm; each arm keeps its best capacity.
    pub best_of: usize,
    /// Best 1-domain parallel capacity, jobs/sec.
    pub capacity_1: f64,
    /// Best 8-domain parallel capacity, jobs/sec.
    pub capacity_8: f64,
    /// `capacity_8 / capacity_1` — the gated scaling ratio.
    pub capacity_ratio_8v1: f64,
    /// Wall-throughput ratio of the same best runs (informational; on a
    /// 1-core host this sits near 1.0 by construction).
    pub wall_ratio_8v1: f64,
}

/// The full `BENCH_runtime.json` payload.
#[derive(Debug, Clone, Serialize)]
pub struct RuntimeBench {
    /// Banks in the benched geometry.
    pub banks: usize,
    /// PIM units in the benched geometry.
    pub pim_units: usize,
    /// Cores the host offered while benching.
    pub host_cores: usize,
    /// The shards × cache × batch grid.
    pub grid: Vec<GridPoint>,
    /// The compile-time campaign.
    pub repeated_query: RepeatedQueryCampaign,
    /// The mode × shards × jobs scheduler-scaling sweep.
    pub scaling: Vec<ScalePoint>,
    /// The gated parallel-scaling summary.
    pub perf_smoke: PerfSmoke,
}

/// Cores the host offers (1 if the query fails).
#[must_use]
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The job stream the grid serves: bitmap-query chunks placed in blocks
/// of `block` consecutive jobs per PIM unit, so same-unit runs exist for
/// batch fusion while the blocks still spread over every bank.
fn blocked_placements(n_jobs: usize, units: usize, block: usize) -> Vec<Placement> {
    (0..n_jobs)
        .map(|i| Placement::Unit((i / block) % units))
        .collect()
}

fn run_session(
    config: &MemoryConfig,
    programs: &[PimProgram],
    placements: &[Placement],
    options: RuntimeOptions,
) -> (RuntimeReport, f64) {
    let start = Instant::now();
    // Whether a batch cell batches must not hang on how fast the
    // scheduler drains the queue: its first queue-full lines up behind
    // the pause gate, so the first issue pass finds whole same-unit runs.
    let staged = if options.batch.enabled {
        options.queue_capacity
    } else {
        0
    };
    let options = RuntimeOptions {
        start_paused: staged > 0,
        ..options
    };
    let rt = Runtime::new(config.clone(), options).expect("runtime options are valid");
    for (i, (program, placement)) in programs.iter().zip(placements).enumerate() {
        if i == staged {
            rt.resume();
        }
        rt.submit(program.clone(), *placement)
            .expect("submission succeeds");
    }
    let report = rt.finish().expect("session completes");
    (report, start.elapsed().as_secs_f64() * 1e3)
}

/// Runs one grid cell.
#[must_use]
pub fn grid_point(
    config: &MemoryConfig,
    programs: &[PimProgram],
    placements: &[Placement],
    shards: usize,
    cache: bool,
    batch: bool,
) -> GridPoint {
    let options = RuntimeOptions::default()
        .with_shards(shards)
        .with_cache(CacheOptions {
            enabled: cache,
            // Hold the whole distinct-program set even with skewed hash
            // partitioning across lock shards, so every repeat hits.
            capacity: programs.len().max(CacheOptions::default().capacity),
            ..CacheOptions::default()
        })
        .with_batch(if batch {
            BatchOptions::enabled()
        } else {
            BatchOptions::default()
        });
    let (report, wall_ms) = run_session(config, programs, placements, options);
    GridPoint {
        shards,
        cache,
        batch,
        jobs: report.stats.jobs,
        wall_ms,
        jobs_per_sec: report.stats.jobs as f64 / (wall_ms / 1e3),
        device_cycles: report.stats.device_cycles,
        makespan_cycles: report.stats.makespan_cycles,
        cache_hits: report.stats.cache.hits,
        batches: report.stats.batch.batches,
    }
}

/// Runs the full shards × cache × batch grid over a `rows`-row
/// bitmap-query stream submitted `rounds` times.
///
/// The repeats are what give the compiled-program cache something to do:
/// every chunk program is distinct, so a single pass can never hit — a
/// `cache: true` cell at `rounds` ≥ 2 must record exactly
/// `chunks × (rounds − 1)` hits.
#[must_use]
pub fn run_grid(
    config: &MemoryConfig,
    rows: usize,
    shards: &[usize],
    rounds: usize,
) -> Vec<GridPoint> {
    let ds = BitmapDataset::generate(rows, 3, 11);
    let chunk_programs = compile_bitmap_query_with(&ds, 3, config, QueryPlan::PairwiseChain)
        .expect("query compiles");
    let programs: Vec<PimProgram> = std::iter::repeat_with(|| chunk_programs.iter().cloned())
        .take(rounds.max(1))
        .flatten()
        .collect();
    let units = MemoryController::new(config.clone()).pim_unit_count();
    let placements = blocked_placements(programs.len(), units, 8);
    let mut grid = Vec::new();
    for &s in shards {
        for cache in [false, true] {
            for batch in [false, true] {
                grid.push(grid_point(config, &programs, &placements, s, cache, batch));
            }
        }
    }
    grid
}

/// Submits the same query program `jobs` times and measures the
/// submit-side (compile) wall time, cache off vs cache on.
#[must_use]
pub fn repeated_query_campaign(config: &MemoryConfig, jobs: u64) -> RepeatedQueryCampaign {
    let ds = BitmapDataset::generate(64, 4, 7);
    let program = compile_bitmap_query_with(&ds, 4, config, QueryPlan::PairwiseChain)
        .expect("query compiles")
        .remove(0);

    let arm = |cache: bool| -> (f64, u64) {
        let options = RuntimeOptions::default().with_cache(CacheOptions {
            enabled: cache,
            ..CacheOptions::default()
        });
        let rt = Runtime::new(config.clone(), options).expect("runtime options are valid");
        let start = Instant::now();
        for _ in 0..jobs {
            rt.submit(program.clone(), Placement::Auto)
                .expect("submission succeeds");
        }
        let submit_ms = start.elapsed().as_secs_f64() * 1e3;
        let report = rt.finish().expect("session completes");
        (submit_ms, report.stats.cache.hits)
    };

    let (cold_submit_ms, _) = arm(false);
    let (warm_submit_ms, warm_hits) = arm(true);
    RepeatedQueryCampaign {
        jobs,
        cold_submit_ms,
        warm_submit_ms,
        speedup: cold_submit_ms / warm_submit_ms,
        warm_hits,
    }
}

/// A job stream of exactly `jobs` programs: the dataset's chunk
/// programs cycled until the count is met (all submitted `Auto`, so the
/// parallel router round-robins them and work-stealing stays legal).
fn scaling_stream(config: &MemoryConfig, jobs: usize) -> Vec<PimProgram> {
    let ds = BitmapDataset::generate(4_000, 3, 11);
    let chunks = compile_bitmap_query_with(&ds, 3, config, QueryPlan::PairwiseChain)
        .expect("query compiles");
    chunks.iter().cloned().cycle().take(jobs).collect()
}

/// Runs one scaling cell: `jobs` Auto submissions through the chosen
/// engine at the chosen shard count.
#[must_use]
pub fn scale_point(
    config: &MemoryConfig,
    programs: &[PimProgram],
    mode: SchedMode,
    shards: usize,
) -> ScalePoint {
    let placements = vec![Placement::Auto; programs.len()];
    let options = RuntimeOptions::default()
        .with_shards(shards)
        .with_sched_mode(mode);
    let (report, wall_ms) = run_session(config, programs, &placements, options);
    let sched = &report.stats.sched;
    let jobs = report.stats.jobs;
    ScalePoint {
        mode: sched.mode.clone(),
        shards,
        jobs,
        wall_ms,
        jobs_per_sec: jobs as f64 / (wall_ms / 1e3),
        capacity_jobs_per_sec: if sched.busy_micros > 0 {
            jobs as f64 / (sched.busy_micros as f64 / 1e6)
        } else {
            0.0
        },
        busy_micros: sched.busy_micros,
        occupancy_pct: sched.occupancy_pct,
        steals: sched.steals,
        per_shard_issued: sched.per_domain.iter().map(|d| d.issued).collect(),
        per_shard_jobs: sched.per_domain.iter().map(|d| d.jobs).collect(),
        stage_pct: StagePct::of(sched),
    }
}

/// The scheduler-scaling sweep: both engines at every shard count, at
/// every job count.
#[must_use]
pub fn scaling_sweep(
    config: &MemoryConfig,
    shards: &[usize],
    jobs_counts: &[usize],
) -> Vec<ScalePoint> {
    let mut points = Vec::new();
    for &jobs in jobs_counts {
        let programs = scaling_stream(config, jobs);
        for mode in [SchedMode::Classic, SchedMode::Parallel] {
            for &s in shards {
                points.push(scale_point(config, &programs, mode, s));
            }
        }
    }
    points
}

/// The gated perf-smoke measurement: best-of-`best_of` parallel runs at
/// 1 and at 8 domains, compared on the capacity metric.
#[must_use]
pub fn perf_smoke(config: &MemoryConfig, jobs: usize, best_of: usize) -> PerfSmoke {
    let programs = scaling_stream(config, jobs);
    let best_arm = |shards: usize| -> ScalePoint {
        (0..best_of.max(1))
            .map(|_| scale_point(config, &programs, SchedMode::Parallel, shards))
            .max_by(|a, b| a.capacity_jobs_per_sec.total_cmp(&b.capacity_jobs_per_sec))
            .expect("at least one run")
    };
    let one = best_arm(1);
    let eight = best_arm(8);
    PerfSmoke {
        metric: "capacity_jobs_per_sec = jobs / busiest-thread busy CPU time; \
                 thread CPU time excludes preemption, so the 8v1 ratio measures \
                 serial-bottleneck scaling even on hosts with fewer cores than domains"
            .into(),
        host_cores: host_cores(),
        jobs: one.jobs,
        best_of: best_of.max(1),
        capacity_1: one.capacity_jobs_per_sec,
        capacity_8: eight.capacity_jobs_per_sec,
        capacity_ratio_8v1: eight.capacity_jobs_per_sec / one.capacity_jobs_per_sec,
        wall_ratio_8v1: eight.jobs_per_sec / one.jobs_per_sec,
    }
}

/// Runs the whole harness: the grid (each stream submitted `rounds`
/// times), the repeated-query campaign, the scheduler-scaling sweep,
/// and the gated perf-smoke summary.
#[must_use]
pub fn run_full(
    config: &MemoryConfig,
    rows: usize,
    shards: &[usize],
    rounds: usize,
    jobs: u64,
    scaling_jobs: &[usize],
) -> RuntimeBench {
    RuntimeBench {
        banks: config.banks,
        pim_units: MemoryController::new(config.clone()).pim_unit_count(),
        host_cores: host_cores(),
        grid: run_grid(config, rows, shards, rounds),
        repeated_query: repeated_query_campaign(config, jobs),
        scaling: scaling_sweep(config, shards, scaling_jobs),
        perf_smoke: perf_smoke(config, scaling_jobs.last().copied().unwrap_or(1_000), 3),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny-geometry smoke: the whole harness runs, every grid cell
    /// serves the same job count with identical modeled device cycles at
    /// batch off, the warm arm hits `jobs - 1` times, and batching
    /// engages where enabled.
    #[test]
    fn harness_smoke_on_tiny_geometry() {
        let config = MemoryConfig::tiny();
        let rounds = 2;
        let bench = run_full(&config, 2_000, &[1, 2], rounds, 200, &[200]);
        assert_eq!(bench.grid.len(), 8);
        let jobs = bench.grid[0].jobs;
        assert!(jobs > 0);
        // Distinct chunk programs per round; repeats are the hits.
        let expected_hits = jobs / rounds as u64 * (rounds as u64 - 1);
        for cell in &bench.grid {
            assert_eq!(cell.jobs, jobs, "every cell serves the whole stream");
            assert!(cell.wall_ms > 0.0);
            if cell.batch {
                assert!(cell.batches > 0, "batch cells must batch: {cell:?}");
            } else {
                assert_eq!(cell.batches, 0);
            }
            if cell.cache {
                assert_eq!(
                    cell.cache_hits, expected_hits,
                    "cache cells must hit on every repeated chunk: {cell:?}"
                );
            } else {
                assert_eq!(cell.cache_hits, 0);
            }
        }
        // Cross-boundary optimization may only ever *reduce* modeled
        // device work (grid order: batch-off cell then batch-on cell).
        assert!(bench.grid[1].device_cycles <= bench.grid[0].device_cycles);
        assert_eq!(bench.repeated_query.warm_hits, 200 - 1);
        assert!(
            bench.repeated_query.speedup > 1.0,
            "warm submits must be cheaper: {:?}",
            bench.repeated_query
        );
        // Scaling sweep: both engines at both shard counts, one jobs
        // count, every cell serving the whole stream.
        assert_eq!(bench.scaling.len(), 4);
        for point in &bench.scaling {
            assert_eq!(point.jobs, 200, "{point:?}");
            assert!(point.capacity_jobs_per_sec > 0.0, "{point:?}");
            assert_eq!(point.per_shard_jobs.iter().sum::<u64>(), 200, "{point:?}");
            let stage_total = point.stage_pct.pop
                + point.stage_pct.admit
                + point.stage_pct.place
                + point.stage_pct.dispatch
                + point.stage_pct.ack;
            assert!(
                (stage_total - 100.0).abs() < 1e-6,
                "stage percentages sum to 100: {point:?}"
            );
        }
        assert!(bench.perf_smoke.capacity_ratio_8v1 > 0.0);
        assert!(bench.perf_smoke.host_cores >= 1);
    }
}
