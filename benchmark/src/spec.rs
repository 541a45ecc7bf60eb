//! The benchmark's fixed vocabulary: workload names, end-to-end metrics
//! with their regression bounds, per-layer metrics, and which end-to-end
//! metric each layer is expected to move. `BENCHMARK.json` at the repo
//! root lists exactly these names (a unit test holds the two together).

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Bigger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end only: the share of the baseline median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// Workloads and why each exists (one line; the README has the long
/// form).
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "device_direct",
        "512-wire paper DBC programs straight on one PimMachine: core/mem/racetrack do all the work, server/runtime/compiler none",
    ),
    (
        "serve_short",
        "shortest jobs through one long-lived Server, closed then open loop: frontend and scheduler dominate, compile cache always hits",
    ),
    (
        "compile_cold",
        "distinct 4-instruction chains into a fresh Runtime: every submit misses the compile cache and runs the pass pipeline; no server",
    ),
    (
        "cnn_frames",
        "LeNet-5 frames as pinned dependency chains through the whole stack: long device-bound jobs, classic-only features",
    ),
];

use Better::{Higher, Lower};

/// End-to-end metrics: what a user of the stack sees. Every workload
/// reports every one of them ("job" = one program, or one frame in
/// `cnn_frames`).
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("jobs_per_s", "1/s", Higher, 0.15),
    e2e("sim_cycles_per_s", "cycles/s", Higher, 0.15),
    e2e("cpu_us_per_job", "us", Lower, 0.15),
    e2e("p50_us", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
    e2e("modeled_device_cycles", "cycles", Lower, 0.0),
    e2e("modeled_makespan_cycles", "cycles", Lower, 0.0),
    e2e("modeled_energy_pj", "pJ", Lower, 0.0),
];

/// The first set-up of a run on its own, timed from the start of the
/// run and at reference host speed like `setup_s`: the only one that
/// pays what the process initialises once, which `setup_s`, a median of
/// five, drops. Every run prints it and
/// `--compare` judges it by `setup_s`'s bound; it is not contracted,
/// because one shot per process spreads wider from run to run than the
/// driver lets a contracted metric.
pub const SETUP_FIRST: MetricSpec = e2e("setup_first_s", "s", Lower, 0.25);

/// Per-layer metrics, measured from outside in a `--trace 1` run. A
/// layer the workload never calls reports 0: that *is* the measurement.
pub const PER_LAYER: &[MetricSpec] = &[
    layer("racetrack.shift_ns_per_step", "ns", Lower),
    layer("racetrack.tr_ns", "ns", Lower),
    layer("mem.shift_all_ns_per_step", "ns", Lower),
    layer("mem.tr_all_ns", "ns", Lower),
    layer("mem.read_row_ns", "ns", Lower),
    layer("mem.write_row_ns", "ns", Lower),
    layer("mem.store_row_ns", "ns", Lower),
    layer("mem.load_row_ns", "ns", Lower),
    layer("mem.row_pack_ns", "ns", Lower),
    layer("core.exec_ns_per_instr", "ns", Lower),
    layer("core.execute_on_us_per_job", "us", Lower),
    layer("core.host_ns_per_sim_cycle", "ns", Lower),
    layer("core.instr", "count", Lower),
    layer("core.device_cycles", "cycles", Lower),
    layer("compiler.optimize_us_per_program", "us", Lower),
    layer("compiler.programs", "count", Higher),
    layer("compiler.instr_eliminated", "count", Higher),
    layer("compiler.est_cycles_saved", "cycles", Higher),
    layer("runtime.submit_us_per_job", "us", Lower),
    layer("runtime.finish_ms", "ms", Lower),
    layer("runtime.finish_us_per_job", "us", Lower),
    layer("runtime.cache_hits", "count", Higher),
    layer("runtime.cache_misses", "count", Lower),
    layer("runtime.cache_evictions", "count", Lower),
    layer("runtime.cache_hit_ratio", "ratio", Higher),
    layer("runtime.sched_busy_us_per_job", "us", Lower),
    layer("runtime.sched_pop_us_per_job", "us", Lower),
    layer("runtime.sched_admit_us_per_job", "us", Lower),
    layer("runtime.sched_place_us_per_job", "us", Lower),
    layer("runtime.sched_dispatch_us_per_job", "us", Lower),
    layer("runtime.sched_ack_us_per_job", "us", Lower),
    layer("runtime.occupancy_pct", "%", Higher),
    layer("runtime.wait_cycles_mean", "cycles", Lower),
    layer("runtime.overhead_us_per_job", "us", Lower),
    layer("server.submit_us_per_job", "us", Lower),
    layer("server.overhead_us_per_job", "us", Lower),
    layer("server.frontend_efficiency", "ratio", Higher),
    layer("server.shutdown_ms", "ms", Lower),
    layer("server.accepted", "count", Higher),
    layer("server.shed", "count", Lower),
    layer("server.completed", "count", Higher),
    layer("server.open_samples", "count", Higher),
    layer("server.open_p90_us", "us", Lower),
    layer("server.open_p99_us", "us", Lower),
    layer("server.open_p999_us", "us", Lower),
    layer("server.open3k_p50_us", "us", Lower),
    layer("server.open12k_p50_us", "us", Lower),
    layer("server.open12k_p99_us", "us", Lower),
    layer("server.rate_ok_max", "1/s", Higher),
    layer("pipeline.pin_ms", "ms", Lower),
    layer("pipeline.submit_batch_ms", "ms", Lower),
    layer("pipeline.wait_ms", "ms", Lower),
    layer("pipeline.jobs_per_frame", "count", Lower),
    layer("nn.run_pim_ms_per_frame", "ms", Lower),
    layer("pipeline.serving_efficiency", "ratio", Higher),
    layer("loadgen.late_p99_us", "us", Lower),
    layer("loadgen.late_max_us", "us", Lower),
    layer("round.spread_pct", "%", Lower),
    layer("trace.spans", "count", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("stack.unattributed_us_per_job", "us", Lower),
];

/// Which end-to-end metric, on which workload, each layer's numbers are
/// expected to move; everywhere else the prediction is "no change".
pub const LAYER_MOVES: &[(&str, &str)] = &[
    (
        "racetrack",
        "sim_cycles_per_s@device_direct, jobs_per_s@cnn_frames",
    ),
    (
        "mem",
        "sim_cycles_per_s@device_direct, jobs_per_s@cnn_frames; little on jobs_per_s@serve_short, none on p50_us@serve_short",
    ),
    (
        "core",
        "sim_cycles_per_s@device_direct; cpu_us_per_job everywhere in proportion to core.execute_on_us_per_job / cpu_us_per_job",
    ),
    (
        "compiler",
        "jobs_per_s and cpu_us_per_job@compile_cold; modeled_device_cycles@compile_cold if it emits better code; nothing on serve_short or device_direct",
    ),
    (
        "runtime",
        "jobs_per_s and cpu_us_per_job@compile_cold and @serve_short; runtime.finish_* -> peak_rss_mb@serve_short",
    ),
    (
        "server",
        "jobs_per_s, p50_us and cpu_us_per_job@serve_short only",
    ),
    ("pipeline", "jobs_per_s and setup_s@cnn_frames"),
    ("nn", "jobs_per_s@cnn_frames"),
    (
        "loadgen",
        "none: flags a run whose p50_us measures the generator, not the server",
    ),
    (
        "round",
        "none: a spread above a metric's bound makes --compare report it unresolved",
    ),
    ("trace", "none: the cost of observing"),
    (
        "stack",
        "none: CPU per job no layer metric accounts for",
    ),
];

/// Looks a metric up in either table.
#[must_use]
pub fn find(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Whether `name` is made only of the characters the benchmark contract
/// allows (letters, digits, `_`, `.`, `-`), starts with a letter or a
/// digit, and is at most 64 long.
#[must_use]
pub fn well_formed(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}
