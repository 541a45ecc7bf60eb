//! The four workloads and the contract the driver runs them through.

pub mod cnn_frames;
pub mod compile_cold;
pub mod device_direct;
pub mod serve_short;

use crate::report::Report;
use crate::trace::Tracer;
use coruscant::mem::MemoryConfig;
use coruscant::workloads::bitmap::BitmapDataset;

/// What `--seed` and `--scale` give a workload.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Reseeds every dataset, image and arrival schedule.
    pub seed: u64,
    /// Multiplies the work in a round (1.0 = the sizes the bounds were
    /// set at; the smoke tests run at 0.02).
    pub scale: f64,
}

impl Params {
    /// `n` scaled, but never below `min`.
    #[must_use]
    pub fn scaled(&self, n: usize, min: usize) -> usize {
        ((n as f64 * self.scale).round() as usize).max(min)
    }
}

/// Simulated cost of a workload's deterministic pass — the axis the
/// paper's tables are built from, which no host-time change may move.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Modeled {
    /// Device cycles inside the PIM units.
    pub device_cycles: u64,
    /// Memory cycles until the last bank drained.
    pub makespan_cycles: u64,
    /// Energy charged by the controller.
    pub energy_pj: f64,
}

impl Modeled {
    /// Cycles identical, energy within 1e-9 relative (it is summed in
    /// `f64`).
    #[must_use]
    pub fn agrees(&self, other: &Modeled) -> bool {
        self.device_cycles == other.device_cycles
            && self.makespan_cycles == other.makespan_cycles
            && (self.energy_pj - other.energy_pj).abs() <= 1e-9 * self.energy_pj.abs()
    }
}

/// What one fixed-work round measured.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Jobs behind `wall_s` (the closed-loop phase in `serve_short`).
    pub jobs: u64,
    /// Wall time those jobs took.
    pub wall_s: f64,
    /// Process CPU over every timed section of the round.
    pub cpu_s: f64,
    /// Jobs behind `cpu_s`.
    pub cpu_jobs: u64,
    /// One latency per job that has one, microseconds.
    pub latencies_us: Vec<f64>,
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs rejected, shed, expired, failed, lost, or wrong.
    pub failed: u64,
}

/// One workload. The driver calls `setup` five times (the median is
/// `setup_s`), `round` a fixed number of times, `layers` in a traced run
/// only, and `teardown` once.
pub trait Workload: Sized {
    /// Name on the command line and in `BENCHMARK.json`.
    const NAME: &'static str;

    /// Wall seconds one full-size round takes on the reference host;
    /// `--seconds` over this is the round count.
    const ROUND_SECONDS: f64;

    /// Whether a job's latency is a stretch of computing, which slows
    /// with the host as throughput does and is reported at reference host
    /// speed like it (see [`crate::calib`]) — or mostly threads waking
    /// each other, which the calibration kernel does not track: that
    /// latency is reported as measured.
    const LATENCY_IS_COMPUTE: bool;

    /// Everything before the first timed round: inputs from the seed,
    /// reference answers, the modeled pass, servers, pins, warm-up.
    fn setup(params: &Params) -> Self;

    /// The modeled pass `setup` ran.
    fn modeled(&self) -> Modeled;

    /// One round of fixed work, every output checked.
    fn round(&mut self, index: usize, tracer: Option<&Tracer>) -> Round;

    /// Isolated per-layer replays and the workload's own per-layer
    /// numbers, all as measured. The untraced rounds' figures are already
    /// in `report` (as measured under `raw.*`).
    fn layers(&mut self, tracer: &Tracer, report: &mut Report);

    /// Shuts the stack down, checks its accounting, and returns the
    /// simulated device cycles one job cost (for `sim_cycles_per_s`) —
    /// known for certain only once the last session has reported.
    fn teardown(self, tracer: Option<&Tracer>, report: &mut Report) -> f64;
}

/// The repo's serving geometry (`BENCH_server.json`, `BENCH_nn.json`):
/// `banks` × 2 subarrays × 2 tiles, one PIM DBC of `wires` × 32 per
/// tile, TRD 7.
#[must_use]
pub fn geometry(banks: usize, wires: usize) -> MemoryConfig {
    MemoryConfig {
        banks,
        subarrays_per_bank: 2,
        tiles_per_subarray: 2,
        dbcs_per_tile: 4,
        pim_dbcs_per_tile: 1,
        nanowires_per_dbc: wires,
        rows_per_dbc: 32,
        trd: 7,
        bus_mhz: 1000,
        memory_cycle_ns: 1.25,
    }
}

/// Matching users in each 64-user chunk of the `w`-week query, counted
/// on the host from the raw bitmaps — the per-job reference for the
/// 64-wire bitmap workloads.
///
/// # Panics
///
/// Panics if the chunk counts do not add up to
/// [`BitmapDataset::reference_count`].
#[must_use]
pub fn chunk_popcounts(dataset: &BitmapDataset, w: usize) -> Vec<u32> {
    let operands = dataset.operands(w);
    let counts: Vec<u32> = (0..dataset.users().div_ceil(64))
        .map(|c| {
            operands
                .iter()
                .fold(u64::MAX, |acc, words| acc & words[c])
                .count_ones()
        })
        .collect();
    assert_eq!(
        counts.iter().map(|&c| u64::from(c)).sum::<u64>(),
        dataset.reference_count(w),
        "per-chunk reference disagrees with BitmapDataset::reference_count"
    );
    counts
}

/// Population count of every readout word of one job.
#[must_use]
pub fn popcount(outputs: &[(String, Vec<u64>)]) -> u32 {
    outputs
        .iter()
        .flat_map(|(_, words)| words)
        .map(|w| w.count_ones())
        .sum()
}
