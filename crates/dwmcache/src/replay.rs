//! Miss-to-PIM job conversion: replays a trace through a [`DwmCache`]
//! and turns configurable miss classes into real [`PimProgram`] jobs
//! submitted through the serving frontend.
//!
//! Each converted miss becomes a *fill job*: the fetched line's words
//! load into a PIM DBC, and — when [`JobConfig::pim_filter`] is on — a
//! bulk AND against a replay-wide mask runs in the memory before the
//! result row is read back (the "filter on fetch" bitmap idiom).
//! Line and mask payloads are deterministic functions of the line
//! address and the mask seed, so the full pipeline — cache model →
//! compiler ISA → runtime scheduler → server completion surface — is
//! bit-deterministic: identical [`PolicyReport`]s *and* identical job
//! outputs regardless of how many runtime shards execute the jobs.

use crate::cache::{CacheConfig, CacheError, DwmCache};
use crate::policy::PlacementPolicy;
use crate::stats::PolicyReport;
use crate::trace::{Access, Op, SplitMix64};
use coruscant_core::isa::{BlockSize, CpimInstr, CpimOpcode};
use coruscant_core::program::{PimProgram, Step};
use coruscant_core::PimError;
use coruscant_mem::{DbcLocation, MemoryConfig, RowAddress};
use coruscant_server::{Rejected, ServeError, Server, ServerError, ServerOptions};
use std::fmt;

/// First operand row of a fill job (mirrors the serving workloads'
/// scratch convention; binding to a unit preserves row offsets).
const OPERAND_BASE: usize = 4;
/// Result row of the filter op.
const RESULT_ROW: usize = 20;

/// Which miss classes become jobs, and what the jobs compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct JobConfig {
    /// Convert read misses into fill jobs.
    pub read_misses: bool,
    /// Convert write misses into fill jobs (write-allocate fetches the
    /// line too).
    pub write_misses: bool,
    /// AND each fetched line against the replay mask in-memory and read
    /// the filtered row back (otherwise the job just loads and reads the
    /// line).
    pub pim_filter: bool,
    /// Seed of the replay-wide filter mask.
    pub mask_seed: u64,
}

impl Default for JobConfig {
    fn default() -> Self {
        JobConfig {
            read_misses: true,
            write_misses: true,
            pim_filter: true,
            mask_seed: 0xFACE,
        }
    }
}

/// Everything a replay needs: the modelled memory, the cache geometry,
/// the job conversion rules, and how many runtime shards serve the jobs.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// The memory system the cache models and the jobs run on.
    pub memory: MemoryConfig,
    /// Cache geometry and timing.
    pub cache: CacheConfig,
    /// Miss-to-job conversion rules.
    pub jobs: JobConfig,
    /// Runtime scheduler shards serving the converted jobs.
    pub shards: usize,
}

impl ReplayConfig {
    /// A small config for tests: tiny memory, 4×4 cache, one shard.
    pub fn tiny() -> ReplayConfig {
        ReplayConfig {
            memory: MemoryConfig::tiny(),
            cache: CacheConfig::new(4, 4),
            jobs: JobConfig::default(),
            shards: 1,
        }
    }

    /// The same config served by `shards` runtime shards.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> ReplayConfig {
        self.shards = shards;
        self
    }
}

/// The deterministic product of one replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// The policy's report (stats, rates, job counts).
    pub report: PolicyReport,
    /// Converted-job outputs in submission order: the job label and the
    /// concatenated readout words. Bit-identical across shard counts.
    pub outputs: Vec<(String, Vec<u64>)>,
}

/// A replay failure.
#[derive(Debug)]
pub enum ReplayError {
    /// The cache config did not fit the memory geometry.
    Cache(CacheError),
    /// Starting or draining the server failed.
    Server(ServerError),
    /// The server rejected a converted job.
    Rejected(Rejected),
    /// A converted job failed to serve.
    Serve(ServeError),
    /// Building a fill program hit an ISA limit.
    Program(PimError),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Cache(e) => write!(f, "{e}"),
            ReplayError::Server(e) => write!(f, "server: {e}"),
            ReplayError::Rejected(e) => write!(f, "job rejected: {e}"),
            ReplayError::Serve(e) => write!(f, "job failed: {e}"),
            ReplayError::Program(e) => write!(f, "fill program: {e}"),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<CacheError> for ReplayError {
    fn from(e: CacheError) -> Self {
        ReplayError::Cache(e)
    }
}

impl From<ServerError> for ReplayError {
    fn from(e: ServerError) -> Self {
        ReplayError::Server(e)
    }
}

impl From<PimError> for ReplayError {
    fn from(e: PimError) -> Self {
        ReplayError::Program(e)
    }
}

/// The synthetic content of cache line `line`: what a fill fetches from
/// backing memory. Deterministic in the line address alone.
pub fn line_words(line: u64, words: usize) -> Vec<u64> {
    let mut rng = SplitMix64(line ^ 0x0DD0_11E5_0DD0_11E5);
    (0..words).map(|_| rng.next()).collect()
}

/// The replay-wide filter mask derived from `seed`.
pub fn mask_words(seed: u64, words: usize) -> Vec<u64> {
    let mut rng = SplitMix64(seed ^ 0x3A5C_F117);
    (0..words).map(|_| rng.next()).collect()
}

/// Builds the fill job for `line`: load the fetched words, optionally
/// AND them against the mask in-memory, read the result back.
fn fill_program(
    line: u64,
    words: usize,
    jobs: &JobConfig,
    width: usize,
) -> Result<PimProgram, PimError> {
    let loc = DbcLocation::new(0, 0, 0, 0); // nominal; the executor binds it to a unit
    let mut steps = Vec::with_capacity(4);
    steps.push(Step::Load {
        addr: RowAddress::new(loc, OPERAND_BASE),
        values: line_words(line, words),
        lane: 64,
    });
    if jobs.pim_filter {
        steps.push(Step::Load {
            addr: RowAddress::new(loc, OPERAND_BASE + 1),
            values: mask_words(jobs.mask_seed, words),
            lane: 64,
        });
        steps.push(Step::Exec(CpimInstr::new(
            CpimOpcode::And,
            RowAddress::new(loc, OPERAND_BASE),
            2,
            BlockSize::new(64.min(width))?,
            Some(RowAddress::new(loc, RESULT_ROW)),
        )?));
        steps.push(Step::Readout {
            label: "filter".into(),
            addr: RowAddress::new(loc, RESULT_ROW),
            lane: 64,
        });
    } else {
        steps.push(Step::Readout {
            label: "line".into(),
            addr: RowAddress::new(loc, OPERAND_BASE),
            lane: 64,
        });
    }
    Ok(PimProgram { steps })
}

/// Replays `trace` through a fresh cache under `policy`, converting the
/// configured miss classes into jobs served end to end by a
/// [`Server`]-wrapped runtime with `config.shards` shards.
///
/// Admission control stays disabled, so submission backpressure is the
/// runtime's bounded queue and the whole pipeline is deterministic: the
/// returned [`ReplayOutcome`] is bit-identical for any shard count.
///
/// # Errors
///
/// [`ReplayError`] on a bad cache config, a server lifecycle failure, or
/// a converted job that the pipeline rejects or fails.
pub fn replay(
    trace: &[Access],
    policy: Box<dyn PlacementPolicy>,
    config: &ReplayConfig,
) -> Result<ReplayOutcome, ReplayError> {
    let mut cache = DwmCache::new(config.cache, &config.memory, policy)?;
    let words = cache.line_words();
    let width = config.memory.nanowires_per_dbc;

    let options = ServerOptions {
        runtime: coruscant_runtime::RuntimeOptions::default().with_shards(config.shards),
        ..ServerOptions::default()
    };
    let server = Server::start(config.memory.clone(), options)?;
    let client = server.client();

    let mut handles = Vec::new();
    for &access in trace {
        let outcome = cache.access(access);
        if outcome.hit {
            continue;
        }
        let convert = match outcome.op {
            Op::Read => config.jobs.read_misses,
            Op::Write => config.jobs.write_misses,
        };
        if !convert {
            continue;
        }
        let kind = match outcome.op {
            Op::Read => "rm",
            Op::Write => "wm",
        };
        let label = format!("{}:{kind}:0x{:x}", handles.len(), outcome.line);
        let program = fill_program(outcome.line, words, &config.jobs, width)?;
        let handle = client.submit(program).map_err(ReplayError::Rejected)?;
        handles.push((label, handle));
    }

    let mut outputs = Vec::with_capacity(handles.len());
    let mut filter_ones = 0u64;
    for (label, handle) in handles {
        let done = handle.wait().map_err(ReplayError::Serve)?;
        let mut job_words = Vec::new();
        for (out_label, values) in &done.outputs {
            if out_label == "filter" {
                filter_ones += values.iter().map(|w| w.count_ones() as u64).sum::<u64>();
            }
            job_words.extend_from_slice(values);
        }
        outputs.push((label, job_words));
    }
    server.shutdown()?;

    let stats = cache.stats().clone();
    let report = PolicyReport {
        policy: cache.policy_name().to_string(),
        hit_rate: stats.hit_rate(),
        total_shift_cycles: stats.total_shift_cycles(),
        demand_shift_cycles: stats.demand_shift_cycles,
        avg_shift_per_access: stats.avg_shift_per_access(),
        miss_jobs: outputs.len() as u64,
        filter_ones,
        stats,
    };
    Ok(ReplayOutcome { report, outputs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{HotnessWeighted, NaiveStatic};
    use crate::trace::{Mix, SynthSpec};

    fn hot_trace(accesses: usize, seed: u64) -> Vec<Access> {
        SynthSpec {
            mix: Mix::HotCold {
                hot_lines: 8,
                hot_pct: 85,
            },
            accesses,
            lines: 128,
            line_bytes: 8,
            write_pct: 25,
            seed,
        }
        .generate()
    }

    #[test]
    fn replay_converts_misses_to_jobs() {
        let trace = hot_trace(300, 9);
        let out = replay(&trace, Box::new(NaiveStatic), &ReplayConfig::tiny()).unwrap();
        let s = &out.report.stats;
        assert!(s.balanced());
        assert_eq!(s.accesses, 300);
        assert_eq!(out.report.miss_jobs, s.misses, "all miss classes convert");
        assert_eq!(out.outputs.len(), s.misses as usize);
        assert!(out.report.filter_ones > 0);
    }

    #[test]
    fn filter_outputs_are_the_host_and() {
        let trace = hot_trace(200, 21);
        let cfg = ReplayConfig::tiny();
        let out = replay(&trace, Box::new(NaiveStatic), &cfg).unwrap();
        let words = 1; // tiny memory: 64-wire DBC, one 64-bit word per line
        let mask = mask_words(cfg.jobs.mask_seed, words);
        let mut expected_ones = 0u64;
        for (label, values) in &out.outputs {
            let line = u64::from_str_radix(
                label.rsplit(":0x").next().expect("label carries the line"),
                16,
            )
            .unwrap();
            let expect: Vec<u64> = line_words(line, words)
                .iter()
                .zip(&mask)
                .map(|(l, m)| l & m)
                .collect();
            assert_eq!(values, &expect, "{label}");
            expected_ones += expect.iter().map(|w| w.count_ones() as u64).sum::<u64>();
        }
        assert_eq!(out.report.filter_ones, expected_ones);
    }

    #[test]
    fn miss_class_selection_is_respected() {
        let trace = hot_trace(250, 33);
        let mut cfg = ReplayConfig::tiny();
        cfg.jobs.write_misses = false;
        let out = replay(&trace, Box::new(NaiveStatic), &cfg).unwrap();
        assert_eq!(out.report.miss_jobs, out.report.stats.read_misses);
        assert!(out.outputs.iter().all(|(l, _)| l.contains(":rm:")));
    }

    #[test]
    fn plain_fill_jobs_read_the_line_back() {
        let trace = hot_trace(150, 2);
        let mut cfg = ReplayConfig::tiny();
        cfg.jobs.pim_filter = false;
        let out = replay(&trace, Box::new(NaiveStatic), &cfg).unwrap();
        assert_eq!(out.report.filter_ones, 0);
        for (label, values) in &out.outputs {
            let line = u64::from_str_radix(label.rsplit(":0x").next().unwrap(), 16).unwrap();
            assert_eq!(values, &line_words(line, 1), "{label}");
        }
    }

    #[test]
    fn replay_is_bit_deterministic_across_shards() {
        let trace = hot_trace(400, 77);
        let base = replay(
            &trace,
            Box::new(HotnessWeighted::default()),
            &ReplayConfig::tiny().with_shards(1),
        )
        .unwrap();
        for shards in [2, 4] {
            let other = replay(
                &trace,
                Box::new(HotnessWeighted::default()),
                &ReplayConfig::tiny().with_shards(shards),
            )
            .unwrap();
            assert_eq!(other, base, "shards {shards}");
        }
    }
}
