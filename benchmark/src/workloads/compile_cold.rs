//! `compile_cold`: the compiled-program cache used the other way round
//! from `serve_short`. Every job is a *distinct* 4-instruction pairwise
//! AND chain, so every `Runtime::submit` misses the cache, runs the full
//! pass pipeline (fusion 4 → 1), inserts and — past the cache's capacity
//! — evicts. One submitter, blocking backpressure, a fresh `Runtime` per
//! round, no server: a frontend change must not move it.

use super::{chunk_popcounts, geometry, popcount, Modeled, Params, Round, Workload};
use crate::layers::{self, Session};
use crate::report::Report;
use crate::trace::Tracer;
use coruscant::core::program::PimProgram;
use coruscant::mem::MemoryConfig;
use coruscant::runtime::RuntimeOptions;
use coruscant::workloads::bitmap::BitmapDataset;
use coruscant::workloads::serve::{compile_bitmap_query_with, QueryPlan};

/// Distinct programs in one round (≈ 1 s on the reference host).
const JOBS_PER_ROUND: usize = 16_000;
/// Weeks in the query: 5 operands, a 4-instruction chain.
const WEEKS: usize = 4;
/// Programs the isolated `core`/`compiler` replays run over.
const REPLAY_SAMPLE: usize = 500;

/// The live workload.
pub struct CompileCold {
    config: MemoryConfig,
    seed: u64,
    jobs: usize,
    modeled: Modeled,
    /// Simulated cost of the first timed round; later rounds must match.
    first_round: Option<Modeled>,
    /// The most recent session and a sample of its programs, for the
    /// per-layer numbers.
    last: Option<(Session, Vec<PimProgram>)>,
}

fn modeled_of(s: &Session) -> Modeled {
    let stats = &s.report.stats;
    Modeled {
        device_cycles: stats.device_cycles,
        makespan_cycles: stats.makespan_cycles,
        energy_pj: stats.controller.energy_pj,
    }
}

impl CompileCold {
    /// `jobs` distinct programs from their own dataset, with the
    /// matching-user count each must return.
    fn inputs(&self, stream: u64, jobs: usize) -> (Vec<PimProgram>, Vec<u32>) {
        let seed = self.seed.wrapping_mul(0x9E37_79B9).wrapping_add(stream);
        let dataset = BitmapDataset::generate(64 * jobs, WEEKS, seed);
        let programs =
            compile_bitmap_query_with(&dataset, WEEKS, &self.config, QueryPlan::PairwiseChain)
                .expect("query compiles");
        (programs, chunk_popcounts(&dataset, WEEKS))
    }

    /// One session over fresh programs, every output checked; keeps the
    /// session's scalars and a sample of its programs for `layers`.
    /// Returns the session with its wrong-output count.
    fn session(&mut self, stream: u64, jobs: usize, tracer: Option<&Tracer>) -> (Session, u64) {
        let (programs, expected) = self.inputs(stream, jobs);
        let sample = programs[..REPLAY_SAMPLE.min(jobs)].to_vec();
        let s = layers::runtime_session(
            &self.config,
            RuntimeOptions::default(),
            programs,
            // Streams are a round's worth of jobs apart.
            stream * self.jobs as u64,
            &mut tracer.map(Tracer::local),
        );
        // Outcomes are ordered by job id, which is submission order.
        let mut wrong = s.report.outcomes.len().abs_diff(expected.len()) as u64;
        for (outcome, want) in s.report.outcomes.iter().zip(&expected) {
            wrong += u64::from(popcount(&outcome.outputs) != *want);
        }
        wrong += u64::from(s.report.stats.cache.misses != jobs as u64);
        self.last = Some((s.without_payload(), sample));
        (s, wrong)
    }
}

impl Workload for CompileCold {
    const NAME: &'static str = "compile_cold";
    const ROUND_SECONDS: f64 = 1.0;
    // From `submit` to `finish()` returning: the session's own work.
    const LATENCY_IS_COMPUTE: bool = true;

    fn setup(params: &Params) -> CompileCold {
        let mut w = CompileCold {
            config: geometry(8, 64),
            seed: params.seed,
            jobs: params.scaled(JOBS_PER_ROUND, 64),
            modeled: Modeled {
                device_cycles: 0,
                makespan_cycles: 0,
                energy_pj: 0.0,
            },
            first_round: None,
            last: None,
        };
        // A fifth of a round is both the warm-up and the modeled pass.
        let (s, wrong) = w.session(0, w.jobs.div_ceil(5), None);
        assert_eq!(wrong, 0, "modeled pass returned a wrong output");
        w.modeled = modeled_of(&s);
        w
    }

    fn modeled(&self) -> Modeled {
        self.modeled
    }

    fn round(&mut self, index: usize, tracer: Option<&Tracer>) -> Round {
        let jobs = self.jobs;
        let (s, mut failed) = self.session(1 + index as u64, jobs, tracer);
        // Every round does the same simulated work.
        let modeled = modeled_of(&s);
        failed += u64::from(!self.first_round.get_or_insert(modeled).agrees(&modeled));
        Round {
            jobs: s.jobs,
            wall_s: s.wall_s,
            cpu_s: s.cpu_s,
            cpu_jobs: s.jobs,
            latencies_us: s.held_s.iter().map(|h| h * 1e6).collect(),
            attempted: s.jobs,
            failed,
        }
    }

    fn layers(&mut self, _tracer: &Tracer, report: &mut Report) {
        // The last traced round is the runtime session to take apart.
        let (s, sample) = self.last.take().expect("a round ran before the replays");
        layers::racetrack(report);
        layers::mem(&self.config, self.seed, report);
        // The runtime executes what the compiler made of each program.
        let (optimize_us, optimized) = layers::compiler(&self.config, &sample, report);
        let jobs = sample.len() as u64;
        let core_us = layers::core(&self.config, &[], &optimized, jobs, report);
        let (session_cpu_us, sched_us) = layers::runtime_metrics(&s, report);
        let compile_us = layers::compile_share_us(&s, optimize_us);
        report.set(
            "runtime.overhead_us_per_job",
            session_cpu_us - core_us - compile_us,
        );
        report.set(
            "stack.unattributed_us_per_job",
            report.get_or_zero("raw.cpu_us_per_job") - core_us - compile_us - sched_us,
        );
    }

    fn teardown(self, _tracer: Option<&Tracer>, _report: &mut Report) -> f64 {
        let round = self.first_round.expect("a round ran before teardown");
        round.device_cycles as f64 / self.jobs as f64
    }
}
