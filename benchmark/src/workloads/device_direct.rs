//! `device_direct`: the simulator user's view. Paper-width DBCs (512
//! wires × 32 rows, TRD 7), the workload front ends' whole program
//! corpus, executed back to back on one warm [`PimMachine`] by one
//! thread. `core`, `mem` and `racetrack` do all of the work; server,
//! runtime and compiler do none — the workload a faster device model
//! must show on most, and a frontend change must not move.

use super::{geometry, Modeled, Params, Round, Workload};
use crate::host;
use crate::layers;
use crate::report::Report;
use crate::trace::{in_span, Local, Tracer};
use coruscant::core::dispatch::PimMachine;
use coruscant::core::program::{execute, execute_on, PimProgram, ProgramOutcome};
use coruscant::mem::MemoryConfig;
use coruscant::qos::SplitMix64;
use coruscant::runtime::RuntimeOptions;
use coruscant::workloads::bitmap::BitmapDataset;
use coruscant::workloads::compile::compile_matmul;
use coruscant::workloads::serve::{compile_bitmap_query_with, QueryPlan};
use std::time::Instant;

/// Passes over the corpus in one round (≈ 1 s on the reference host).
const PASSES_PER_ROUND: usize = 120;

/// The live workload.
pub struct DeviceDirect {
    config: MemoryConfig,
    programs: Vec<PimProgram>,
    reference: Vec<ProgramOutcome>,
    machine: PimMachine,
    modeled: Modeled,
    passes: usize,
    seed: u64,
    /// `execute_on` calls so far: the next span's request id.
    executed: u64,
}

/// A seeded mirror of `workloads::serve::all_workload_programs`: bitmap
/// queries of 1–4 weeks under both emission plans over 300 users, plus
/// one 3×3 matmul.
fn corpus(config: &MemoryConfig, seed: u64) -> Vec<PimProgram> {
    let dataset = BitmapDataset::generate(300, 4, seed);
    let mut programs = Vec::new();
    for w in 1..=4 {
        for plan in [QueryPlan::Fused, QueryPlan::PairwiseChain] {
            programs.extend(
                compile_bitmap_query_with(&dataset, w, config, plan).expect("query compiles"),
            );
        }
    }
    let mut rng = SplitMix64::new(seed);
    let mut matrix = || -> Vec<Vec<u64>> {
        (0..3)
            .map(|_| (0..3).map(|_| rng.next_u64() % 100).collect())
            .collect()
    };
    let (a, b) = (matrix(), matrix());
    programs.push(compile_matmul(&a, &b, config).expect("matmul compiles"));
    programs
}

impl DeviceDirect {
    /// One pass over the corpus, its spans under `parent`; returns
    /// (device cycles, last completion, wrong outputs) and pushes each
    /// call's time.
    fn pass(
        &mut self,
        local: &mut Option<Local<'_>>,
        parent: Option<u64>,
        times_us: &mut Vec<f64>,
    ) -> (u64, u64, u64) {
        let (mut cycles, mut completion, mut wrong) = (0, 0, 0);
        for (program, want) in self.programs.iter().zip(&self.reference) {
            let t = Instant::now();
            let got = in_span(
                local,
                "core.execute_on",
                "core",
                parent,
                Some(self.executed),
                || execute_on(program, &mut self.machine).expect("corpus program executes"),
            );
            self.executed += 1;
            times_us.push(t.elapsed().as_secs_f64() * 1e6);
            cycles += got.device_cycles;
            completion = got.completion;
            wrong += u64::from(got.outputs != want.outputs);
        }
        (cycles, completion, wrong)
    }
}

impl Workload for DeviceDirect {
    const NAME: &'static str = "device_direct";
    const ROUND_SECONDS: f64 = 1.0;
    const LATENCY_IS_COMPUTE: bool = true;

    fn setup(params: &Params) -> DeviceDirect {
        let config = geometry(8, 512);
        let programs = corpus(&config, params.seed);
        let reference = programs
            .iter()
            .map(|p| execute(p, &config).expect("corpus program executes on a fresh machine"))
            .collect();
        let mut w = DeviceDirect {
            machine: PimMachine::new(config.clone()),
            config,
            programs,
            reference,
            modeled: Modeled {
                device_cycles: 0,
                makespan_cycles: 0,
                energy_pj: 0.0,
            },
            passes: params.scaled(PASSES_PER_ROUND, 2),
            seed: params.seed,
            executed: 0,
        };
        // Pass 0 on the fresh machine is the modeled pass.
        let (device_cycles, makespan_cycles, wrong) = w.pass(&mut None, None, &mut Vec::new());
        assert_eq!(wrong, 0, "modeled pass returned a wrong output");
        w.modeled = Modeled {
            device_cycles,
            makespan_cycles,
            energy_pj: w.machine.controller().stats().energy_pj,
        };
        for _ in 0..w.passes.div_ceil(5) {
            w.pass(&mut None, None, &mut Vec::new());
        }
        w
    }

    fn modeled(&self) -> Modeled {
        self.modeled
    }

    fn round(&mut self, _index: usize, tracer: Option<&Tracer>) -> Round {
        let mut local = tracer.map(Tracer::local);
        let jobs = (self.passes * self.programs.len()) as u64;
        let mut times_us = Vec::with_capacity(jobs as usize);
        let mut failed = 0;
        let round = local
            .as_mut()
            .map(|l| l.open("round", "harness", None, None));
        let parent = round.as_ref().map(|o| o.id);
        let cpu0 = host::process_cpu();
        let t0 = Instant::now();
        for _ in 0..self.passes {
            let (cycles, _, wrong) = self.pass(&mut local, parent, &mut times_us);
            failed += wrong;
            // A warm pass must cost what the modeled pass cost.
            failed += u64::from(cycles != self.modeled.device_cycles);
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = (host::process_cpu() - cpu0).as_secs_f64();
        if let (Some(l), Some(o)) = (local.as_mut(), round) {
            l.close(o);
        }
        Round {
            jobs,
            wall_s,
            cpu_s,
            cpu_jobs: jobs,
            latencies_us: times_us,
            attempted: jobs,
            failed,
        }
    }

    fn layers(&mut self, tracer: &Tracer, report: &mut Report) {
        layers::racetrack(report);
        layers::mem(&self.config, self.seed, report);
        let jobs = self.programs.len() as u64;
        let core_us = layers::core(&self.config, &[], &self.programs, jobs, report);
        let (optimize_us, _) = layers::compiler(&self.config, &self.programs, report);
        // The workload never enters the runtime; this is what it would
        // cost if it did, for the cross-workload table.
        let programs: Vec<PimProgram> = (0..20).flat_map(|_| self.programs.clone()).collect();
        let s = layers::runtime_session(
            &self.config,
            RuntimeOptions::default(),
            programs,
            self.executed,
            &mut Some(tracer.local()),
        );
        let (runtime_cpu_us, _) = layers::runtime_metrics(&s, report);
        report.set(
            "runtime.overhead_us_per_job",
            runtime_cpu_us - core_us - layers::compile_share_us(&s, optimize_us),
        );
        // Direct execution has no compile step and no scheduler.
        report.set(
            "stack.unattributed_us_per_job",
            report.get_or_zero("raw.cpu_us_per_job") - core_us,
        );
    }

    fn teardown(self, _tracer: Option<&Tracer>, _report: &mut Report) -> f64 {
        self.modeled.device_cycles as f64 / self.programs.len() as f64
    }
}
