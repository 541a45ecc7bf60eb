//! `cnn_frames`: long dependency-chained jobs with resident pins through
//! the whole stack. A LeNet-5 proxy at full precision is pinned once on
//! a 4-bank server; each round submits one batch of frames (one job
//! chain per frame, each layer deferred on its predecessor) and waits
//! for every frame's logits. Device-dominated like `device_direct`, but
//! through server, runtime, pipeline lowering and the classic engine's
//! chain and pin support — the features a one-engine refactor must keep.

use super::{geometry, Modeled, Params, Round, Workload};
use crate::host;
use crate::layers;
use crate::report::Report;
use crate::stats;
use crate::trace::{in_span, total_ns, Tracer};
use coruscant::core::dispatch::PimMachine;
use coruscant::core::program::{execute_on, PimProgram};
use coruscant::mem::MemoryConfig;
use coruscant::nn::infer::{proxy_lenet5, run_pim, synth_image, synth_weights, ModelWeights};
use coruscant::nn::models::Network;
use coruscant::nn::quant::Precision;
use coruscant::nn::tensor::Tensor3;
use coruscant::pipeline::serve::ServingSession;
use coruscant::pipeline::Pipeline;
use coruscant::runtime::{ProgramSource, ResidentPin, Runtime, RuntimeOptions};
use coruscant::server::{Priority, Server, ServerOptions, ServerStats};
use std::time::Instant;

/// Frames in one round's batch, each its own image (≈ 2 s on the
/// reference host).
const FRAMES_PER_ROUND: usize = 48;
/// Frames in the modeled pass and in the warm-up.
const SHORT_BATCH: usize = 4;
/// Seed of the synthetic weights: the model is fixed, the images vary.
const WEIGHT_SEED: u64 = 3;

/// The live workload.
pub struct CnnFrames {
    config: MemoryConfig,
    net: Network,
    weights: ModelWeights,
    images: Vec<Tensor3>,
    expected: Vec<Vec<u64>>,
    session: ServingSession,
    server: Server,
    modeled: Modeled,
    frames: usize,
    served: u64,
    pin_ms: f64,
}

fn pipeline(config: &MemoryConfig, net: &Network, weights: &ModelWeights) -> Pipeline {
    Pipeline::new(config, net.clone(), weights.clone(), 0)
        .expect("pipeline fits the 16-tile geometry")
}

fn modeled_of(stats: &ServerStats) -> Modeled {
    Modeled {
        device_cycles: stats.runtime.device_cycles,
        makespan_cycles: stats.runtime.makespan_cycles,
        energy_pj: stats.runtime.controller.energy_pj,
    }
}

impl CnnFrames {
    /// `n` frames cycling the distinct images: (image index, image).
    fn batch(&self, n: usize) -> (Vec<usize>, Vec<Tensor3>) {
        let idx: Vec<usize> = (0..n).map(|f| f % self.images.len()).collect();
        let frames = idx.iter().map(|&i| self.images[i].clone()).collect();
        (idx, frames)
    }

    /// Submits one batch and waits for every frame; returns the latency
    /// of each frame from the batch's submission and the wrong-logit
    /// count. Frame `f`'s span carries request id `first_req + f`.
    fn serve(
        &self,
        session: &ServingSession,
        n: usize,
        first_req: u64,
        tracer: Option<&Tracer>,
    ) -> (Vec<f64>, u64) {
        let (idx, frames) = self.batch(n);
        let mut local = tracer.map(Tracer::local);
        let round = local
            .as_mut()
            .map(|l| l.open("round", "harness", None, None));
        let parent = round.as_ref().map(|o| o.id);
        let t0 = Instant::now();
        let handles = in_span(
            &mut local,
            "pipeline.submit_batch",
            "pipeline",
            parent,
            None,
            || {
                session
                    .submit_batch(&frames, Priority::Normal)
                    .expect("backpressure never refuses a frame")
            },
        );
        let mut latencies_us = Vec::with_capacity(n);
        let mut wrong = 0;
        for (f, (handle, i)) in handles.into_iter().zip(idx).enumerate() {
            let logits = in_span(
                &mut local,
                "pipeline.wait",
                "pipeline",
                parent,
                Some(first_req + f as u64),
                || handle.wait(),
            );
            latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
            wrong += u64::from(logits.ok().as_ref() != Some(&self.expected[i]));
        }
        if let (Some(l), Some(o)) = (local.as_mut(), round) {
            l.close(o);
        }
        (latencies_us, wrong)
    }

    /// The programs the chains of `frames` frames execute, relocated to
    /// their tiles so a bare machine can run them: (pin programs, layer
    /// programs in execution order).
    fn lowered_programs(&self, frames: usize) -> (Vec<PimProgram>, Vec<PimProgram>) {
        let pipeline = pipeline(&self.config, &self.net, &self.weights);
        let mut machine = PimMachine::new(self.config.clone());
        let unit = |li| machine.controller().pim_unit(pipeline.unit_for(li));
        let units: Vec<_> = (0..self.net.layers.len()).map(unit).collect();
        let pins: Vec<PimProgram> = pipeline
            .pin_programs()
            .iter()
            .zip(&units)
            .map(|(p, &u)| layers::relocate_to_tile(p, u))
            .collect();
        for p in &pins {
            execute_on(p, &mut machine).expect("pin program executes");
        }
        // Only the pin count is checked when lowering outside a runtime.
        let receipts: Vec<ResidentPin> = (0..pins.len() as u64)
            .map(|k| ResidentPin { res: k, job: k })
            .collect();
        let mut programs = Vec::new();
        for image in self.images.iter().cycle().take(frames) {
            let chain = pipeline.lower(image, &receipts).expect("frame lowers");
            let mut previous = Vec::new();
            for (member, &u) in chain.into_iter().zip(&units) {
                let program = match member.source {
                    ProgramSource::Ready(p) => p,
                    ProgramSource::Deferred { build, .. } => {
                        build(&[previous]).expect("binder builds the layer")
                    }
                };
                let program = layers::relocate_to_tile(&program, u);
                previous = execute_on(&program, &mut machine)
                    .expect("layer program executes")
                    .outputs;
                programs.push(program);
            }
        }
        (pins, programs)
    }

    /// The same chains into a bare runtime: pins, one chain per frame,
    /// `finish`. Returns (session figures, wrong-logit count).
    fn runtime_only(
        &self,
        frames: usize,
        first_req: u64,
        tracer: &Tracer,
    ) -> (layers::Session, u64) {
        let pipeline = pipeline(&self.config, &self.net, &self.weights);
        let (idx, images) = self.batch(frames);
        let mut local = Some(tracer.local());
        let session = local
            .as_mut()
            .map(|l| l.open("session", "harness", None, None));
        let parent = session.as_ref().map(|o| o.id);
        let cpu0 = host::process_cpu();
        let t0 = Instant::now();
        let runtime =
            Runtime::new(self.config.clone(), RuntimeOptions::default()).expect("runtime starts");
        let pins: Vec<ResidentPin> = pipeline
            .pin_programs()
            .into_iter()
            .enumerate()
            .map(|(li, p)| {
                runtime
                    .pin_resident(p, pipeline.unit_for(li))
                    .expect("pin is accepted")
            })
            .collect();
        let mut submit_s = 0.0;
        let mut tails = Vec::with_capacity(frames);
        for (f, image) in images.iter().enumerate() {
            let t = Instant::now();
            let ids = in_span(
                &mut local,
                "runtime.submit_chain",
                "runtime",
                parent,
                Some(first_req + f as u64),
                || {
                    let chain = pipeline.lower(image, &pins).expect("frame lowers");
                    runtime.submit_chain(chain).expect("chain is accepted")
                },
            );
            submit_s += t.elapsed().as_secs_f64();
            tails.push(*ids.last().expect("chains are non-empty"));
        }
        let t = Instant::now();
        let report = in_span(
            &mut local,
            "runtime.finish",
            "runtime",
            parent,
            None,
            || runtime.finish().expect("session drains"),
        );
        let end = Instant::now();
        if let (Some(l), Some(o)) = (local.as_mut(), session) {
            l.close(o);
        }
        let mut wrong = 0;
        for (tail, i) in tails.iter().zip(idx) {
            let logits = report
                .outcomes
                .iter()
                .find(|o| o.job_id == *tail)
                .and_then(|o| pipeline.decode_logits(&o.outputs).ok());
            wrong += u64::from(logits.as_ref() != Some(&self.expected[i]));
        }
        let session = layers::Session {
            report,
            jobs: frames as u64,
            wall_s: (end - t0).as_secs_f64(),
            cpu_s: (host::process_cpu() - cpu0).as_secs_f64(),
            submit_s,
            finish_s: (end - t).as_secs_f64(),
            held_s: Vec::new(),
        };
        (session, wrong)
    }
}

impl Workload for CnnFrames {
    const NAME: &'static str = "cnn_frames";
    const ROUND_SECONDS: f64 = 2.0;
    // From `submit_batch` to a frame's logits: the chains' own work.
    const LATENCY_IS_COMPUTE: bool = true;

    fn setup(params: &Params) -> CnnFrames {
        let config = geometry(4, 64);
        let net = proxy_lenet5();
        let weights = synth_weights(&net, Precision::Full, WEIGHT_SEED);
        let frames = params.scaled(FRAMES_PER_ROUND, 2);
        let images: Vec<Tensor3> = (0..frames as u64)
            .map(|i| synth_image(&net, params.seed.wrapping_mul(1_000).wrapping_add(i)))
            .collect();
        let expected = images
            .iter()
            .map(|img| run_pim(&config, &net, &weights, img).expect("standalone engine runs"))
            .collect();
        let start = || {
            let server =
                Server::start(config.clone(), ServerOptions::default()).expect("server starts");
            let t = Instant::now();
            let session = ServingSession::pin(server.client(), pipeline(&config, &net, &weights))
                .expect("residencies pin");
            (server, session, t.elapsed().as_secs_f64() * 1e3)
        };
        let (server, session, pin_ms) = start();
        let mut w = CnnFrames {
            config: config.clone(),
            net: net.clone(),
            weights: weights.clone(),
            images,
            expected,
            session,
            server,
            modeled: Modeled {
                device_cycles: 0,
                makespan_cycles: 0,
                energy_pj: 0.0,
            },
            frames,
            served: 0,
            pin_ms,
        };
        // The modeled pass: its own short server, pins plus one short
        // batch, shut down for its stats.
        let (short_server, short_session, _) = start();
        let (_, wrong) = w.serve(&short_session, SHORT_BATCH, 0, None);
        assert_eq!(wrong, 0, "modeled pass returned wrong logits");
        drop(short_session);
        let stats = short_server.shutdown().expect("server drains");
        assert!(stats.balanced() && stats.lost == 0, "{stats:?}");
        w.modeled = modeled_of(&stats);
        // The same short batch warms the long-lived server.
        let (_, wrong) = w.serve(&w.session, SHORT_BATCH, 0, None);
        assert_eq!(wrong, 0, "warm-up returned wrong logits");
        w.served = SHORT_BATCH as u64;
        w
    }

    fn modeled(&self) -> Modeled {
        self.modeled
    }

    fn round(&mut self, _index: usize, tracer: Option<&Tracer>) -> Round {
        let frames = self.frames;
        let cpu0 = host::process_cpu();
        let t0 = Instant::now();
        let (latencies_us, failed) = self.serve(&self.session, frames, self.served, tracer);
        self.served += frames as u64;
        Round {
            jobs: frames as u64,
            wall_s: t0.elapsed().as_secs_f64(),
            cpu_s: (host::process_cpu() - cpu0).as_secs_f64(),
            cpu_jobs: frames as u64,
            latencies_us,
            attempted: frames as u64,
            failed,
        }
    }

    fn layers(&mut self, tracer: &Tracer, report: &mut Report) {
        layers::racetrack(report);
        layers::mem(&self.config, 0, report);

        // The standalone engine: same arithmetic, no stack.
        let standalone: Vec<f64> = self
            .images
            .iter()
            .map(|img| {
                let t = Instant::now();
                run_pim(&self.config, &self.net, &self.weights, img).expect("standalone engine");
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        let run_pim_ms = stats::median(&standalone);
        report.set("nn.run_pim_ms_per_frame", run_pim_ms);
        report.set(
            "pipeline.serving_efficiency",
            report.get_or_zero("raw.jobs_per_s") * run_pim_ms / 1e3,
        );

        // The chains' own programs on a bare machine, then through the
        // compiler (chain members bypass it inside the runtime, so this
        // is what compiling them *would* cost and save).
        let replay_frames = 2;
        let (pins, programs) = self.lowered_programs(replay_frames);
        let core_us = layers::core(&self.config, &pins, &programs, replay_frames as u64, report);
        layers::compiler(&self.config, &programs, report);

        let mut wrong = 0;
        let mut first_req = self.served;
        let s = layers::median_session(|| {
            let (s, w) = self.runtime_only(self.frames, first_req, tracer);
            first_req += self.frames as u64;
            wrong += w;
            s
        });
        if wrong != 0 {
            report.problem(format!(
                "runtime-only session: {wrong} frames with wrong logits"
            ));
        }
        let (runtime_cpu_us, sched_us) = layers::runtime_metrics(&s, report);
        report.set("runtime.overhead_us_per_job", runtime_cpu_us - core_us);
        report.set(
            "server.overhead_us_per_job",
            report.get_or_zero("raw.cpu_us_per_job") - runtime_cpu_us,
        );
        report.set(
            "server.frontend_efficiency",
            report.get_or_zero("raw.jobs_per_s") / (s.jobs as f64 / s.wall_s),
        );
        report.set(
            "stack.unattributed_us_per_job",
            report.get_or_zero("raw.cpu_us_per_job") - core_us - sched_us,
        );

        let spans = tracer.spans();
        let rounds = spans.iter().filter(|s| s.name == "round").count().max(1) as f64;
        let frames = spans.iter().filter(|s| s.name == "pipeline.wait").count();
        let span_ms = |name| total_ns(&spans, name) as f64 / 1e6;
        report.set("pipeline.pin_ms", self.pin_ms);
        report.set(
            "pipeline.submit_batch_ms",
            span_ms("pipeline.submit_batch") / rounds,
        );
        report.set("pipeline.wait_ms", span_ms("pipeline.wait") / rounds);
        report.set_exact("pipeline.jobs_per_frame", self.net.layers.len() as u64);
        report.set(
            "server.submit_us_per_job",
            span_ms("pipeline.submit_batch") * 1e3 / frames.max(1) as f64,
        );
    }

    fn teardown(self, tracer: Option<&Tracer>, report: &mut Report) -> f64 {
        drop(self.session);
        let t = Instant::now();
        let stats = in_span(
            &mut tracer.map(Tracer::local),
            "server.shutdown",
            "server",
            None,
            None,
            || self.server.shutdown().expect("server drains"),
        );
        report.set("server.shutdown_ms", t.elapsed().as_secs_f64() * 1e3);
        report.set_exact("server.accepted", stats.accepted);
        report.set_exact("server.shed", stats.rejected());
        report.set_exact("server.completed", stats.completed);
        if !stats.balanced() || stats.lost != 0 {
            report.problem(format!("ServerStats does not balance: {stats:?}"));
        }
        // The long-lived session did what the modeled pass did (pins and
        // one short batch) plus the timed frames; device cycles are
        // additive, so the difference is the timed frames' — and it must
        // divide evenly, or two rounds cost different simulated work.
        let timed = self.served - SHORT_BATCH as u64;
        let cycles = stats.runtime.device_cycles - self.modeled.device_cycles;
        if timed != 0 && !cycles.is_multiple_of(timed) {
            report.problem(format!(
                "{cycles} device cycles do not divide over {timed} timed frames"
            ));
        }
        cycles as f64 / timed.max(1) as f64
    }
}
