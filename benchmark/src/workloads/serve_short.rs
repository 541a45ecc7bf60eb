//! `serve_short`: the shortest jobs the stack serves — single-instruction
//! fused bitmap queries of 29 device cycles — through **one long-lived
//! [`Server`]**. Executing a job is about half of its CPU, so server
//! admission, routing and handles plus runtime scheduling carry the
//! rest; the 125-program corpus is cycled and fits the runtime's
//! compiled-program cache, so everything after the first 125 jobs is a
//! cache hit. (At 250 programs against the default capacity of 256 the
//! cache's 8 LRU shards fill unevenly and a third of the cyclic lookups
//! miss — a seed-dependent mix of hits and misses, which is neither of
//! the two cases this benchmark wants to tell apart.) Each round has two
//! phases:
//!
//! * **A, closed loop** — 2 client threads, 8 outstanding handles each:
//!   throughput (`jobs_per_s`).
//! * **B, open loop** — one generator thread firing a seeded Poisson
//!   schedule at a fixed 6 000 req/s (about a quarter of phase A's rate
//!   on the reference host), one collector thread; latency runs from the
//!   *scheduled* arrival to `JobHandle::wait` returning (`p50_us`).

use super::{chunk_popcounts, geometry, popcount, Modeled, Params, Round, Workload};
use crate::host;
use crate::layers;
use crate::report::Report;
use crate::stats;
use crate::trace::{in_span, total_ns, Local, Open, Tracer};
use coruscant::core::program::PimProgram;
use coruscant::mem::MemoryConfig;
use coruscant::qos::{ArrivalGen, ArrivalSpec};
use coruscant::runtime::RuntimeOptions;
use coruscant::server::{
    AdmissionOptions, Client, JobHandle, Server, ServerOptions, SubmitOptions,
};
use coruscant::workloads::bitmap::BitmapDataset;
use coruscant::workloads::serve::{compile_bitmap_query_with, QueryPlan};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Phase A jobs per round (≈ 0.4 s on the reference host).
const CLOSED_JOBS_PER_ROUND: usize = 10_000;
/// Phase A client threads and handles each keeps in flight.
const CLIENTS: usize = 2;
const OUTSTANDING: usize = 8;
/// Phase B offered rate and duration per round.
const OPEN_RATE: f64 = 6_000.0;
const OPEN_SECONDS: f64 = 0.5;
/// The extra open-loop points of a traced run.
const EXTRA_RATES: [f64; 2] = [3_000.0, 12_000.0];
const EXTRA_SECONDS: f64 = 1.5;
/// The repo's latency SLO (`bench_server`'s fairness arm): p99 ≤ 25 ms.
const SLO_P99_US: f64 = 25_000.0;
/// Weeks in the query: 4 operands, one fused AND.
const WEEKS: usize = 3;
/// Users in the dataset: one program per 64, so a 125-program corpus.
const USERS: usize = 8_000;
/// Runtime queue of the long-lived server: deep enough that the open
/// loop never sheds below saturation.
const QUEUE_CAPACITY: usize = 4096;

/// The corpus and what each program must return.
struct Corpus {
    programs: Vec<PimProgram>,
    expected: Vec<u32>,
}

impl Corpus {
    /// `n` jobs cycling the corpus from `start`: (index, program).
    fn jobs(&self, start: usize, n: usize) -> Vec<(usize, PimProgram)> {
        (start..start + n)
            .map(|i| i % self.programs.len())
            .map(|i| (i, self.programs[i].clone()))
            .collect()
    }
}

/// What one open-loop run saw.
#[derive(Default)]
struct OpenLoop {
    latencies_us: Vec<f64>,
    late_us: Vec<f64>,
    submitted: u64,
    failed: u64,
    /// Whether completions kept up with arrivals (achieved ≥ 0.99 ×
    /// offered, both over the run's own span).
    kept_up: bool,
    cpu_s: f64,
}

/// The live workload.
pub struct ServeShort {
    config: MemoryConfig,
    corpus: Corpus,
    server: Server,
    modeled: Modeled,
    modeled_jobs: u64,
    closed_jobs: usize,
    open_seconds: f64,
    seed: u64,
    /// Next corpus index, so successive phases keep cycling.
    cursor: usize,
    /// Phase A per-round figures and every phase B sample, for `layers`.
    closed_cpu_us_per_job: Vec<f64>,
    closed_jobs_per_s: Vec<f64>,
    open: OpenLoop,
}

/// One request's spans: a `request` span the harness opens, which its
/// `server.submit` and `server.wait` spans name as their parent. `req`
/// is the job's index in the run-wide cycle over the corpus, so no two
/// requests of a run share it.
fn open_request(local: &mut Option<Local<'_>>, round: Option<u64>, req: u64) -> Option<Open> {
    local
        .as_mut()
        .map(|l| l.open("request", "harness", round, Some(req)))
}

/// Submits, counting a refusal as a failed job.
fn submit(
    client: &Client,
    local: &mut Option<Local<'_>>,
    request: Option<&Open>,
    program: PimProgram,
) -> Option<JobHandle> {
    let (parent, req) = (request.map(|o| o.id), request.and_then(|o| o.req));
    in_span(local, "server.submit", "server", parent, req, || {
        client.submit_with(program, SubmitOptions::default())
    })
    .ok()
}

/// Waits, returning whether the job came back with the right count.
fn wait_ok(
    local: &mut Option<Local<'_>>,
    request: Option<&Open>,
    handle: JobHandle,
    want: u32,
) -> bool {
    let (parent, req) = (request.map(|o| o.id), request.and_then(|o| o.req));
    in_span(local, "server.wait", "server", parent, req, || {
        handle.wait()
    })
    .is_ok_and(|done| popcount(&done.outputs) == want)
}

/// A closed-loop job in flight: its request span (traced runs only),
/// its corpus index and its handle.
type InFlight = (Option<Open>, usize, JobHandle);

impl ServeShort {
    /// Phase A: returns (wall seconds, CPU seconds, failed jobs).
    fn closed_loop(
        &mut self,
        jobs: usize,
        round: Option<u64>,
        tracer: Option<&Tracer>,
    ) -> (f64, f64, u64) {
        let per_client = jobs / CLIENTS;
        let first = self.cursor;
        let work: Vec<_> = (0..CLIENTS)
            .map(|c| self.corpus.jobs(first + c * per_client, per_client))
            .collect();
        self.cursor += CLIENTS * per_client;
        let expected = &self.corpus.expected;
        let server = &self.server;
        let cpu0 = host::process_cpu();
        let t0 = Instant::now();
        let failed = std::thread::scope(|s| {
            let clients: Vec<_> = work
                .into_iter()
                .enumerate()
                .map(|(c, work)| {
                    let client = server.client();
                    s.spawn(move || {
                        let mut local = tracer.map(Tracer::local);
                        let mut window: VecDeque<InFlight> = VecDeque::new();
                        let mut failed = 0u64;
                        let settle =
                            |local: &mut Option<Local<'_>>, (request, i, handle): InFlight| {
                                let ok = wait_ok(local, request.as_ref(), handle, expected[i]);
                                if let (Some(l), Some(o)) = (local.as_mut(), request) {
                                    l.close(o);
                                }
                                u64::from(!ok)
                            };
                        for (n, (i, program)) in work.into_iter().enumerate() {
                            if window.len() == OUTSTANDING {
                                let oldest = window.pop_front().expect("window is full");
                                failed += settle(&mut local, oldest);
                            }
                            let req = (first + c * per_client + n) as u64;
                            let request = open_request(&mut local, round, req);
                            match submit(&client, &mut local, request.as_ref(), program) {
                                Some(handle) => window.push_back((request, i, handle)),
                                None => {
                                    failed += 1;
                                    if let (Some(l), Some(o)) = (local.as_mut(), request) {
                                        l.close(o);
                                    }
                                }
                            }
                        }
                        for entry in window {
                            failed += settle(&mut local, entry);
                        }
                        failed
                    })
                })
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("client thread"))
                .sum::<u64>()
        });
        (
            t0.elapsed().as_secs_f64(),
            (host::process_cpu() - cpu0).as_secs_f64(),
            failed,
        )
    }

    /// Phase B (and the extra points of a traced run): fires the seeded
    /// schedule regardless of completions.
    fn open_loop(
        &mut self,
        rate: f64,
        seconds: f64,
        stream: u64,
        round: Option<u64>,
        tracer: Option<&Tracer>,
    ) -> OpenLoop {
        let seed = self.seed.wrapping_mul(0x9E37_79B9).wrapping_add(stream);
        let schedule = ArrivalGen::new(ArrivalSpec::Poisson { rate_per_sec: rate }, seed)
            .schedule_for(Duration::from_secs_f64(seconds));
        let first = self.cursor;
        let work = self.corpus.jobs(first, schedule.len());
        self.cursor += schedule.len();
        let expected = &self.corpus.expected;
        let client = self.server.client();
        let (tx, rx) = mpsc::channel::<(Instant, Option<Open>, usize, JobHandle)>();
        let mut out = OpenLoop {
            submitted: schedule.len() as u64,
            ..OpenLoop::default()
        };
        let cpu0 = host::process_cpu();
        let start = Instant::now();
        let (latencies_us, wrong, last_done) = std::thread::scope(|s| {
            let collector = s.spawn(move || {
                let mut local = tracer.map(Tracer::local);
                let mut latencies_us = Vec::new();
                let mut wrong = 0u64;
                let mut last_done = start;
                for (due, request, i, handle) in rx {
                    let ok = wait_ok(&mut local, request.as_ref(), handle, expected[i]);
                    last_done = Instant::now();
                    // The request ran from when it was due, not from
                    // when the generator got to it.
                    if let (Some(l), Some(o)) = (local.as_mut(), request) {
                        l.close_between(o, due, last_done);
                    }
                    if ok {
                        latencies_us.push((last_done - due).as_secs_f64() * 1e6);
                    } else {
                        wrong += 1;
                    }
                }
                (latencies_us, wrong, last_done)
            });
            let mut local = tracer.map(Tracer::local);
            for (n, (offset, (i, program))) in schedule.iter().zip(work).enumerate() {
                let due = start + *offset;
                if let Some(early) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(early);
                }
                out.late_us.push(due.elapsed().as_secs_f64() * 1e6);
                let request = open_request(&mut local, round, (first + n) as u64);
                match submit(&client, &mut local, request.as_ref(), program) {
                    Some(handle) => tx
                        .send((due, request, i, handle))
                        .expect("collector outlives the generator"),
                    None => {
                        out.failed += 1;
                        if let (Some(l), Some(o)) = (local.as_mut(), request) {
                            l.close_between(o, due, Instant::now());
                        }
                    }
                }
            }
            drop(tx);
            collector.join().expect("collector thread")
        });
        out.cpu_s = (host::process_cpu() - cpu0).as_secs_f64();
        out.failed += wrong;
        let offered =
            schedule.len() as f64 / schedule.last().map_or(seconds, Duration::as_secs_f64);
        let achieved = latencies_us.len() as f64 / (last_done - start).as_secs_f64();
        out.kept_up = achieved >= 0.99 * offered;
        out.latencies_us = latencies_us;
        out
    }

    /// The modeled pass: a short admission-off server fed the corpus four
    /// times, in order, by one submitter.
    fn modeled_pass(config: &MemoryConfig, corpus: &Corpus) -> (Modeled, u64) {
        let server =
            Server::start(config.clone(), ServerOptions::default()).expect("server starts");
        let client = server.client();
        let jobs = corpus.jobs(0, 4 * corpus.programs.len());
        let handles: Vec<_> = jobs
            .into_iter()
            .map(|(i, p)| (i, client.submit(p).expect("backpressure never refuses")))
            .collect();
        for (i, handle) in handles {
            let done = handle.wait().expect("modeled-pass job completes");
            assert_eq!(
                popcount(&done.outputs),
                corpus.expected[i],
                "modeled pass returned a wrong output"
            );
        }
        let stats = server.shutdown().expect("server drains");
        assert!(stats.balanced() && stats.lost == 0, "{stats:?}");
        (
            Modeled {
                device_cycles: stats.runtime.device_cycles,
                makespan_cycles: stats.runtime.makespan_cycles,
                energy_pj: stats.runtime.controller.energy_pj,
            },
            stats.completed,
        )
    }

    fn runtime_options() -> RuntimeOptions {
        RuntimeOptions {
            queue_capacity: QUEUE_CAPACITY,
            ..RuntimeOptions::default()
        }
    }
}

impl Workload for ServeShort {
    const NAME: &'static str = "serve_short";
    const ROUND_SECONDS: f64 = 1.0;
    // Phase B at a quarter load is mostly threads waking each other.
    // Dividing it by the host-speed factor narrowed its ten-run spread
    // in a set that straddled host phases (15.3 % to 6.6 %) and widened
    // it in one that did not (11.4 % to 14.3 %); as measured, this one
    // latency does not depend on the calibration kernel at all.
    const LATENCY_IS_COMPUTE: bool = false;

    fn setup(params: &Params) -> ServeShort {
        let config = geometry(8, 64);
        let dataset = BitmapDataset::generate(USERS, WEEKS, params.seed);
        let corpus = Corpus {
            programs: compile_bitmap_query_with(&dataset, WEEKS, &config, QueryPlan::Fused)
                .expect("query compiles"),
            expected: chunk_popcounts(&dataset, WEEKS),
        };
        let (modeled, modeled_jobs) = ServeShort::modeled_pass(&config, &corpus);
        let server = Server::start(
            config.clone(),
            ServerOptions {
                runtime: ServeShort::runtime_options(),
                admission: AdmissionOptions::enabled(),
                ..ServerOptions::default()
            },
        )
        .expect("server starts");
        let mut w = ServeShort {
            config,
            corpus,
            server,
            modeled,
            modeled_jobs,
            closed_jobs: params.scaled(CLOSED_JOBS_PER_ROUND, 64),
            open_seconds: (OPEN_SECONDS * params.scale).max(0.02),
            seed: params.seed,
            cursor: 0,
            closed_cpu_us_per_job: Vec::new(),
            closed_jobs_per_s: Vec::new(),
            open: OpenLoop {
                kept_up: true,
                ..OpenLoop::default()
            },
        };
        let (_, _, failed) = w.closed_loop(w.closed_jobs.div_ceil(5), None, None);
        assert_eq!(failed, 0, "warm-up job failed");
        w
    }

    fn modeled(&self) -> Modeled {
        self.modeled
    }

    fn round(&mut self, index: usize, tracer: Option<&Tracer>) -> Round {
        let jobs = self.closed_jobs / CLIENTS * CLIENTS;
        let mut local = tracer.map(Tracer::local);
        let round = local
            .as_mut()
            .map(|l| l.open("round", "harness", None, None));
        let parent = round.as_ref().map(|o| o.id);
        let (wall_s, closed_cpu_s, closed_failed) = self.closed_loop(jobs, parent, tracer);
        let stream = 1 + index as u64;
        let mut open = self.open_loop(OPEN_RATE, self.open_seconds, stream, parent, tracer);
        if let (Some(l), Some(o)) = (local.as_mut(), round) {
            l.close(o);
        }
        self.closed_cpu_us_per_job
            .push(closed_cpu_s * 1e6 / jobs as f64);
        self.closed_jobs_per_s.push(jobs as f64 / wall_s);
        let round = Round {
            jobs: jobs as u64,
            wall_s,
            cpu_s: closed_cpu_s + open.cpu_s,
            cpu_jobs: jobs as u64 + open.submitted,
            latencies_us: open.latencies_us.clone(),
            attempted: jobs as u64 + open.submitted,
            failed: closed_failed + open.failed,
        };
        self.open.latencies_us.append(&mut open.latencies_us);
        self.open.late_us.append(&mut open.late_us);
        // The 6 000 req/s point holds its rate only if every round did.
        self.open.kept_up &= open.kept_up;
        round
    }

    fn layers(&mut self, tracer: &Tracer, report: &mut Report) {
        let sorted = |mut v: Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v
        };
        // Phase B over every round of the run.
        let open = sorted(std::mem::take(&mut self.open.latencies_us));
        let late = sorted(std::mem::take(&mut self.open.late_us));
        let open_p99 = stats::percentile(&open, 99.0);
        report.set_exact("server.open_samples", open.len() as u64);
        report.set("server.open_p90_us", stats::percentile(&open, 90.0));
        report.set("server.open_p99_us", open_p99);
        report.set("server.open_p999_us", stats::percentile(&open, 99.9));
        report.set("loadgen.late_p99_us", stats::percentile(&late, 99.0));
        report.set("loadgen.late_max_us", late.last().copied().unwrap_or(0.0));

        // Two more offered rates on the same server.
        let mut rate_ok_max = 0.0;
        if self.open.kept_up && open_p99 <= SLO_P99_US {
            rate_ok_max = OPEN_RATE;
        }
        for (k, rate) in EXTRA_RATES.into_iter().enumerate() {
            let seconds = EXTRA_SECONDS * self.open_seconds / OPEN_SECONDS;
            let point = self.open_loop(rate, seconds, 1_000 + k as u64, None, Some(tracer));
            let lat = sorted(point.latencies_us);
            let (p50, p99) = (stats::percentile(&lat, 50.0), stats::percentile(&lat, 99.0));
            if k == 0 {
                report.set("server.open3k_p50_us", p50);
            } else {
                report.set("server.open12k_p50_us", p50);
                report.set("server.open12k_p99_us", p99);
            }
            if point.failed == 0 && point.kept_up && p99 <= SLO_P99_US {
                rate_ok_max = f64::max(rate_ok_max, rate);
            }
        }
        report.set("server.rate_ok_max", rate_ok_max);

        // Below the server: each lower layer alone, then the same jobs
        // into a bare runtime that may hold as many at once as the
        // closed-loop clients keep in flight.
        layers::racetrack(report);
        layers::mem(&self.config, self.seed, report);
        let programs = &self.corpus.programs;
        let jobs = programs.len() as u64;
        let (optimize_us, optimized) = layers::compiler(&self.config, programs, report);
        let core_us = layers::core(&self.config, &[], &optimized, jobs, report);
        let s = layers::median_session(|| {
            let work = self.corpus.jobs(0, self.closed_jobs);
            let first_req = self.cursor as u64;
            self.cursor += work.len();
            layers::runtime_session(
                &self.config,
                RuntimeOptions {
                    queue_capacity: CLIENTS * OUTSTANDING,
                    ..RuntimeOptions::default()
                },
                work.into_iter().map(|(_, p)| p).collect(),
                first_req,
                &mut Some(tracer.local()),
            )
        });
        let (runtime_cpu_us, sched_us) = layers::runtime_metrics(&s, report);
        let compile_us = layers::compile_share_us(&s, optimize_us);
        report.set(
            "runtime.overhead_us_per_job",
            runtime_cpu_us - core_us - compile_us,
        );
        report.set(
            "server.overhead_us_per_job",
            stats::median(&self.closed_cpu_us_per_job) - runtime_cpu_us,
        );
        report.set(
            "server.frontend_efficiency",
            stats::median(&self.closed_jobs_per_s) / (s.jobs as f64 / s.wall_s),
        );
        report.set(
            "stack.unattributed_us_per_job",
            report.get_or_zero("raw.cpu_us_per_job") - core_us - compile_us - sched_us,
        );
        let spans = tracer.spans();
        let submits = spans.iter().filter(|s| s.name == "server.submit").count();
        report.set(
            "server.submit_us_per_job",
            total_ns(&spans, "server.submit") as f64 / 1e3 / submits.max(1) as f64,
        );
    }

    fn teardown(self, tracer: Option<&Tracer>, report: &mut Report) -> f64 {
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
        if !stats.balanced() {
            report.problem(format!("ServerStats does not balance: {stats:?}"));
        }
        // Every handle was waited on, so each failed job is already
        // counted where its client saw it; loss is an accounting fault.
        if stats.lost != 0 {
            report.problem(format!("{} completions lost", stats.lost));
        }
        self.modeled.device_cycles as f64 / self.modeled_jobs as f64
    }
}
