//! Isolated replays: each layer below the server timed on its own, from
//! outside, over the workload's own programs at the workload's own
//! geometry. These are the numbers an optimisation of one layer should
//! move first; the end-to-end metric it is predicted to move is in
//! [`crate::spec::LAYER_MOVES`]. Every time here is as measured; the
//! traced run's `host.speed_factor` says how fast the host was.

use crate::host;
use crate::report::Report;
use crate::stats;
use crate::trace::{in_span, Local};
use coruscant::compiler::{CompileOptions, Compiler};
use coruscant::core::dispatch::PimMachine;
use coruscant::core::program::{execute_on, PimProgram, Step};
use coruscant::mem::{Dbc, DbcLocation, MemoryConfig, MemoryController, Row, RowAddress};
use coruscant::qos::SplitMix64;
use coruscant::racetrack::{CostMeter, Nanowire, NanowireSpec};
use coruscant::runtime::{Placement, Runtime, RuntimeOptions, RuntimeReport};
use std::hint::black_box;
use std::time::Instant;

/// Median over five batches of the per-call time of `op`, nanoseconds.
fn ns_per_call(calls: usize, mut op: impl FnMut(usize)) -> f64 {
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for i in 0..calls {
                op(i);
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    stats::median(&batches)
}

/// `racetrack`: one paper-geometry wire (32 rows, TRD 7).
pub fn racetrack(report: &mut Report) {
    let mut wire = Nanowire::new(NanowireSpec::coruscant(32, 7));
    for r in (0..32).step_by(3) {
        wire.set_row(r, true).expect("row in range");
    }
    // Step back first: a fresh wire sits at its initial offset, and the
    // pair of steps returns it there.
    let mut meter = CostMeter::new();
    let (left, _) = wire.shift_slack();
    let first = if left > 0 { -1 } else { 1 };
    let shift = ns_per_call(20_000, |i| {
        let delta = if i % 2 == 0 { first } else { -first };
        wire.shift(delta, &mut meter)
            .expect("one step stays on the wire");
    });
    report.set("racetrack.shift_ns_per_step", shift);
    let tr = ns_per_call(20_000, |_| {
        black_box(wire.transverse_read_full().expect("two-port wire"));
    });
    report.set("racetrack.tr_ns", tr);
}

/// `mem`: one PIM DBC and one controller at the workload's width.
pub fn mem(config: &MemoryConfig, seed: u64, report: &mut Report) {
    let width = config.nanowires_per_dbc;
    let mut rng = SplitMix64::new(seed);
    let mut random_row = || {
        let words: Vec<u64> = (0..width.div_ceil(64)).map(|_| rng.next_u64()).collect();
        Row::from_u64_words(width, &words)
    };
    let rows: Vec<Row> = (0..config.rows_per_dbc).map(|_| random_row()).collect();

    let mut dbc = Dbc::pim_enabled(config);
    for (r, row) in rows.iter().enumerate() {
        dbc.poke_row(r, row).expect("row in range");
    }
    let mut meter = CostMeter::new();
    let first = if dbc.wire(0).shift_slack().0 > 0 {
        -1
    } else {
        1
    };
    let shift = ns_per_call(400, |i| {
        let delta = if i % 2 == 0 { first } else { -first };
        dbc.shift_all(delta, &mut meter)
            .expect("one step stays on the wires");
    });
    report.set("mem.shift_all_ns_per_step", shift);
    let tr = ns_per_call(400, |_| {
        black_box(dbc.transverse_read_all(&mut meter).expect("PIM DBC"));
    });
    report.set("mem.tr_all_ns", tr);
    // Rows 10 and 11 sit one step apart, so each access realigns by one
    // domain: the cost is the sense/write, not a long shift.
    let read = ns_per_call(400, |i| {
        black_box(dbc.read_row(10 + i % 2, &mut meter).expect("row in range"));
    });
    report.set("mem.read_row_ns", read);
    let write = ns_per_call(400, |i| {
        dbc.write_row(10 + i % 2, &rows[i % rows.len()], &mut meter)
            .expect("row in range");
    });
    report.set("mem.write_row_ns", write);

    let mut ctrl = MemoryController::new(config.clone());
    let unit = ctrl.pim_unit(0);
    let store = ns_per_call(400, |i| {
        ctrl.store_row(
            RowAddress::new(unit, 10 + i % 2),
            &rows[i % rows.len()],
            &mut meter,
        )
        .expect("unit 0 exists");
    });
    report.set("mem.store_row_ns", store);
    let load = ns_per_call(400, |i| {
        black_box(
            ctrl.load_row(RowAddress::new(unit, 10 + i % 2), &mut meter)
                .expect("unit 0 exists"),
        );
    });
    report.set("mem.load_row_ns", load);

    let lanes: Vec<u64> = (0..width / 64).map(|_| rng.next_u64()).collect();
    let pack = ns_per_call(2_000, |_| {
        black_box(Row::pack(width, 64, black_box(&lanes)).unpack(64));
    });
    report.set("mem.row_pack_ns", pack);
}

/// `core`: the workload's programs on one warm machine. `prelude` runs
/// once, untimed (resident pins); `programs` make up `jobs` jobs and are
/// replayed five times, timed, after one warm pass. Returns
/// `core.execute_on_us_per_job`.
pub fn core(
    config: &MemoryConfig,
    prelude: &[PimProgram],
    programs: &[PimProgram],
    jobs: u64,
    report: &mut Report,
) -> f64 {
    let mut machine = PimMachine::new(config.clone());
    for p in prelude.iter().chain(programs) {
        execute_on(p, &mut machine).expect("workload program executes");
    }
    let mut cycles = 0;
    let passes: Vec<f64> = (0..5)
        .map(|_| {
            cycles = 0;
            let t = Instant::now();
            for p in programs {
                cycles += execute_on(p, &mut machine)
                    .expect("workload program executes")
                    .device_cycles;
            }
            t.elapsed().as_secs_f64()
        })
        .collect();
    let pass_s = stats::median(&passes);

    // The same steps by hand, to time `PimMachine::execute` alone.
    let width = config.nanowires_per_dbc;
    let instr: usize = programs.iter().map(PimProgram::instruction_count).sum();
    let exec_passes: Vec<f64> = (0..5)
        .map(|_| {
            let mut meter = CostMeter::new();
            let mut exec_ns = 0u128;
            for p in programs {
                for step in &p.steps {
                    match step {
                        Step::Load { addr, values, lane } => machine
                            .controller_mut()
                            .store_row(*addr, &Row::pack(width, *lane, values), &mut meter)
                            .expect("load lands"),
                        Step::Exec(i) => {
                            let t = Instant::now();
                            black_box(machine.execute(i).expect("instruction executes"));
                            exec_ns += t.elapsed().as_nanos();
                        }
                        Step::Readout { addr, .. } => {
                            black_box(
                                machine
                                    .controller_mut()
                                    .load_row(*addr, &mut meter)
                                    .expect("readout lands"),
                            );
                        }
                    }
                }
            }
            exec_ns as f64 / instr.max(1) as f64
        })
        .collect();

    let us_per_job = pass_s * 1e6 / jobs as f64;
    report.set("core.exec_ns_per_instr", stats::median(&exec_passes));
    report.set("core.execute_on_us_per_job", us_per_job);
    report.set(
        "core.host_ns_per_sim_cycle",
        pass_s * 1e9 / cycles.max(1) as f64,
    );
    report.set_exact("core.instr", instr as u64);
    report.set_exact("core.device_cycles", cycles);
    us_per_job
}

/// `compiler`: the default pass pipeline on each program, cold (no
/// cache in front). Returns `compiler.optimize_us_per_program` and the
/// optimized programs — what a runtime would go on to execute.
pub fn compiler(
    config: &MemoryConfig,
    programs: &[PimProgram],
    report: &mut Report,
) -> (f64, Vec<PimProgram>) {
    let compiler = Compiler::new(config.clone(), &CompileOptions::default());
    let mut optimized = Vec::new();
    let mut eliminated = 0;
    let mut saved = 0;
    let passes: Vec<f64> = (0..5)
        .map(|_| {
            optimized.clear();
            eliminated = 0;
            saved = 0;
            let t = Instant::now();
            for p in programs {
                let (o, r) = compiler.optimize(p).expect("workload program compiles");
                optimized.push(o);
                eliminated += r.instructions_saved();
                saved += r.cycles_saved();
            }
            t.elapsed().as_secs_f64()
        })
        .collect();
    let us = stats::median(&passes) * 1e6 / programs.len().max(1) as f64;
    report.set("compiler.optimize_us_per_program", us);
    report.set_exact("compiler.programs", programs.len() as u64);
    report.set_exact("compiler.instr_eliminated", eliminated);
    report.set_exact("compiler.est_cycles_saved", saved);
    (us, optimized)
}

/// What one runtime-only session cost.
pub struct Session {
    /// The report `Runtime::finish` returned.
    pub report: RuntimeReport,
    /// Jobs submitted.
    pub jobs: u64,
    /// Wall time from `Runtime::new` to `finish` returning.
    pub wall_s: f64,
    /// Process CPU over the same interval.
    pub cpu_s: f64,
    /// Time inside `Runtime::submit`, summed.
    pub submit_s: f64,
    /// Time inside `Runtime::finish`.
    pub finish_s: f64,
    /// When each job was handed to `submit`, seconds before `finish`
    /// returned — the only point its result reaches the caller.
    pub held_s: Vec<f64>,
}

impl Session {
    /// The session's stats and timings without its per-job payload.
    #[must_use]
    pub fn without_payload(&self) -> Session {
        Session {
            report: RuntimeReport {
                outcomes: Vec::new(),
                stats: self.report.stats.clone(),
            },
            held_s: Vec::new(),
            ..*self
        }
    }
}

/// Three cold sessions; returns the one whose wall time is the median.
/// A single one-second session is at the mercy of whatever the host does
/// in that second.
pub fn median_session(run: impl FnMut() -> Session) -> Session {
    let mut sessions: Vec<Session> = std::iter::repeat_with(run).take(3).collect();
    sessions.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    sessions.swap_remove(1)
}

/// One submitter feeding `programs` to a fresh [`Runtime`] with blocking
/// backpressure, then `finish()`. `compile_cold`'s timed round, and the
/// runtime-only baseline the served workloads are compared against.
/// Spans of job `i` carry request id `first_req + i`.
pub fn runtime_session(
    config: &MemoryConfig,
    options: RuntimeOptions,
    programs: Vec<PimProgram>,
    first_req: u64,
    local: &mut Option<Local<'_>>,
) -> Session {
    let jobs = programs.len() as u64;
    let mut submitted_at = Vec::with_capacity(programs.len());
    let cpu0 = host::process_cpu();
    let t0 = Instant::now();
    let session = local
        .as_mut()
        .map(|l| l.open("session", "harness", None, None));
    let parent = session.as_ref().map(|o| o.id);
    let runtime = in_span(local, "runtime.new", "runtime", parent, None, || {
        Runtime::new(config.clone(), options).expect("runtime starts")
    });
    let mut submit_s = 0.0;
    for (i, program) in programs.into_iter().enumerate() {
        let t = Instant::now();
        in_span(
            local,
            "runtime.submit",
            "runtime",
            parent,
            Some(first_req + i as u64),
            || {
                runtime
                    .submit(program, Placement::Auto)
                    .expect("blocking submit is accepted")
            },
        );
        submit_s += t.elapsed().as_secs_f64();
        submitted_at.push(t);
    }
    let t = Instant::now();
    let report = in_span(local, "runtime.finish", "runtime", parent, None, || {
        runtime.finish().expect("session drains")
    });
    let end = Instant::now();
    if let (Some(l), Some(o)) = (local.as_mut(), session) {
        l.close(o);
    }
    Session {
        report,
        jobs,
        wall_s: (end - t0).as_secs_f64(),
        cpu_s: (host::process_cpu() - cpu0).as_secs_f64(),
        submit_s,
        finish_s: (end - t).as_secs_f64(),
        held_s: submitted_at
            .into_iter()
            .map(|at| (end - at).as_secs_f64())
            .collect(),
    }
}

/// `runtime`: everything the public stats and the times around
/// `submit`/`finish` say about one session. Returns, per job and in
/// microseconds, the session's process CPU and the scheduler thread's
/// own work (admit + place + dispatch + ack; popping
/// is mostly blocked waiting, and `sched_busy` is the busiest thread of
/// any kind, which in the classic engine is usually a worker executing).
pub fn runtime_metrics(s: &Session, report: &mut Report) -> (f64, f64) {
    let stats = &s.report.stats;
    let per_job = |micros: f64| micros / s.jobs.max(1) as f64;
    report.set("runtime.submit_us_per_job", per_job(s.submit_s * 1e6));
    report.set("runtime.finish_ms", s.finish_s * 1e3);
    report.set("runtime.finish_us_per_job", per_job(s.finish_s * 1e6));
    let cache = &stats.cache;
    report.set_exact("runtime.cache_hits", cache.hits);
    report.set_exact("runtime.cache_misses", cache.misses);
    report.set_exact("runtime.cache_evictions", cache.evictions);
    let lookups = cache.hits + cache.misses;
    report.set(
        "runtime.cache_hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            cache.hits as f64 / lookups as f64
        },
    );
    let cpu_us_per_job = per_job(s.cpu_s * 1e6);
    let sched = &stats.sched;
    let stage = |name: &str, micros: u64, report: &mut Report| {
        report.set(
            &format!("runtime.sched_{name}_us_per_job"),
            per_job(micros as f64),
        );
    };
    stage("busy", sched.busy_micros, report);
    stage("pop", sched.pop_micros, report);
    stage("admit", sched.admit_micros, report);
    stage("place", sched.place_micros, report);
    stage("dispatch", sched.dispatch_micros, report);
    stage("ack", sched.ack_micros, report);
    report.set("runtime.occupancy_pct", sched.occupancy_pct);
    report.set("runtime.wait_cycles_mean", stats.wait.mean());
    let scheduling = sched.stage_micros() - sched.pop_micros;
    (cpu_us_per_job, per_job(scheduling as f64))
}

/// The share of one job's CPU that goes to compiling: the cold compile
/// time weighted by how often the session's cache missed.
#[must_use]
pub fn compile_share_us(s: &Session, optimize_us: f64) -> f64 {
    optimize_us * s.report.stats.cache.misses as f64 / s.jobs.max(1) as f64
}

/// A program moved onto `unit`'s tile, DBC index and row preserved —
/// what the runtime does to a resident-placed job, done here so pinned
/// programs can be replayed on a bare machine.
#[must_use]
pub fn relocate_to_tile(program: &PimProgram, unit: DbcLocation) -> PimProgram {
    let mv = |a: &RowAddress| {
        RowAddress::new(
            DbcLocation::new(unit.bank, unit.subarray, unit.tile, a.location.dbc),
            a.row,
        )
    };
    let steps = program
        .steps
        .iter()
        .map(|s| match s {
            Step::Load { addr, values, lane } => Step::Load {
                addr: mv(addr),
                values: values.clone(),
                lane: *lane,
            },
            Step::Exec(i) => {
                let mut i = *i;
                i.src = mv(&i.src);
                i.dst = i.dst.map(|d| mv(&d));
                Step::Exec(i)
            }
            Step::Readout { label, addr, lane } => Step::Readout {
                label: label.clone(),
                addr: mv(addr),
                lane: *lane,
            },
        })
        .collect();
    PimProgram { steps }
}
