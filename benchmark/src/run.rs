//! The driver: set a workload up five times, run its fixed-work rounds,
//! optionally trace and replay its layers, tear it down, and report.

use crate::calib::Calibrator;
use crate::host;
use crate::report::{json_text, Report};
use crate::spec;
use crate::stats;
use crate::trace::{self, Tracer};
use crate::workloads::cnn_frames::CnnFrames;
use crate::workloads::compile_cold::CompileCold;
use crate::workloads::device_direct::DeviceDirect;
use crate::workloads::serve_short::ServeShort;
use crate::workloads::{Params, Round, Workload};
use serde::json::Value;
use std::path::PathBuf;
use std::time::Instant;

/// Rounds run under the tracer in a traced run.
const TRACED_ROUNDS: usize = 2;

/// Set-ups per run; `setup_s` is their median. The first is also
/// reported on its own ([`spec::SETUP_FIRST`]).
const SETUP_REPS: usize = 5;

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: how long the timed rounds take on the reference
    /// host. Rounds are fixed work, so this sets the round count.
    pub seconds: u64,
    /// `--trace`.
    pub trace: bool,
    /// `--rounds`: overrides the round count `--seconds` implies.
    pub rounds: Option<usize>,
    /// `--scale`: multiplies the work per round.
    pub scale: f64,
    /// `--out-dir`: where the run's JSON and span file go.
    pub out_dir: PathBuf,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            workload: String::new(),
            seed: 1,
            seconds: 20,
            trace: false,
            rounds: None,
            scale: 1.0,
            out_dir: PathBuf::from("benchmark/out"),
        }
    }
}

/// Per-round host-time figures of a set of rounds, as measured.
struct Timed {
    jobs_per_s: Vec<f64>,
    cpu_us_per_job: Vec<f64>,
    p50_us: Vec<f64>,
    /// Host-speed factor around each round (see [`crate::calib`]).
    host_factor: Vec<f64>,
    latency_samples: usize,
    attempted: u64,
    failed: u64,
}

/// `values` at reference host speed: rates times the factor, times over
/// it.
fn at_reference_speed(values: &[f64], factors: &[f64], rate: bool) -> Vec<f64> {
    values
        .iter()
        .zip(factors)
        .map(|(v, f)| if rate { v * f } else { v / f })
        .collect()
}

/// Runs `n` rounds starting at index `first`, a calibration on either
/// side of each.
fn timed_rounds<W: Workload>(
    w: &mut W,
    cal: &mut Calibrator,
    first: usize,
    n: usize,
    tracer: Option<&Tracer>,
) -> Timed {
    let mut t = Timed {
        jobs_per_s: Vec::with_capacity(n),
        cpu_us_per_job: Vec::with_capacity(n),
        p50_us: Vec::with_capacity(n),
        host_factor: Vec::with_capacity(n),
        latency_samples: 0,
        attempted: 0,
        failed: 0,
    };
    let mut before = cal.factor();
    for i in first..first + n {
        let mut r: Round = w.round(i, tracer);
        let after = cal.factor();
        t.host_factor.push((before + after) / 2.0);
        before = after;
        t.jobs_per_s.push(r.jobs as f64 / r.wall_s);
        t.cpu_us_per_job.push(r.cpu_s * 1e6 / r.cpu_jobs as f64);
        r.latencies_us.sort_by(f64::total_cmp);
        t.p50_us.push(stats::percentile(&r.latencies_us, 50.0));
        t.latency_samples += r.latencies_us.len();
        t.attempted += r.attempted;
        t.failed += r.failed;
    }
    t
}

fn run<W: Workload>(options: &Options) -> Report {
    let start = Instant::now();
    let params = Params {
        seed: options.seed,
        scale: options.scale,
    };
    let mut report = Report {
        workload: W::NAME.into(),
        ..Report::default()
    };

    let mut cal = Calibrator::default();

    // Set-up, five times over; the last one stays. Each builds its own
    // modeled pass, and all of them must agree.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut setup_factor = Vec::with_capacity(SETUP_REPS);
    let mut live: Option<W> = None;
    let mut first_modeled = None;
    for rep in 0..SETUP_REPS {
        drop(live.take());
        let before = cal.factor();
        let t = Instant::now();
        let w = W::setup(&params);
        setup_s.push(t.elapsed().as_secs_f64());
        let since_start = start.elapsed().as_secs_f64();
        let factor = (before + cal.factor()) / 2.0;
        setup_factor.push(factor);
        if rep == 0 {
            let first = spec::SETUP_FIRST;
            report.info(first.name, first.unit, since_start / factor);
        }
        let modeled = w.modeled();
        let first = first_modeled.get_or_insert(modeled);
        if !first.agrees(&modeled) {
            report.problem(format!(
                "modeled pass of set-up {rep} disagrees with the first: {modeled:?} vs {first:?}"
            ));
        }
        live = Some(w);
    }
    let mut w = live.expect("set-up ran");
    report.set_rounds(
        "setup_s",
        &at_reference_speed(&setup_s, &setup_factor, false),
    );
    report.info_rounds("raw.setup_s", "s", &setup_s);

    // Untraced rounds carry every end-to-end number.
    let planned = options
        .rounds
        .unwrap_or(((options.seconds as f64 / W::ROUND_SECONDS).round() as usize).max(3));
    let untraced = if options.trace {
        planned.div_ceil(2).max(planned.min(3))
    } else {
        planned
    };
    let t = timed_rounds(&mut w, &mut cal, 0, untraced, None);
    let f = &t.host_factor;
    let jobs_per_s = at_reference_speed(&t.jobs_per_s, f, true);
    let cpu_us_per_job = at_reference_speed(&t.cpu_us_per_job, f, false);
    let p50_us = if W::LATENCY_IS_COMPUTE {
        at_reference_speed(&t.p50_us, f, false)
    } else {
        t.p50_us.clone()
    };
    report.set_rounds("jobs_per_s", &jobs_per_s);
    report.set_rounds("cpu_us_per_job", &cpu_us_per_job);
    report.set_rounds("p50_us", &p50_us);
    report.info_rounds("raw.jobs_per_s", "1/s", &t.jobs_per_s);
    report.info_rounds("raw.cpu_us_per_job", "us", &t.cpu_us_per_job);
    report.info_rounds("raw.p50_us", "us", &t.p50_us);
    report.info_rounds("host.speed_factor", "ratio", f);
    report.info("p50_samples", "count", t.latency_samples as f64);
    report.info("rounds", "count", untraced as f64);
    report.attempted = t.attempted;
    report.failed = t.failed;

    // A traced run repeats two rounds under the tracer, then takes the
    // stack apart layer by layer.
    let tracer = options.trace.then(Tracer::default);
    if let Some(tracer) = &tracer {
        let traced = timed_rounds(&mut w, &mut cal, untraced, TRACED_ROUNDS, Some(tracer));
        report.attempted += traced.attempted;
        report.failed += traced.failed;
        // Both sides at reference speed: they ran at different times.
        let traced_rate = at_reference_speed(&traced.jobs_per_s, &traced.host_factor, true);
        report.set(
            "trace.overhead_pct",
            (stats::median(&jobs_per_s) / stats::median(&traced_rate) - 1.0) * 100.0,
        );
        report.info_rounds("host.speed_factor.traced", "ratio", &traced.host_factor);
        w.layers(tracer, &mut report);
    }
    let modeled = w.modeled();
    let cycles_per_job = w.teardown(tracer.as_ref(), &mut report);

    let scale = |v: &[f64]| -> Vec<f64> { v.iter().map(|x| x * cycles_per_job).collect() };
    report.set_rounds("sim_cycles_per_s", &scale(&jobs_per_s));
    report.set("peak_rss_mb", host::peak_rss_mb());
    report.set_exact("modeled_device_cycles", modeled.device_cycles);
    report.set_exact("modeled_makespan_cycles", modeled.makespan_cycles);
    report.set("modeled_energy_pj", modeled.energy_pj);
    report.info("failed_share", "ratio", report.failed_share());
    let worst_spread = [&jobs_per_s, &cpu_us_per_job, &p50_us]
        .into_iter()
        .map(|v| stats::spread_pct(v))
        .fold(0.0, f64::max);
    report.set("round.spread_pct", worst_spread);

    if let Some(tracer) = &tracer {
        let spans = tracer.spans();
        report.set_exact("trace.spans", spans.len() as u64);
        report.zero_fill_layers();
        let path = options.out_dir.join(format!("{}.trace.jsonl", W::NAME));
        if let Err(e) = trace::write_jsonl(&spans, &path) {
            report.problem(format!("cannot write {}: {e}", path.display()));
        }
        for (layer, total) in trace::layer_totals(&spans) {
            report.info(
                &format!("trace.self_ms.{layer}"),
                "ms",
                total.self_ns as f64 / 1e6,
            );
        }
    }
    report
}

/// Runs the workload `options` names and saves its JSON.
///
/// # Errors
///
/// An unknown workload name, or an output directory that cannot be
/// written.
pub fn run_workload(options: &Options) -> Result<Report, String> {
    std::fs::create_dir_all(&options.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", options.out_dir.display()))?;
    let report = match options.workload.as_str() {
        DeviceDirect::NAME => run::<DeviceDirect>(options),
        ServeShort::NAME => run::<ServeShort>(options),
        CompileCold::NAME => run::<CompileCold>(options),
        CnnFrames::NAME => run::<CnnFrames>(options),
        other => {
            let known: Vec<&str> = spec::WORKLOADS.iter().map(|(n, _)| *n).collect();
            return Err(format!("unknown workload {other:?}; one of {known:?}"));
        }
    };
    let mut header = vec![
        ("seed".into(), Value::U64(options.seed)),
        ("seconds".into(), Value::U64(options.seconds)),
        ("scale".into(), Value::F64(options.scale)),
        ("trace".into(), Value::Bool(options.trace)),
        ("setup_reps".into(), Value::U64(SETUP_REPS as u64)),
    ];
    header.extend(host::provenance());
    let suffix = if options.trace { ".traced" } else { "" };
    let path = options
        .out_dir
        .join(format!("{}{suffix}.json", options.workload));
    std::fs::write(&path, json_text(&report.to_json(header)) + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(report)
}
