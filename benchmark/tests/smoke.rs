//! All four workloads, untraced and traced, at a fiftieth of their size:
//! every output checks out, every contracted metric is reported, and the
//! saved files are where the README says they are.

use coruscant_benchmark::compare::compare;
use coruscant_benchmark::run::{run_workload, Options};
use coruscant_benchmark::spec;
use serde::json::Value;
use std::path::PathBuf;

fn smoke(workload: &str, trace: bool) {
    let out_dir =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    let options = Options {
        workload: workload.into(),
        seed: 42,
        trace,
        rounds: Some(1),
        scale: 0.02,
        out_dir: out_dir.clone(),
        ..Options::default()
    };
    let report = run_workload(&options).expect("workload runs");
    assert!(report.correct(), "{workload}: {:?}", report.problems);
    assert_eq!(report.failed, 0);
    assert!(report.attempted > 0);

    // The result line carries exactly the contracted metrics of its mode
    // (`result_line` panics on a missing one).
    let wanted = if trace {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    };
    let line = serde::json::parse(&report.result_line(wanted)).expect("result line is JSON");
    let Value::Object(fields) = &line else {
        panic!("result line is not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let Value::Object(metrics) = &fields[3].1 else {
        panic!("metrics is not an object")
    };
    assert_eq!(metrics.len(), wanted.len());
    for (name, _) in metrics {
        assert!(spec::well_formed(name), "{name}");
    }
    // Every printed name, contracted or not, is well-formed.
    for line in report.lines().lines() {
        let cols: Vec<&str> = line.split(' ').collect();
        assert_eq!(cols.len(), 4, "{line}");
        assert!(spec::well_formed(cols[0]), "{line}");
        assert_eq!(cols[1], workload);
    }

    // Modeled values are exact and present in both modes.
    for name in [
        "modeled_device_cycles",
        "modeled_makespan_cycles",
        "modeled_energy_pj",
    ] {
        assert!(report.get(name).unwrap() > 0.0, "{workload}: {name}");
    }

    let suffix = if trace { ".traced" } else { "" };
    let saved = std::fs::read_to_string(out_dir.join(format!("{workload}{suffix}.json")))
        .expect("run JSON saved");
    let saved = serde::json::parse(&saved).expect("run JSON parses");
    let Value::Object(header) = &saved else {
        panic!("run JSON is not an object")
    };
    for key in [
        "seed",
        "nproc",
        "cpu_model",
        "git_rev",
        "rustc",
        "setup_reps",
        "metrics",
    ] {
        assert!(
            header.iter().any(|(k, _)| k == key),
            "{workload}: no {key} in the header"
        );
    }
    if trace {
        let spans = std::fs::read_to_string(out_dir.join(format!("{workload}.trace.jsonl")))
            .expect("span file saved");
        assert_eq!(
            spans.lines().count() as f64,
            report.get("trace.spans").unwrap(),
            "one line per span"
        );
        assert!(report.get("trace.overhead_pct").is_some());
    }
}

#[test]
fn device_direct_smoke() {
    smoke("device_direct", false);
    smoke("device_direct", true);
}

#[test]
fn serve_short_smoke() {
    smoke("serve_short", false);
    smoke("serve_short", true);
}

#[test]
fn compile_cold_smoke() {
    smoke("compile_cold", false);
    smoke("compile_cold", true);
}

#[test]
fn cnn_frames_smoke() {
    smoke("cnn_frames", false);
    smoke("cnn_frames", true);
}

#[test]
fn same_seed_same_modeled_values_and_unknown_workloads_are_refused() {
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let run = |seed, side: &str| {
        let options = Options {
            workload: "serve_short".into(),
            seed,
            rounds: Some(3),
            scale: 0.02,
            out_dir: tmp.join(format!("smoke-repeat-{side}")),
            ..Options::default()
        };
        let r = run_workload(&options).expect("workload runs");
        [
            "modeled_device_cycles",
            "modeled_makespan_cycles",
            "modeled_energy_pj",
        ]
        .map(|m| r.get(m).unwrap().to_bits())
    };
    assert_eq!(run(7, "a"), run(7, "b"));

    // The two saved runs compare: every end-to-end metric is found and
    // judged (tiny rounds on a shared host may read worse or unresolved,
    // which is a verdict, not an error)…
    let saved = |side: &str| tmp.join(format!("smoke-repeat-{side}/serve_short.json"));
    compare(&saved("a"), &saved("b")).expect("two correct runs of one workload compare");
    // …a run against itself is never worse…
    assert_eq!(compare(&saved("a"), &saved("a")), Ok(true));
    // …and a run that returned a wrong answer is refused, not judged.
    let wrong = std::fs::read_to_string(saved("b"))
        .unwrap()
        .replace("\"correct\":true", "\"correct\":false");
    let wrong_path = tmp.join("smoke-repeat-b/wrong.json");
    std::fs::write(&wrong_path, wrong).unwrap();
    assert!(compare(&saved("a"), &wrong_path)
        .unwrap_err()
        .contains("not correct"));

    let bogus = Options {
        workload: "nope".into(),
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-bogus"),
        ..Options::default()
    };
    assert!(run_workload(&bogus).is_err());
}
