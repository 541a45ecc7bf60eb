//! `BENCHMARK.json` and the binary must name the same things.

use coruscant_benchmark::spec::{self, MetricSpec};
use serde::json::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    serde::json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses")
}

fn field<'a>(v: &'a Value, name: &str) -> &'a Value {
    let Value::Object(entries) = v else {
        panic!("expected an object holding {name}, got {v:?}")
    };
    &entries
        .iter()
        .find(|(k, _)| k == name)
        .unwrap_or_else(|| panic!("no {name}"))
        .1
}

fn keys(v: &Value) -> Vec<&str> {
    let Value::Object(entries) = v else {
        panic!("expected an object, got {v:?}")
    };
    entries.iter().map(|(k, _)| k.as_str()).collect()
}

fn items<'a>(v: &'a Value, name: &str) -> &'a [Value] {
    let Value::Array(items) = field(v, name) else {
        panic!("{name} is not an array")
    };
    items
}

fn text<'a>(v: &'a Value, name: &str) -> &'a str {
    let Value::Str(s) = field(v, name) else {
        panic!("{name} is not a string")
    };
    s
}

fn assert_table(listed: &[Value], table: &[MetricSpec], bounded: bool) {
    assert_eq!(listed.len(), table.len());
    for (got, want) in listed.iter().zip(table) {
        assert!(spec::well_formed(want.name), "{}", want.name);
        assert_eq!(text(got, "name"), want.name);
        assert_eq!(text(got, "unit"), want.unit, "{}", want.name);
        assert_eq!(text(got, "better"), want.better.as_str(), "{}", want.name);
        if bounded {
            assert_eq!(
                keys(got),
                ["name", "unit", "better", "bound"],
                "{}",
                want.name
            );
            let bound = field(got, "bound").as_f64().unwrap();
            assert_eq!(bound, want.bound, "{}", want.name);
            assert!((0.0..=0.25).contains(&bound), "{}", want.name);
        } else {
            assert_eq!(keys(got), ["name", "unit", "better"], "{}", want.name);
        }
        assert!(want.unit.len() <= 16, "{}", want.name);
    }
}

#[test]
fn benchmark_json_lists_exactly_what_the_binary_prints() {
    let root = benchmark_json();
    assert_eq!(
        keys(&root),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let workloads = items(&root, "workloads");
    assert_eq!(workloads.len(), spec::WORKLOADS.len());
    for (got, (name, why)) in workloads.iter().zip(spec::WORKLOADS) {
        assert_eq!(keys(got), ["name", "why"]);
        assert_eq!(text(got, "name"), *name);
        assert_eq!(text(got, "why"), *why);
        assert!(spec::well_formed(name));
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{name}: why is one short line"
        );
    }

    assert_table(items(&root, "end_to_end"), spec::END_TO_END, true);
    assert_table(items(&root, "per_layer"), spec::PER_LAYER, false);

    // One name, one meaning — across both tables and the workloads.
    let mut names: Vec<&str> = spec::END_TO_END
        .iter()
        .chain(spec::PER_LAYER)
        .map(|m| m.name)
        .chain(spec::WORKLOADS.iter().map(|(n, _)| *n))
        .collect();
    names.sort_unstable();
    let before = names.len();
    names.dedup();
    assert_eq!(names.len(), before, "a name is used twice");

    // The contract's own demands on the tables.
    let setup = spec::find("setup_s").expect("setup_s is an end-to-end metric");
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    let widest = spec::END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
    assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
    let seconds = field(&root, "run_seconds").as_u64().unwrap();
    assert!((1..=60).contains(&seconds));
    assert_eq!(items(&root, "paths").len(), 1);
    assert_eq!(items(&root, "paths")[0], Value::Str("benchmark".into()));

    // Every layer prefix has a prediction attached.
    for m in spec::PER_LAYER {
        let layer = m.name.split('.').next().unwrap();
        assert!(
            spec::LAYER_MOVES.iter().any(|(l, _)| *l == layer),
            "{} has no entry in LAYER_MOVES",
            m.name
        );
    }
}
