//! What one run found: named samples with their per-round raw values,
//! printed as `name workload value unit` lines, saved with a provenance
//! header, and summarised in the one-line result the driver reads.

use crate::spec::{self, MetricSpec};
use crate::stats;
use serde::json::Value;

/// One measured value.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// The reported value (median of `rounds` when there are any).
    pub value: Value,
    /// Per-round raw values, in round order.
    pub rounds: Vec<f64>,
}

/// Everything a run reports.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// The workload that ran.
    pub workload: String,
    /// Samples in the order they were recorded.
    pub samples: Vec<Sample>,
    /// Jobs attempted in the timed rounds.
    pub attempted: u64,
    /// Jobs that were rejected, shed, expired, failed, lost or returned
    /// a wrong output.
    pub failed: u64,
    /// Why the run is not `correct`, if it is not.
    pub problems: Vec<String>,
}

/// The shim's writer takes a `Serialize`, which its own [`Value`] is
/// not; this hands a finished tree through.
struct Tree<'a>(&'a Value);

impl serde::Serialize for Tree<'_> {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// Compact JSON text of a value tree.
#[must_use]
pub fn json_text(value: &Value) -> String {
    serde::json::to_string(&Tree(value))
}

fn number(v: f64) -> Value {
    Value::F64(v)
}

impl Report {
    fn push(&mut self, name: &str, unit: &str, value: Value, rounds: Vec<f64>) {
        assert!(
            spec::well_formed(name),
            "metric name {name:?} breaks the benchmark contract"
        );
        self.samples.retain(|s| s.name != name);
        self.samples.push(Sample {
            name: name.into(),
            unit: unit.into(),
            value,
            rounds,
        });
    }

    fn spec_of(name: &str) -> &'static MetricSpec {
        spec::find(name).unwrap_or_else(|| panic!("{name} is not in the metric tables"))
    }

    /// Records a metric from the tables (unit comes from there).
    pub fn set(&mut self, name: &str, value: f64) {
        self.push(name, Self::spec_of(name).unit, number(value), Vec::new());
    }

    /// Records an exact count or modeled value.
    pub fn set_exact(&mut self, name: &str, value: u64) {
        self.push(
            name,
            Self::spec_of(name).unit,
            Value::U64(value),
            Vec::new(),
        );
    }

    /// Records a host-time metric as the median of its rounds, keeping
    /// the raw values.
    pub fn set_rounds(&mut self, name: &str, rounds: &[f64]) {
        self.push(
            name,
            Self::spec_of(name).unit,
            number(stats::median(rounds)),
            rounds.to_vec(),
        );
    }

    /// Records a value that is not one of the contract's metrics
    /// (sample counts, shares) — printed and saved, never judged.
    pub fn info(&mut self, name: &str, unit: &str, value: f64) {
        self.push(name, unit, number(value), Vec::new());
    }

    /// [`Report::info`] with the raw per-round values kept.
    pub fn info_rounds(&mut self, name: &str, unit: &str, rounds: &[f64]) {
        self.push(name, unit, number(stats::median(rounds)), rounds.to_vec());
    }

    /// The recorded value of `name`, if any.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.name == name)
            .and_then(|s| s.value.as_f64().ok())
    }

    /// The recorded value of `name`, or 0 when the workload does not
    /// cross that layer.
    #[must_use]
    pub fn get_or_zero(&self, name: &str) -> f64 {
        self.get(name).unwrap_or(0.0)
    }

    /// Per-layer metrics nothing recorded read 0: the workload never
    /// called that layer.
    pub fn zero_fill_layers(&mut self) {
        for m in spec::PER_LAYER {
            if self.get(m.name).is_none() {
                self.push(m.name, m.unit, Value::U64(0), Vec::new());
            }
        }
    }

    /// Notes a reason the run is wrong.
    pub fn problem(&mut self, why: impl Into<String>) {
        self.problems.push(why.into());
    }

    /// Whether every output checked out and no job failed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// `failed ÷ attempted`.
    #[must_use]
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed as f64 / self.attempted as f64
    }

    /// One `name workload value unit` line per sample.
    #[must_use]
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for s in &self.samples {
            let value = json_text(&s.value);
            out.push_str(&format!(
                "{} {} {} {}\n",
                s.name, self.workload, value, s.unit
            ));
        }
        out
    }

    /// The last line of standard output: `correct`, `attempted`,
    /// `failed` and exactly the metrics of `wanted`.
    ///
    /// # Panics
    ///
    /// Panics if a wanted metric was never recorded — the run would
    /// otherwise silently break the driver's contract.
    #[must_use]
    pub fn result_line(&self, wanted: &[MetricSpec]) -> String {
        let metrics = wanted
            .iter()
            .map(|m| {
                let s = self
                    .samples
                    .iter()
                    .find(|s| s.name == m.name)
                    .unwrap_or_else(|| panic!("{} was not measured", m.name));
                (
                    s.name.clone(),
                    Value::Object(vec![
                        ("value".into(), s.value.clone()),
                        ("unit".into(), Value::Str(s.unit.clone())),
                    ]),
                )
            })
            .collect();
        json_text(&Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::U64(self.attempted.max(1))),
            ("failed".into(), Value::U64(self.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ]))
    }

    /// The saved form of the run: `header` (seed, host, toolchain, round
    /// counts) followed by every sample with its raw rounds.
    #[must_use]
    pub fn to_json(&self, header: Vec<(String, Value)>) -> Value {
        let metrics = self
            .samples
            .iter()
            .map(|s| {
                let mut fields = vec![
                    ("value".into(), s.value.clone()),
                    ("unit".into(), Value::Str(s.unit.clone())),
                ];
                if !s.rounds.is_empty() {
                    let fold =
                        |f: fn(f64, f64) -> f64, init| s.rounds.iter().copied().fold(init, f);
                    fields.extend([
                        ("min".into(), number(fold(f64::min, f64::MAX))),
                        ("median".into(), number(stats::median(&s.rounds))),
                        ("max".into(), number(fold(f64::max, f64::MIN))),
                        ("spread_pct".into(), number(stats::spread_pct(&s.rounds))),
                        (
                            "rounds".into(),
                            Value::Array(s.rounds.iter().map(|&r| number(r)).collect()),
                        ),
                    ]);
                }
                (s.name.clone(), Value::Object(fields))
            })
            .collect();
        let mut fields = vec![("workload".into(), Value::Str(self.workload.clone()))];
        fields.extend(header);
        fields.extend([
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::U64(self.attempted)),
            ("failed".into(), Value::U64(self.failed)),
            ("failed_share".into(), number(self.failed_share())),
            (
                "problems".into(),
                Value::Array(self.problems.iter().cloned().map(Value::Str).collect()),
            ),
            ("metrics".into(), Value::Object(metrics)),
        ]);
        Value::Object(fields)
    }
}
