//! `--compare a.json b.json`: two saved runs of one workload judged by
//! each end-to-end metric's own bound — [`spec::END_TO_END`], which a
//! test holds equal to `BENCHMARK.json`.

use crate::spec::{self, Better, MetricSpec};
use crate::stats;
use serde::json::Value;
use std::path::Path;

/// Relative difference up to which two values of a metric whose bound is
/// 0 count as equal: `modeled_energy_pj` is a sum of `f64`s. One cycle
/// in a cycle count is far above it.
const EXACT_TOLERANCE: f64 = 1e-9;

/// How far apart (relative) the two runs' `host.speed_factor` may be
/// before their host times stop being comparable. Times are reported at
/// reference host speed through a kernel that slows with the host about
/// as the product does *today*; two runs in like phases compare exactly
/// whatever the kernel, two runs in unlike phases only as well as the
/// kernel still matches the product.
const LIKE_HOSTS: f64 = 0.10;

fn field<'a>(v: &'a Value, name: &str) -> Option<&'a Value> {
    match v {
        Value::Object(entries) => entries.iter().find(|(k, _)| k == name).map(|(_, v)| v),
        _ => None,
    }
}

/// A saved run, reduced to what the comparison needs.
struct Saved {
    workload: String,
    root: Value,
}

impl Saved {
    /// Loads a run and refuses one that is not `correct`: its numbers
    /// measure a stack that returned wrong answers or failed jobs.
    fn load(path: &Path) -> Result<Saved, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let root = serde::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let workload = match field(&root, "workload") {
            Some(Value::Str(w)) => w.clone(),
            _ => return Err(format!("{}: no workload", path.display())),
        };
        if field(&root, "correct") != Some(&Value::Bool(true)) {
            let failed = field(&root, "failed")
                .and_then(|f| f.as_u64().ok())
                .map_or("unknown".into(), |f| f.to_string());
            return Err(format!(
                "{}: the run is not correct (failed jobs: {failed}); nothing to compare",
                path.display()
            ));
        }
        Ok(Saved { workload, root })
    }

    /// (median, per-round values) of a metric; a metric without rounds
    /// is its own single round.
    fn metric(&self, name: &str) -> Option<(f64, Vec<f64>)> {
        let m = field(field(&self.root, "metrics")?, name)?;
        let value = field(m, "value")?.as_f64().ok()?;
        let rounds = match field(m, "rounds") {
            Some(Value::Array(r)) => r.iter().filter_map(|v| v.as_f64().ok()).collect(),
            _ => vec![value],
        };
        Some((value, rounds))
    }
}

/// How one metric fared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b` is no worse than `a` by more than the bound.
    Within,
    /// `b` is worse than `a` by more than the bound.
    Worse,
    /// The rounds of a run spread (interquartile ÷ median) wider than
    /// the bound, and the two runs' rounds overlap: the data cannot say.
    Unresolved,
    /// A host time from two runs whose host-speed factors are further
    /// apart than [`LIKE_HOSTS`]: rerun the pair.
    UnlikeHosts,
}

/// Judges `b` against `a` for one metric, each given as (median,
/// rounds).
#[must_use]
pub fn judge(metric: &MetricSpec, a: (f64, &[f64]), b: (f64, &[f64])) -> Verdict {
    let worse_by = match metric.better {
        Better::Higher => (a.0 - b.0) / a.0.abs(),
        Better::Lower => (b.0 - a.0) / a.0.abs(),
    };
    // Spread as the guides define it: the distance between a run's
    // quartiles over its median. (`round.spread_pct`, the full range, is
    // printed as a flag; with twenty rounds on a shared host one
    // preempted round would make every row unresolved.)
    let iqr = |v: &[f64]| {
        let (q1, q3) = stats::quartiles(v);
        (q3 - q1) / stats::median(v).abs()
    };
    let spread = f64::max(iqr(a.1), iqr(b.1));
    let fold = |v: &[f64], f: fn(f64, f64) -> f64, init| v.iter().copied().fold(init, f);
    // Every round of `b` better than every round of `a` resolves a wide
    // spread in `b`'s favour.
    let b_clearly_better = match metric.better {
        Better::Higher => fold(b.1, f64::min, f64::MAX) > fold(a.1, f64::max, f64::MIN),
        Better::Lower => fold(b.1, f64::max, f64::MIN) < fold(a.1, f64::min, f64::MAX),
    };
    if spread > metric.bound && !b_clearly_better {
        Verdict::Unresolved
    } else if worse_by > metric.bound.max(EXACT_TOLERANCE) {
        Verdict::Worse
    } else {
        Verdict::Within
    }
}

/// Compares two saved runs; prints one row per metric and returns
/// whether none was worse.
///
/// # Errors
///
/// Unreadable or mismatched inputs, or a run that is not `correct`.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (a, b) = (Saved::load(a)?, Saved::load(b)?);
    if a.workload != b.workload {
        return Err(format!(
            "runs of different workloads: {} vs {}",
            a.workload, b.workload
        ));
    }
    let factor = |run: &Saved| run.metric("host.speed_factor").map(|(median, _)| median);
    let (Some(fa), Some(fb)) = (factor(&a), factor(&b)) else {
        return Err("host.speed_factor is missing from a run".into());
    };
    let unlike_hosts = (fa - fb).abs() / fa.min(fb) > LIKE_HOSTS;
    println!(
        "{:<26} {:<14} {:>14} {:>14} {:>14} {:>14} {:>14} {:>14} {:>8} {:>7}  verdict",
        "metric",
        "workload",
        "a.q1",
        "a.median",
        "a.q3",
        "b.q1",
        "b.median",
        "b.q3",
        "change%",
        "bound%"
    );
    let mut ok = true;
    for metric in spec::END_TO_END.iter().chain([&spec::SETUP_FIRST]) {
        let (Some(ma), Some(mb)) = (a.metric(metric.name), b.metric(metric.name)) else {
            return Err(format!("{} is missing from a run", metric.name));
        };
        // Only timed metrics depend on how fast the host was: those that
        // keep their rounds, and the one-shot first set-up.
        let timed = ma.1.len() > 1 || metric.name == spec::SETUP_FIRST.name;
        let verdict = match judge(metric, (ma.0, &ma.1), (mb.0, &mb.1)) {
            Verdict::Within | Verdict::Worse if timed && unlike_hosts => Verdict::UnlikeHosts,
            verdict => verdict,
        };
        ok &= verdict != Verdict::Worse;
        let (qa, qb) = (stats::quartiles(&ma.1), stats::quartiles(&mb.1));
        println!(
            "{:<26} {:<14} {:>14.4} {:>14.4} {:>14.4} {:>14.4} {:>14.4} {:>14.4} {:>+8.2} {:>7.1}  {}",
            metric.name,
            a.workload,
            qa.0,
            ma.0,
            qa.1,
            qb.0,
            mb.0,
            qb.1,
            (mb.0 - ma.0) / ma.0.abs() * 100.0,
            metric.bound * 100.0,
            match verdict {
                Verdict::Within => "within bound",
                Verdict::Worse => "WORSE",
                Verdict::Unresolved => "unresolved (round spread exceeds bound)",
                Verdict::UnlikeHosts => "unresolved (host speed differed between the runs)",
            }
        );
    }
    println!("host.speed_factor: a {fa:.3}, b {fb:.3}");
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m",
            unit: "u",
            better,
            bound,
        }
    }

    #[test]
    fn each_metric_is_judged_by_its_own_bound_and_direction() {
        let hi = metric(Better::Higher, 0.10);
        let steady = |m: f64| vec![m * 0.99, m, m * 1.01];
        let j = |b: &MetricSpec, a: f64, bb: f64| judge(b, (a, &steady(a)), (bb, &steady(bb)));
        assert_eq!(j(&hi, 100.0, 95.0), Verdict::Within);
        assert_eq!(j(&hi, 100.0, 85.0), Verdict::Worse);
        assert_eq!(j(&hi, 100.0, 150.0), Verdict::Within);
        let lo = metric(Better::Lower, 0.10);
        assert_eq!(j(&lo, 100.0, 105.0), Verdict::Within);
        assert_eq!(j(&lo, 100.0, 115.0), Verdict::Worse);
    }

    #[test]
    fn an_exact_metric_allows_only_float_summation_noise() {
        let exact = metric(Better::Lower, 0.0);
        let j = |a: f64, b: f64| judge(&exact, (a, &[a]), (b, &[b]));
        assert_eq!(j(29.0, 29.0), Verdict::Within);
        assert_eq!(j(29.0, 30.0), Verdict::Worse);
        // One cycle in the largest modeled count is still worse…
        assert_eq!(j(380_692.0, 380_693.0), Verdict::Worse);
        // …one unit in the last place of an energy sum is not.
        let energy = 2_264_462.528_f64;
        assert_eq!(
            j(energy, f64::from_bits(energy.to_bits() + 1)),
            Verdict::Within
        );
        assert_eq!(j(energy, energy * (1.0 + 1e-6)), Verdict::Worse);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let hi = metric(Better::Higher, 0.10);
        let noisy = [70.0, 80.0, 100.0, 120.0, 130.0];
        assert_eq!(
            judge(&hi, (100.0, &noisy), (100.0, &[99.0, 100.0, 101.0])),
            Verdict::Unresolved
        );
        // …unless every round of b beats every round of a.
        assert_eq!(
            judge(&hi, (100.0, &noisy), (200.0, &[190.0, 200.0, 210.0])),
            Verdict::Within
        );
    }
}
