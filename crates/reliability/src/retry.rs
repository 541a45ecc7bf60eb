//! Analytic model of the runtime's re-execute-and-compare protection.
//!
//! The runtime's `Reexecute` policy runs a job **twice** and compares the
//! raw readout rows; a mismatch counts one detected fault and triggers
//! another pair, up to `max_retries` extra pairs. These closed forms
//! predict the counters the runtime reports, so fault campaigns can
//! cross-check the implementation against the model (the same way
//! [`montecarlo`](crate::montecarlo) cross-checks Table V).
//!
//! All formulas are parameterized on `p_pair` — the probability that one
//! compare-pair *mismatches* — which [`p_pair_mismatch`] derives from the
//! per-execution corruption probability.

/// Probability that a single program execution produces at least one
/// corrupted readout row, given a per-draw fault probability `p` and `d`
/// independent fault draws per execution (one draw per sensed nanowire
/// per faultable operation).
///
/// Assumes every fault lands in a readout-visible row — exact for
/// programs whose operations all feed the readouts, conservative
/// otherwise.
pub fn p_exec_corrupt(p: f64, d: u64) -> f64 {
    1.0 - (1.0 - p).powi(i32::try_from(d).unwrap_or(i32::MAX))
}

/// Probability that one compare-pair mismatches, given the
/// per-execution corruption probability `p_exec`.
///
/// A pair *matches* only when both runs are clean, or both corrupt the
/// exact same bits; the second event is negligible at realistic rates,
/// so `p_pair ≈ 1 − (1 − p_exec)²`.
pub fn p_pair_mismatch(p_exec: f64) -> f64 {
    1.0 - (1.0 - p_exec) * (1.0 - p_exec)
}

/// Expected number of *extra* compare-pairs (retries) a job runs under
/// `Reexecute { max_retries }`, given pair-mismatch probability `p_pair`:
/// `Σ_{j=1..R} p_pair^j` — retry `j` happens only if the first `j` pairs
/// all mismatched.
pub fn expected_retries(p_pair: f64, max_retries: u32) -> f64 {
    (1..=max_retries).map(|j| p_pair.powi(j as i32)).sum()
}

/// Expected number of detected faults (mismatching pairs) per job under
/// `Reexecute { max_retries }`: `Σ_{j=1..R+1} p_pair^j` — pair `j` runs
/// only if the previous `j − 1` mismatched, and itself mismatches with
/// probability `p_pair`.
pub fn expected_faults_detected(p_pair: f64, max_retries: u32) -> f64 {
    (1..=max_retries + 1).map(|j| p_pair.powi(j as i32)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_corruption_compounds_over_draws() {
        assert!(p_exec_corrupt(0.0, 100).abs() < 1e-12);
        assert!((p_exec_corrupt(1.0, 1) - 1.0).abs() < 1e-12);
        // Small-p regime: ≈ p·d.
        let p = 1e-5;
        let d = 100;
        let exact = p_exec_corrupt(p, d);
        assert!((exact - p * d as f64).abs() / exact < 1e-2);
        // Monotone in d.
        assert!(p_exec_corrupt(p, 200) > exact);
    }

    #[test]
    fn pair_mismatch_doubles_small_rates() {
        let p = 1e-4;
        let pair = p_pair_mismatch(p);
        assert!((pair - 2.0 * p).abs() / pair < 1e-3);
        assert!((p_pair_mismatch(1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn retry_series_matches_geometric_expansion() {
        let p = 0.1;
        // R = 2: E[retries] = p + p².
        assert!((expected_retries(p, 2) - (p + p * p)).abs() < 1e-12);
        // E[faults] = p + p² + p³.
        assert!((expected_faults_detected(p, 2) - (p + p * p + p * p * p)).abs() < 1e-12);
    }

    #[test]
    fn zero_rate_needs_no_retries() {
        assert_eq!(expected_retries(0.0, 5), 0.0);
        assert_eq!(expected_faults_detected(0.0, 5), 0.0);
    }
}
