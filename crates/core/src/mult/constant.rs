//! Constant multiplication via canonical-signed-digit decomposition
//! (paper §III-D1).
//!
//! When the multiplier is a compile-time constant, it is recoded in the
//! canonical signed-digit (CSD / Booth-style) form with digits in
//! {−1, 0, +1} ("N", "O", "P" in the paper), which minimizes the nonzero
//! terms. The nonzero digits are then grouped into chunks of at most
//! `TRD − 2` terms, each chunk resolved by one multi-operand addition of
//! (possibly negated) shifted copies of the multiplicand. Negated terms
//! cost no extra addition: `−X` enters the chunk as `NOT X` plus a `+1` in
//! a free operand slot (two's complement), as the paper's 20061·A example
//! shows — two addition steps instead of twenty thousand.

use crate::add::MultiOperandAdder;
use crate::shift_logic::write_shifted_copy;
use crate::{PimError, Result};
use coruscant_mem::{Dbc, Row};
use coruscant_racetrack::CostMeter;
use serde::{Deserialize, Serialize};

/// One signed power-of-two term of a decomposition: `sign * (x << shift)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CsdTerm {
    /// `+1` or `-1`.
    pub sign: i8,
    /// Left-shift amount.
    pub shift: u32,
}

/// Recodes `c` into canonical signed-digit form, least-significant first.
///
/// The returned digits `d_i ∈ {−1, 0, 1}` satisfy `c = Σ d_i · 2^i` and no
/// two adjacent digits are both nonzero (the canonical property, which
/// guarantees the minimal nonzero count).
pub fn csd_digits(c: u64) -> Vec<i8> {
    let mut digits = Vec::new();
    let mut x = u128::from(c);
    while x != 0 {
        if x & 1 == 1 {
            // Choose +1 or -1 so the remaining value becomes even with a
            // trailing zero run: look at the next bit.
            if x & 2 == 2 {
                digits.push(-1);
                x += 1; // consumed a -1: add it back
            } else {
                digits.push(1);
                x -= 1;
            }
        } else {
            digits.push(0);
        }
        x >>= 1;
    }
    digits
}

/// The nonzero terms of the CSD form of `c`.
pub fn csd_terms(c: u64) -> Vec<CsdTerm> {
    csd_digits(c)
        .into_iter()
        .enumerate()
        .filter(|&(_, d)| d != 0)
        .map(|(i, d)| CsdTerm {
            sign: d,
            shift: i as u32,
        })
        .collect()
}

/// A compiled plan for multiplying by a constant: a sequence of
/// multi-operand addition steps over shifted/negated copies.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConstantPlan {
    constant: u64,
    terms: Vec<CsdTerm>,
    max_operands: usize,
}

impl ConstantPlan {
    /// Compiles a plan for `constant` on a machine that can add
    /// `max_operands` values per step (`TRD − 2`).
    ///
    /// # Errors
    ///
    /// Returns [`PimError::TooFewOperands`] if `max_operands < 2`.
    pub fn compile(constant: u64, max_operands: usize) -> Result<ConstantPlan> {
        if max_operands < 2 {
            return Err(PimError::TooFewOperands {
                requested: max_operands,
                min: 2,
            });
        }
        Ok(ConstantPlan {
            constant,
            terms: csd_terms(constant),
            max_operands,
        })
    }

    /// The constant this plan computes.
    pub fn constant(&self) -> u64 {
        self.constant
    }

    /// The signed power-of-two terms.
    pub fn terms(&self) -> &[CsdTerm] {
        &self.terms
    }

    /// Number of nonzero CSD terms.
    pub fn nonzero_terms(&self) -> usize {
        self.terms.len()
    }

    /// Number of multi-operand addition steps the plan needs: each step
    /// folds up to `max_operands − 1` new terms into the running partial
    /// result (the first step takes `max_operands` fresh terms).
    pub fn addition_steps(&self) -> usize {
        let t = self.terms.len();
        match t {
            0 | 1 => 0,
            _ => {
                let first = self.max_operands.min(t);
                let rest = t - first;
                1 + rest.div_ceil(self.max_operands - 1)
            }
        }
    }

    /// Evaluates the plan arithmetically (the functional model): computes
    /// `constant * x (mod 2^bits)` by the planned sequence of grouped
    /// signed additions.
    pub fn evaluate(&self, x: u64, bits: u32) -> u64 {
        let mask = if bits >= 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        };
        let term_val = |t: &CsdTerm| -> u64 {
            let shifted = if t.shift >= 64 {
                0
            } else {
                x.wrapping_shl(t.shift)
            } & mask;
            if t.sign > 0 {
                shifted
            } else {
                // Two's complement negation within the lane.
                (!shifted).wrapping_add(1) & mask
            }
        };
        if self.terms.is_empty() {
            return 0;
        }
        let mut acc = 0u64;
        let mut i = 0;
        let mut first = true;
        while i < self.terms.len() {
            let take = if first {
                self.max_operands.min(self.terms.len() - i)
            } else {
                (self.max_operands - 1).min(self.terms.len() - i)
            };
            for t in &self.terms[i..i + take] {
                acc = acc.wrapping_add(term_val(t)) & mask;
            }
            i += take;
            first = false;
        }
        acc
    }
}

/// Executes a [`ConstantPlan`] on a PIM-enabled DBC: shifted copies of
/// the multiplicand are materialized through the neighbour-forwarding
/// interconnect, negative terms enter as `NOT X` with a merged `+1`
/// constant row (two's complement), and the grouped multi-operand
/// additions fold everything into the product — the paper's two-step
/// `20061·A` schedule, on real rows.
#[derive(Debug, Clone)]
pub struct ConstantMultiplier {
    trd: usize,
}

impl ConstantMultiplier {
    /// Creates an executor for the configuration's TRD.
    pub fn new(config: &coruscant_mem::MemoryConfig) -> ConstantMultiplier {
        ConstantMultiplier { trd: config.trd }
    }

    /// Creates an executor for an explicit TRD.
    pub fn with_trd(trd: usize) -> ConstantMultiplier {
        ConstantMultiplier { trd }
    }

    /// Computes `plan.constant() * a` per `lane`-bit lane on the DBC.
    ///
    /// DBC scratch layout: rows `0..=trd` are the addition window, rows
    /// above stage the multiplicand and the current chunk's term rows.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::NotPim`], a block-size error, or a memory
    /// error if the DBC has too few rows for the staging area.
    pub fn execute(
        &self,
        dbc: &mut Dbc,
        plan: &ConstantPlan,
        a: &Row,
        lane: usize,
        meter: &mut CostMeter,
    ) -> Result<Row> {
        crate::add::validate_blocksize(lane, dbc.width())?;
        if !dbc.is_pim() {
            return Err(PimError::NotPim);
        }
        let width = dbc.width();
        let lanes = width / lane;
        let max_ops = MultiOperandAdder::with_trd(self.trd).max_operands();

        // Trivial constants: 0 and powers of two need no addition.
        match plan.terms() {
            [] => return Ok(Row::zeros(width)),
            [t] if t.sign > 0 => {
                // One shifted copy; bill the shifted writes.
                let a_row = self.trd + 1;
                dbc.write_row(a_row, a, meter)?;
                let out = self.trd + 2;
                write_shifted_copy(dbc, a_row, out, t.shift as usize, lane, meter)?;
                return dbc.peek_row(out).map_err(PimError::from);
            }
            _ => {}
        }

        // Stage the multiplicand once.
        let a_row = self.trd + 1;
        let term_base = self.trd + 2;
        if term_base + max_ops + 1 > dbc.rows() {
            return Err(PimError::Mem(coruscant_mem::MemError::RowOutOfRange {
                row: term_base + max_ops,
                rows: dbc.rows(),
            }));
        }
        dbc.write_row(a_row, a, meter)?;

        let adder = MultiOperandAdder::with_trd(self.trd);
        let mut partial: Option<Row> = None;
        let mut remaining = plan.terms().to_vec();

        while !remaining.is_empty() {
            // Slots available this chunk: the partial sum takes one.
            let reserved = usize::from(partial.is_some());
            // Decide how many terms fit: negatives need one shared
            // constant-row slot.
            let mut take = (max_ops - reserved).min(remaining.len());
            loop {
                let negs = remaining[..take].iter().filter(|t| t.sign < 0).count();
                let needs_const = usize::from(negs > 0);
                if reserved + take + needs_const <= max_ops || take == 1 {
                    break;
                }
                take -= 1;
            }
            let chunk: Vec<CsdTerm> = remaining.drain(..take).collect();
            let negs = chunk.iter().filter(|t| t.sign < 0).count();

            // Materialize the chunk's operand rows.
            let mut operands: Vec<Row> = Vec::with_capacity(max_ops);
            if let Some(p) = partial.take() {
                operands.push(p);
            }
            for (i, t) in chunk.iter().enumerate() {
                let dst = term_base + i;
                write_shifted_copy(dbc, a_row, dst, t.shift as usize, lane, meter)?;
                let mut row = dbc.peek_row(dst)?;
                if t.sign < 0 {
                    // NOT through the inverted sense path: one extra
                    // read/write pair.
                    row = !&row;
                    dbc.write_row(dst, &row, meter)?;
                }
                operands.push(row);
            }
            if negs > 0 {
                // The merged two's-complement "+1"s: value = #negatives
                // in every lane (a preset constant row).
                operands.push(Row::pack(width, lane, &vec![negs as u64; lanes]));
            }

            partial = Some(if operands.len() == 1 {
                operands.pop().expect("nonempty")
            } else {
                adder.add_rows_at(dbc, &operands, 1, lane, meter)?
            });
        }
        Ok(partial.expect("nonzero constant has terms"))
    }

    /// Reference: `c * x` per lane, truncated (oracle).
    pub fn reference(c: u64, a: &Row, lane: usize) -> Row {
        let mask = if lane >= 64 {
            u64::MAX
        } else {
            (1u64 << lane) - 1
        };
        let vals: Vec<u64> = a
            .unpack(lane)
            .into_iter()
            .map(|x| c.wrapping_mul(x) & mask)
            .collect();
        Row::pack(a.width(), lane, &vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digits_reconstruct_constant() {
        for c in [0u64, 1, 2, 3, 20061, 515, 0xFFFF, 0xAAAA, u32::MAX as u64] {
            let digits = csd_digits(c);
            let mut v: i128 = 0;
            for (i, d) in digits.iter().enumerate() {
                v += i128::from(*d) << i;
            }
            assert_eq!(v, c as i128, "constant {c}");
        }
    }

    #[test]
    fn csd_has_no_adjacent_nonzeros() {
        for c in [20061u64, 515, 0b111111, 0xDEAD, 12345678] {
            let d = csd_digits(c);
            for w in d.windows(2) {
                assert!(
                    w[0] == 0 || w[1] == 0,
                    "adjacent nonzero digits for {c}: {d:?}"
                );
            }
        }
    }

    #[test]
    fn csd_beats_or_ties_binary_weight() {
        for c in 1u64..2000 {
            let nz = csd_terms(c).len();
            assert!(nz <= c.count_ones() as usize, "constant {c}");
        }
    }

    #[test]
    fn paper_example_20061_takes_two_steps() {
        // The paper computes 20061·A in two addition steps at TRD = 7
        // (max 5 operands), using a 7-nonzero-digit signed encoding
        // ("POPOONOPONOONOP"). Our NAF recoding also yields 7 nonzero
        // digits — better than the 9 ones of plain binary — and the same
        // two-step schedule: the first add folds 5 terms, the second folds
        // the remaining 2 into the running sum.
        let plan = ConstantPlan::compile(20061, 5).unwrap();
        assert_eq!(plan.nonzero_terms(), 7);
        assert!(plan.nonzero_terms() < 20061u64.count_ones() as usize + 2);
        assert_eq!(plan.addition_steps(), 2);
    }

    #[test]
    fn evaluate_matches_product() {
        for c in [0u64, 1, 3, 20061, 515, 255, 4096, 77777] {
            let plan = ConstantPlan::compile(c, 5).unwrap();
            for x in [0u64, 1, 2, 7, 100, 255, 1000, 65535] {
                let got = plan.evaluate(x, 32);
                let want = c.wrapping_mul(x) & 0xFFFF_FFFF;
                assert_eq!(got, want, "c={c} x={x}");
            }
        }
    }

    #[test]
    fn evaluate_matches_product_at_trd3() {
        // max_operands = 2: plain binary chain of signed adds.
        for c in [9u64, 20061, 1023] {
            let plan = ConstantPlan::compile(c, 2).unwrap();
            for x in [1u64, 3, 250] {
                assert_eq!(plan.evaluate(x, 32), c.wrapping_mul(x) & 0xFFFF_FFFF);
            }
        }
    }

    #[test]
    fn steps_scale_inversely_with_operand_count() {
        let c = 0x5555_5555u64; // many nonzero digits
        let s2 = ConstantPlan::compile(c, 2).unwrap().addition_steps();
        let s3 = ConstantPlan::compile(c, 3).unwrap().addition_steps();
        let s5 = ConstantPlan::compile(c, 5).unwrap().addition_steps();
        assert!(s5 < s3 && s3 < s2, "s2={s2} s3={s3} s5={s5}");
    }

    #[test]
    fn trivial_constants() {
        assert_eq!(ConstantPlan::compile(0, 5).unwrap().addition_steps(), 0);
        assert_eq!(ConstantPlan::compile(1, 5).unwrap().addition_steps(), 0);
        assert_eq!(ConstantPlan::compile(4, 5).unwrap().addition_steps(), 0);
        assert_eq!(ConstantPlan::compile(0, 5).unwrap().evaluate(99, 32), 0);
        assert_eq!(ConstantPlan::compile(4, 5).unwrap().evaluate(9, 32), 36);
    }

    #[test]
    fn rejects_degenerate_machine() {
        assert!(ConstantPlan::compile(7, 1).is_err());
    }

    mod device_execution {
        use super::super::*;
        use coruscant_mem::MemoryConfig;

        fn run(c: u64, values: &[u64], lane: usize, trd: usize) -> (Vec<u64>, u64) {
            let config = MemoryConfig::tiny().with_trd(trd);
            let max_ops = config.max_add_operands();
            let plan = ConstantPlan::compile(c, max_ops).unwrap();
            let exec = ConstantMultiplier::new(&config);
            let a = Row::pack(64, lane, values);
            let mut dbc = Dbc::pim_enabled(&config);
            let mut meter = CostMeter::new();
            let got = exec.execute(&mut dbc, &plan, &a, lane, &mut meter).unwrap();
            (got.unpack(lane), meter.total().cycles)
        }

        #[test]
        fn paper_example_20061() {
            let values = [3u64, 1, 100, 0];
            let (got, cycles) = run(20061, &values, 16, 7);
            for (lane, &x) in values.iter().enumerate() {
                assert_eq!(got[lane], (20061 * x) & 0xFFFF, "lane {lane}");
            }
            assert!(cycles > 0);
        }

        #[test]
        fn small_constants_across_trds() {
            for trd in [3usize, 5, 7] {
                for c in [0u64, 1, 2, 3, 5, 9, 15, 255] {
                    let values = [7u64, 250, 0, 1];
                    let (got, _) = run(c, &values, 16, trd);
                    for (lane, &x) in values.iter().enumerate() {
                        assert_eq!(got[lane], (c * x) & 0xFFFF, "c={c} trd={trd} lane {lane}");
                    }
                }
            }
        }

        #[test]
        fn negative_heavy_constant() {
            // 0b0111_1111 = 127 recodes as +128 − 1 (one negative term).
            let values = [2u64, 3, 0, 200];
            let (got, _) = run(127, &values, 16, 7);
            for (lane, &x) in values.iter().enumerate() {
                assert_eq!(got[lane], (127 * x) & 0xFFFF);
            }
        }

        #[test]
        fn device_matches_plan_evaluate() {
            let plan = ConstantPlan::compile(333, 5).unwrap();
            let config = MemoryConfig::tiny();
            let exec = ConstantMultiplier::new(&config);
            let values = [9u64, 77, 1, 250];
            let a = Row::pack(64, 16, &values);
            let mut dbc = Dbc::pim_enabled(&config);
            let got = exec
                .execute(&mut dbc, &plan, &a, 16, &mut CostMeter::new())
                .unwrap();
            for (lane, &x) in values.iter().enumerate() {
                assert_eq!(got.unpack(16)[lane], plan.evaluate(x, 16), "lane {lane}");
            }
        }

        #[test]
        fn constant_mult_cheaper_than_general_mult_for_sparse_constants() {
            // A power-of-two-ish constant should beat the general
            // multiplier (the point of §III-D1).
            use crate::mult::Multiplier;
            let config = MemoryConfig::tiny();
            let c = 516u64; // 0b10_0000_0100: two CSD terms
            let values = [3u64, 99, 0, 1];

            let plan = ConstantPlan::compile(c, config.max_add_operands()).unwrap();
            let exec = ConstantMultiplier::new(&config);
            let a = Row::pack(64, 16, &values);
            let mut dbc = Dbc::pim_enabled(&config);
            let mut m_const = CostMeter::new();
            exec.execute(&mut dbc, &plan, &a, 16, &mut m_const).unwrap();

            let mult = Multiplier::new(&config);
            let mut dbc2 = Dbc::pim_enabled(&config);
            let mut m_gen = CostMeter::new();
            let b = vec![c & 0xFF; 4]; // 8-bit general path for comparison
            mult.multiply_values(&mut dbc2, &values, &b, 8, &mut m_gen)
                .unwrap();

            assert!(
                m_const.total().cycles < m_gen.total().cycles,
                "constant {} vs general {}",
                m_const.total().cycles,
                m_gen.total().cycles
            );
        }
    }
}
