//! Carry-save `7 → 3` operand reduction (paper §III-D3).
//!
//! A classic carry-save adder reduces three operands to two with no carry
//! propagation. The CORUSCANT polymorphic gate generalizes this: one
//! transverse read across up to TRD stacked rows yields, per bitline, the
//! three binary digits of the ones-count — a sum row `S`, a carry row `C`
//! (weight 2, routed one bitline left) and a super-carry row `C'` (weight
//! 4, routed two bitlines left). Seven rows collapse to three in O(1),
//! with **no sequential carry chain**, and the reduction can ingest its own
//! previous outputs until at most `TRD − 2` operands remain for a final
//! chained addition. This is what makes CORUSCANT multiplication O(n).
//!
//! At TRD = 3 the gate degenerates to the classic `3 → 2` carry-save step
//! (no super-carry is possible).
//!
//! Cost: 1 TR + 1 simultaneous `S`/`C` port write + 1 domain shift + 1
//! `C'` write = 4 cycles for TRD ≥ 4 (the paper's 4-cycle O(1) reduction),
//! or 2 cycles for the `3 → 2` step.
//!
//! [`CsaReducer::reduce`] checks its operands, aligns the window and runs
//! the step as one plane kernel, [`Dbc::csa_step`]: the multiplier, the
//! `Reduce` opcode and `arith::sum_rows` all reach it there.

use crate::{PimError, Result};
use coruscant_mem::Dbc;
use coruscant_racetrack::{CostMeter, PortId};

/// The output rows of one reduction step (DBC row indices).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reduced {
    /// Row holding the sum bits (weight 1).
    pub s: usize,
    /// Row holding the carry bits (weight 2, already shifted one bitline).
    pub c: usize,
    /// Row holding the super-carry bits (weight 4, already shifted two
    /// bitlines); absent at TRD = 3.
    pub cp: Option<usize>,
}

impl Reduced {
    /// The live output rows as a vector.
    pub fn rows(&self) -> Vec<usize> {
        let mut v = vec![self.s, self.c];
        if let Some(cp) = self.cp {
            v.push(cp);
        }
        v
    }
}

/// Executes carry-save reductions on a PIM-enabled DBC.
#[derive(Debug, Clone)]
pub struct CsaReducer {
    trd: usize,
}

impl CsaReducer {
    /// Creates a reducer for the given TRD.
    pub fn new(trd: usize) -> CsaReducer {
        CsaReducer { trd }
    }

    /// How many rows one reduction consumes (up to TRD) and produces
    /// (3, or 2 at TRD = 3).
    pub fn outputs(&self) -> usize {
        if self.trd >= 4 {
            3
        } else {
            2
        }
    }

    /// Reduces the `t` rows at `base..base + t` to `S`/`C`/`C'` rows:
    /// `S` lands at row `base` (left port), `C` at row `base + trd − 1`
    /// (right port), and `C'` at row `base − 1` (left port after a domain
    /// shift). Unused segment positions `base + t..base + trd − 1` must
    /// hold zeros.
    ///
    /// Carries are routed with the logical-shift interconnect: the carry
    /// computed at bitline `w` lands at bitline `w + 1` of the `C` row
    /// (weight 2) and the super-carry at `w + 2` of the `C'` row, dropped
    /// at `blocksize` lane boundaries.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::TooManyOperands`] if `t > trd`,
    /// [`PimError::TooFewOperands`] if `t < 3`, a block-size error, or a
    /// memory error (including `base == 0` at TRD ≥ 4, where the
    /// super-carry row `base − 1` does not exist).
    pub fn reduce(
        &self,
        dbc: &mut Dbc,
        base: usize,
        t: usize,
        blocksize: usize,
        meter: &mut CostMeter,
    ) -> Result<Reduced> {
        crate::add::validate_blocksize(blocksize, dbc.width())?;
        if !dbc.is_pim() {
            return Err(PimError::NotPim);
        }
        if t > self.trd {
            return Err(PimError::TooManyOperands {
                requested: t,
                max: self.trd,
            });
        }
        if t < 3 {
            return Err(PimError::TooFewOperands {
                requested: t,
                min: 3,
            });
        }
        let needs_cp = self.trd >= 4;
        if needs_cp && base == 0 {
            return Err(PimError::Mem(coruscant_mem::MemError::RowOutOfRange {
                row: 0,
                rows: dbc.rows(),
            }));
        }

        // Align the window (row `base` under the left port), then one
        // transverse read, the S/C writes and, above TRD 3, the shift that
        // brings row base − 1 under the left port for C'.
        dbc.align_row(base, PortId::LEFT, meter)?;
        dbc.csa_step(blocksize, needs_cp, meter)?;
        Ok(Reduced {
            s: base,
            c: base + self.trd - 1,
            cp: needs_cp.then(|| base - 1),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::add::MultiOperandAdder;
    use coruscant_mem::{MemoryConfig, Row};

    fn setup(trd: usize) -> (Dbc, CsaReducer) {
        let config = MemoryConfig::tiny().with_trd(trd);
        (Dbc::pim_enabled(&config), CsaReducer::new(trd))
    }

    fn place(dbc: &mut Dbc, base: usize, rows: &[Row], trd: usize) {
        for (i, r) in rows.iter().enumerate() {
            dbc.poke_row(base + i, r).unwrap();
        }
        for i in rows.len()..trd {
            dbc.poke_row(base + i, &Row::zeros(dbc.width())).unwrap();
        }
    }

    #[test]
    fn seven_to_three_preserves_sum() {
        let (mut dbc, red) = setup(7);
        let inputs: Vec<Row> = [
            [200u64, 1, 50, 255, 0, 99, 3, 128],
            [100, 2, 50, 255, 1, 99, 3, 128],
            [55, 3, 50, 255, 2, 99, 3, 128],
            [12, 4, 50, 0, 3, 99, 3, 128],
            [7, 5, 50, 0, 4, 99, 3, 128],
            [3, 6, 50, 0, 5, 99, 3, 128],
            [1, 7, 50, 0, 6, 99, 3, 128],
        ]
        .iter()
        .map(|v| Row::pack(64, 8, v))
        .collect();
        place(&mut dbc, 2, &inputs, 7);
        // Pre-align so the meter sees only the reduction itself (in steady
        // state the window is already at the ports).
        dbc.align_row(2, PortId::LEFT, &mut CostMeter::new())
            .unwrap();
        let mut m = CostMeter::new();
        let out = red.reduce(&mut dbc, 2, 7, 8, &mut m).unwrap();
        assert_eq!(m.total().cycles, 4, "O(1) reduction is 4 cycles");

        let s = dbc.peek_row(out.s).unwrap().unpack(8);
        let c = dbc.peek_row(out.c).unwrap().unpack(8);
        let cp = dbc.peek_row(out.cp.unwrap()).unwrap().unpack(8);
        let want = MultiOperandAdder::reference(&inputs, 8).unpack(8);
        for lane in 0..8 {
            let got = (s[lane] + c[lane] + cp[lane]) & 0xFF;
            assert_eq!(got, want[lane], "lane {lane}");
        }
    }

    #[test]
    fn reduction_accepts_fewer_rows_with_zero_padding() {
        let (mut dbc, red) = setup(7);
        let inputs: Vec<Row> = (1..=4u64).map(|k| Row::pack(64, 8, &[k * 31; 8])).collect();
        place(&mut dbc, 3, &inputs, 7);
        let out = red
            .reduce(&mut dbc, 3, 4, 8, &mut CostMeter::new())
            .unwrap();
        let s = dbc.peek_row(out.s).unwrap().unpack(8);
        let c = dbc.peek_row(out.c).unwrap().unpack(8);
        let cp = dbc.peek_row(out.cp.unwrap()).unwrap().unpack(8);
        let want = MultiOperandAdder::reference(&inputs, 8).unpack(8);
        for lane in 0..8 {
            assert_eq!((s[lane] + c[lane] + cp[lane]) & 0xFF, want[lane]);
        }
    }

    #[test]
    fn three_to_two_at_trd3() {
        let (mut dbc, red) = setup(3);
        assert_eq!(red.outputs(), 2);
        let inputs: Vec<Row> = [[77u64; 8], [88; 8], [99; 8]]
            .iter()
            .map(|v| Row::pack(64, 8, v))
            .collect();
        place(&mut dbc, 4, &inputs, 3);
        dbc.align_row(4, PortId::LEFT, &mut CostMeter::new())
            .unwrap();
        let mut m = CostMeter::new();
        let out = red.reduce(&mut dbc, 4, 3, 8, &mut m).unwrap();
        assert_eq!(out.cp, None);
        assert_eq!(m.total().cycles, 2, "3→2 step: TR + S/C write");
        let s = dbc.peek_row(out.s).unwrap().unpack(8);
        let c = dbc.peek_row(out.c).unwrap().unpack(8);
        for lane in 0..8 {
            assert_eq!((s[lane] + c[lane]) & 0xFF, (77 + 88 + 99) & 0xFF);
        }
    }

    #[test]
    fn repeated_reduction_converges() {
        // Feed outputs back in: 7 rows -> 3, pad with 4 fresh rows -> 7 -> 3.
        let (mut dbc, red) = setup(7);
        let batch1: Vec<Row> = (1..=7u64)
            .map(|k| Row::pack(64, 16, &[k * 1000; 4]))
            .collect();
        place(&mut dbc, 2, &batch1, 7);
        let out1 = red
            .reduce(&mut dbc, 2, 7, 16, &mut CostMeter::new())
            .unwrap();

        // Gather outputs and 4 fresh rows into a new window at base 10.
        let fresh: Vec<Row> = (8..=11u64)
            .map(|k| Row::pack(64, 16, &[k * 1000; 4]))
            .collect();
        let mut all_inputs = batch1.clone();
        all_inputs.extend(fresh.iter().cloned());

        let mut window = Vec::new();
        for r in out1.rows() {
            window.push(dbc.peek_row(r).unwrap());
        }
        window.extend(fresh);
        place(&mut dbc, 10, &window, 7);
        let out2 = red
            .reduce(&mut dbc, 10, 7, 16, &mut CostMeter::new())
            .unwrap();

        let s = dbc.peek_row(out2.s).unwrap().unpack(16);
        let c = dbc.peek_row(out2.c).unwrap().unpack(16);
        let cp = dbc.peek_row(out2.cp.unwrap()).unwrap().unpack(16);
        let want = MultiOperandAdder::reference(&all_inputs, 16).unpack(16);
        for lane in 0..4 {
            assert_eq!((s[lane] + c[lane] + cp[lane]) & 0xFFFF, want[lane]);
        }
    }

    #[test]
    fn errors() {
        let (mut dbc, red) = setup(7);
        let mut m = CostMeter::new();
        assert!(matches!(
            red.reduce(&mut dbc, 1, 8, 8, &mut m),
            Err(PimError::TooManyOperands { .. })
        ));
        assert!(matches!(
            red.reduce(&mut dbc, 1, 2, 8, &mut m),
            Err(PimError::TooFewOperands { .. })
        ));
        // base 0 leaves nowhere for C'.
        assert!(red.reduce(&mut dbc, 0, 7, 8, &mut m).is_err());
        // Storage DBC.
        let mut st = Dbc::storage(&MemoryConfig::tiny());
        assert!(matches!(
            red.reduce(&mut st, 1, 7, 8, &mut m),
            Err(PimError::NotPim)
        ));
    }
}
