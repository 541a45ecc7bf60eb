//! Multi-operand bulk-bitwise operations (paper §III-B, Fig. 5).
//!
//! Up to TRD operand rows sit in the inter-port segment of a PIM DBC; one
//! transverse read per nanowire — all nanowires in parallel — senses the
//! per-bitline ones-count, and the PIM block turns it into OR/NOR, AND/
//! NAND, XOR/XNOR or NOT. Operating on fewer than TRD operands pads the
//! unused segment positions with preset constants (paper Fig. 7): `1`s for
//! AND/NAND, `0`s for the rest.

use crate::pimblock::PimOutputs;
use crate::sense::{at_least, full};
use crate::{PimError, Result};
use coruscant_mem::{Dbc, MemoryConfig, Row, TrCounts};
use coruscant_racetrack::{CostMeter, PortId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A bulk-bitwise operation selectable at the PIM output multiplexer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BulkOp {
    /// Multi-operand AND.
    And,
    /// Multi-operand NAND.
    Nand,
    /// Multi-operand OR.
    Or,
    /// Multi-operand NOR.
    Nor,
    /// Multi-operand XOR (parity).
    Xor,
    /// Multi-operand XNOR.
    Xnor,
    /// Bitwise NOT of a single operand (zero-padded NOR).
    Not,
}

/// Shifts the DBC left (costed) so that at least `needed` domain shifts to
/// the right remain available — placement loops shift right once per
/// operand, and a previous operation may have left the wires near the
/// extremity.
pub(crate) fn ensure_right_slack(
    dbc: &mut Dbc,
    needed: isize,
    meter: &mut CostMeter,
) -> Result<()> {
    let (_, right) = dbc.shift_slack();
    if right < needed {
        dbc.shift_all(-(needed - right), meter)?;
    }
    Ok(())
}

/// The costed operand placement every PIM operation starts with: each row
/// is written through the left port of every wire (one parallel write),
/// and a one-domain shift follows each of the first `shifts` of them.
pub(crate) fn place_rows(
    dbc: &mut Dbc,
    rows: &[Row],
    shifts: usize,
    meter: &mut CostMeter,
) -> Result<()> {
    for (i, row) in rows.iter().enumerate() {
        dbc.write_port(PortId::LEFT, row, meter)?;
        if i < shifts {
            dbc.shift_all(1, meter)?;
        }
    }
    Ok(())
}

impl BulkOp {
    /// The padding constant preset into unused segment positions
    /// (paper Fig. 7: `1`s for AND/NAND, `0`s otherwise).
    pub fn padding(self) -> bool {
        matches!(self, BulkOp::And | BulkOp::Nand)
    }

    /// Selects this operation's bit from the PIM block outputs.
    pub fn select(self, outputs: PimOutputs) -> bool {
        match self {
            BulkOp::And => outputs.and,
            BulkOp::Nand => outputs.nand,
            BulkOp::Or => outputs.or,
            BulkOp::Nor => outputs.nor,
            BulkOp::Xor => outputs.xor,
            BulkOp::Xnor => outputs.xnor,
            BulkOp::Not => outputs.nor,
        }
    }

    /// Selects this operation's row from the count planes of one parallel
    /// transverse read — [`BulkOp::select`] of the PIM block outputs, for
    /// every bitline at once.
    pub fn select_row(self, counts: &TrCounts) -> Row {
        match self {
            BulkOp::And => full(counts),
            BulkOp::Nand => !&full(counts),
            BulkOp::Or => at_least(counts, 1),
            BulkOp::Nor | BulkOp::Not => !&at_least(counts, 1),
            BulkOp::Xor => counts.sum.clone(),
            BulkOp::Xnor => !&counts.sum,
        }
    }

    /// Reference implementation: folds the operand bits with this
    /// operation (the oracle the hardware must match).
    pub fn reference(self, bits: &[bool]) -> bool {
        match self {
            BulkOp::And => bits.iter().all(|&b| b),
            BulkOp::Nand => !bits.iter().all(|&b| b),
            BulkOp::Or => bits.iter().any(|&b| b),
            BulkOp::Nor => !bits.iter().any(|&b| b),
            BulkOp::Xor => bits.iter().fold(false, |a, &b| a ^ b),
            BulkOp::Xnor => !bits.iter().fold(false, |a, &b| a ^ b),
            BulkOp::Not => !bits[0],
        }
    }

    /// Maximum operand count for this operation at a given TRD (NOT is
    /// unary; everything else can fill the whole segment).
    pub fn max_operands(self, trd: usize) -> usize {
        match self {
            BulkOp::Not => 1,
            _ => trd,
        }
    }
}

impl fmt::Display for BulkOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BulkOp::And => "AND",
            BulkOp::Nand => "NAND",
            BulkOp::Or => "OR",
            BulkOp::Nor => "NOR",
            BulkOp::Xor => "XOR",
            BulkOp::Xnor => "XNOR",
            BulkOp::Not => "NOT",
        };
        write!(f, "{s}")
    }
}

/// Executes bulk-bitwise operations on a PIM-enabled DBC.
#[derive(Debug, Clone)]
pub struct BulkExecutor {
    trd: usize,
}

impl BulkExecutor {
    /// Creates an executor for the configuration's TRD.
    pub fn new(config: &MemoryConfig) -> BulkExecutor {
        BulkExecutor { trd: config.trd }
    }

    /// The configured transverse-read distance.
    pub fn trd(&self) -> usize {
        self.trd
    }

    /// Places `k` operand rows into the segment through the left port
    /// (write + domain shift per operand, the costed placement of
    /// §V-B) and presets the remaining positions with the operation's
    /// padding constant (pre-populated, paper Fig. 7 — no cost).
    ///
    /// After placement the operands occupy segment positions `0..k` in
    /// reverse write order, which is immaterial for these commutative
    /// operations.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::NotPim`] for a storage DBC,
    /// [`PimError::TooManyOperands`] past the TRD, or a memory error.
    pub fn place_operands(
        &self,
        dbc: &mut Dbc,
        operands: &[Row],
        padding: bool,
        meter: &mut CostMeter,
    ) -> Result<()> {
        if !dbc.is_pim() {
            return Err(PimError::NotPim);
        }
        let k = operands.len();
        if k > self.trd {
            return Err(PimError::TooManyOperands {
                requested: k,
                max: self.trd,
            });
        }
        if k == 0 {
            return Err(PimError::TooFewOperands {
                requested: 0,
                min: 1,
            });
        }
        // Ensure enough shift slack for the placement (realign left if a
        // previous operation left the wire near its right extremity).
        ensure_right_slack(dbc, k as isize - 1, meter)?;
        // Preset padding (pre-populated constants, Fig. 7).
        let pad_row = if padding {
            Row::ones(dbc.width())
        } else {
            Row::zeros(dbc.width())
        };
        for s in 0..self.trd {
            dbc.poke_segment_row(s, &pad_row)?;
        }
        // Costed placement: write at the left port, then shift one domain,
        // for every operand except the last (which can stay at the port).
        place_rows(dbc, operands, k - 1, meter)?;
        // Restore the padding constant on any position the shifts exposed
        // (the preloaded constant rows extend past the ports, Fig. 7).
        for s in k..self.trd {
            dbc.poke_segment_row(s, &pad_row)?;
        }
        Ok(())
    }

    /// Executes `op` over the segment as currently populated, treating it
    /// as `k` operands plus padding: one parallel transverse read, PIM
    /// block evaluation, and the selected output row.
    ///
    /// # Errors
    ///
    /// Returns a device error for TR failures.
    pub(crate) fn execute_in_place(
        &self,
        dbc: &mut Dbc,
        op: BulkOp,
        meter: &mut CostMeter,
    ) -> Result<Row> {
        Ok(op.select_row(&dbc.transverse_read_all(meter)?))
    }

    /// Full bulk-bitwise operation: placement + single-TR evaluation.
    ///
    /// # Errors
    ///
    /// As [`BulkExecutor::place_operands`] and
    /// `BulkExecutor::execute_in_place`; NOT additionally requires
    /// exactly one operand.
    pub fn execute(
        &self,
        dbc: &mut Dbc,
        op: BulkOp,
        operands: &[Row],
        meter: &mut CostMeter,
    ) -> Result<Row> {
        let max = op.max_operands(self.trd);
        if operands.len() > max {
            return Err(PimError::TooManyOperands {
                requested: operands.len(),
                max,
            });
        }
        self.place_operands(dbc, operands, op.padding(), meter)?;
        self.execute_in_place(dbc, op, meter)
    }

    /// Reference row-level fold (oracle).
    pub fn reference(op: BulkOp, operands: &[Row]) -> Row {
        let width = operands[0].width();
        (0..width)
            .map(|i| {
                let bits: Vec<bool> = operands.iter().map(|r| r.get(i).unwrap()).collect();
                op.reference(&bits)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Dbc, BulkExecutor) {
        let config = MemoryConfig::tiny();
        (Dbc::pim_enabled(&config), BulkExecutor::new(&config))
    }

    fn rows(patterns: &[u64]) -> Vec<Row> {
        patterns
            .iter()
            .map(|&p| Row::from_u64_words(64, &[p]))
            .collect()
    }

    #[test]
    fn all_ops_match_reference_for_three_operands() {
        let ops = [
            BulkOp::And,
            BulkOp::Nand,
            BulkOp::Or,
            BulkOp::Nor,
            BulkOp::Xor,
            BulkOp::Xnor,
        ];
        let operands = rows(&[0xF0F0_A5A5, 0xFF00_C3C3, 0x0FF0_9999]);
        for op in ops {
            let (mut dbc, exec) = setup();
            let mut m = CostMeter::new();
            let got = exec.execute(&mut dbc, op, &operands, &mut m).unwrap();
            let want = BulkExecutor::reference(op, &operands);
            assert_eq!(got, want, "{op}");
        }
    }

    #[test]
    fn seven_operand_or_single_tr() {
        let (mut dbc, exec) = setup();
        let operands = rows(&[1, 2, 4, 8, 16, 32, 64]);
        let mut m = CostMeter::new();
        let got = exec
            .execute(&mut dbc, BulkOp::Or, &operands, &mut m)
            .unwrap();
        assert_eq!(got.to_u64_words()[0], 127);
        // Placement: 7 writes + 6 shifts; evaluation: 1 TR.
        assert_eq!(m.total().cycles, 7 + 6 + 1);
    }

    #[test]
    fn two_operand_and_uses_one_padding() {
        let (mut dbc, exec) = setup();
        let a = 0xDEAD_BEEF_u64;
        let b = 0xF0F0_F0F0_u64;
        let got = exec
            .execute(&mut dbc, BulkOp::And, &rows(&[a, b]), &mut CostMeter::new())
            .unwrap();
        assert_eq!(got.to_u64_words()[0], a & b);
    }

    #[test]
    fn not_is_unary() {
        let (mut dbc, exec) = setup();
        let a = 0x1234_5678_9ABC_DEF0_u64;
        let got = exec
            .execute(&mut dbc, BulkOp::Not, &rows(&[a]), &mut CostMeter::new())
            .unwrap();
        assert_eq!(got.to_u64_words()[0], !a);

        let err = exec
            .execute(&mut dbc, BulkOp::Not, &rows(&[a, a]), &mut CostMeter::new())
            .unwrap_err();
        assert!(matches!(err, PimError::TooManyOperands { max: 1, .. }));
    }

    #[test]
    fn too_many_operands_rejected() {
        let (mut dbc, exec) = setup();
        let operands = rows(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let err = exec
            .execute(&mut dbc, BulkOp::Or, &operands, &mut CostMeter::new())
            .unwrap_err();
        assert!(matches!(err, PimError::TooManyOperands { max: 7, .. }));
    }

    #[test]
    fn zero_operands_rejected() {
        let (mut dbc, exec) = setup();
        let err = exec
            .execute(&mut dbc, BulkOp::Or, &[], &mut CostMeter::new())
            .unwrap_err();
        assert!(matches!(err, PimError::TooFewOperands { .. }));
    }

    #[test]
    fn storage_dbc_rejected() {
        let config = MemoryConfig::tiny();
        let mut dbc = Dbc::storage(&config);
        let exec = BulkExecutor::new(&config);
        let err = exec
            .execute(&mut dbc, BulkOp::Or, &rows(&[1]), &mut CostMeter::new())
            .unwrap_err();
        assert!(matches!(err, PimError::NotPim));
    }

    #[test]
    fn xor_of_five_operands() {
        let (mut dbc, exec) = setup();
        let vals = [0xAAAA, 0x5555, 0xF00F, 0x1234, 0x8001];
        let got = exec
            .execute(&mut dbc, BulkOp::Xor, &rows(&vals), &mut CostMeter::new())
            .unwrap();
        let want = vals.iter().fold(0u64, |a, &b| a ^ b);
        assert_eq!(got.to_u64_words()[0], want);
    }

    #[test]
    fn smaller_trd_configs_work() {
        for trd in [3usize, 5] {
            let config = MemoryConfig::tiny().with_trd(trd);
            let mut dbc = Dbc::pim_enabled(&config);
            let exec = BulkExecutor::new(&config);
            let operands = rows(&[0xFF00, 0x0FF0, 0x00FF][..trd.min(3)]);
            let got = exec
                .execute(&mut dbc, BulkOp::Or, &operands, &mut CostMeter::new())
                .unwrap();
            assert_eq!(got, BulkExecutor::reference(BulkOp::Or, &operands));
        }
    }
}
