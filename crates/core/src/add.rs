//! Multi-operand addition with a spatial carry chain (paper §III-C, Fig. 6).
//!
//! Operand rows are stacked in the inter-port segment so that nanowire `w`
//! holds bit `w` of every operand. The addition walks the nanowires of each
//! block in order; at step `j` a transverse read of nanowire `j` senses
//! `operand bits + C_{j-1} + C'_{j-2}`, and the PIM block emits the binary
//! digits of that count: sum `S_j` (written back through the left port of
//! wire `j`), carry `C_j` (routed to the right port of wire `j+1`), and
//! super-carry `C'_j` (routed to the left port of wire `j+2`). The ports of
//! each wire double as the carry landing slots, which is why a TRD of 7
//! supports at most 7 − 2 = 5 operands (at TRD = 3 no super-carry can occur
//! and only the right port is reserved, allowing 2 operands).
//!
//! One step costs 2 cycles (TR + simultaneous writes); an `n`-bit block
//! takes `2n` cycles after operand placement, giving the paper's Table III
//! numbers: 19 cycles for an 8-bit 2-operand add at TRD = 3 and 26 cycles
//! for an 8-bit 5-operand add at TRD = 7 — independent of how many blocks
//! are packed in the row, since all blocks advance in lock step.
//!
//! The chain runs as one kernel on the DBC's bit planes,
//! [`Dbc::carry_chain`], which every caller reaches through
//! [`MultiOperandAdder::add_in_place`].

use crate::{PimError, Result};
use coruscant_mem::{Dbc, MemoryConfig, Row};
use coruscant_racetrack::CostMeter;

/// Validates a block size: a power of two in `8..=512` (paper §III-E).
pub fn validate_blocksize(blocksize: usize, width: usize) -> Result<()> {
    let ok = blocksize.is_power_of_two() && (8..=512).contains(&blocksize);
    if !ok || blocksize > width || !width.is_multiple_of(blocksize) {
        return Err(PimError::BadBlockSize(blocksize));
    }
    Ok(())
}

/// Executes multi-operand additions on a PIM-enabled DBC.
#[derive(Debug, Clone)]
pub struct MultiOperandAdder {
    trd: usize,
}

impl MultiOperandAdder {
    /// Creates an adder for the configuration's TRD.
    pub fn new(config: &MemoryConfig) -> MultiOperandAdder {
        MultiOperandAdder { trd: config.trd }
    }

    /// Creates an adder for an explicit TRD.
    pub fn with_trd(trd: usize) -> MultiOperandAdder {
        MultiOperandAdder { trd }
    }

    /// The configured transverse-read distance.
    pub fn trd(&self) -> usize {
        self.trd
    }

    /// Maximum simultaneous operands: `TRD − 2` (both ports reserved for
    /// `C` and `C'`), except `TRD − 1` at TRD = 3 where no super-carry
    /// exists.
    pub fn max_operands(&self) -> usize {
        if self.trd <= 3 {
            self.trd - 1
        } else {
            self.trd - 2
        }
    }

    /// Places `k` operand rows into the segment for addition: one port
    /// write plus one domain shift per operand (the final shift is skipped
    /// at TRD = 3 where operands may sit on the left port), then presets
    /// the carry slots to `0` (pre-populated rows, paper Fig. 7b).
    ///
    /// # Errors
    ///
    /// Returns [`PimError::NotPim`], [`PimError::TooManyOperands`] /
    /// [`PimError::TooFewOperands`], or a memory error.
    pub fn place_operands(
        &self,
        dbc: &mut Dbc,
        operands: &[Row],
        meter: &mut CostMeter,
    ) -> Result<()> {
        self.place_operands_impl(dbc, operands, None, meter)
    }

    /// Like [`MultiOperandAdder::place_operands`], but first aligns the
    /// wires so the addition scratches exactly rows
    /// `base..base + TRD` — required when other DBC rows (e.g. a
    /// partial-product pool) must survive the operation.
    ///
    /// # Errors
    ///
    /// As [`MultiOperandAdder::place_operands`].
    pub fn place_operands_at(
        &self,
        dbc: &mut Dbc,
        operands: &[Row],
        base: usize,
        meter: &mut CostMeter,
    ) -> Result<()> {
        self.place_operands_impl(dbc, operands, Some(base), meter)
    }

    fn place_operands_impl(
        &self,
        dbc: &mut Dbc,
        operands: &[Row],
        base: Option<usize>,
        meter: &mut CostMeter,
    ) -> Result<()> {
        if !dbc.is_pim() {
            return Err(PimError::NotPim);
        }
        let k = operands.len();
        if k < 2 {
            return Err(PimError::TooFewOperands {
                requested: k,
                min: 2,
            });
        }
        if k > self.max_operands() {
            return Err(PimError::TooManyOperands {
                requested: k,
                max: self.max_operands(),
            });
        }
        // Ensure slack for the placement shifts (one per operand, minus
        // one at TRD = 3 where operands may rest on the left port).
        let shifts = if self.trd >= 4 { k } else { k - 1 };
        match base {
            Some(b) => {
                // Align so that, after the placement shifts, the left port
                // covers row `b` (the write under the port lands in the
                // row currently beneath it, and the written bits travel
                // with their row as the wires shift).
                let first_row = b + shifts;
                dbc.align_row(first_row, coruscant_racetrack::PortId::LEFT, meter)
                    .map_err(PimError::from)?;
            }
            None => crate::bulk::ensure_right_slack(dbc, shifts as isize, meter)?,
        }
        crate::bulk::place_rows(dbc, operands, shifts, meter)?;
        // Preset every non-operand segment position (carry slots and any
        // unused operand slots) to the all-zero padding row. Operand `i`
        // sits at position `i`, or `i + 1` above TRD 3.
        let (zero, first) = (Row::zeros(dbc.width()), usize::from(self.trd >= 4));
        for s in (0..self.trd).filter(|s| !(first..first + k).contains(s)) {
            dbc.poke_segment_row(s, &zero)?;
        }
        Ok(())
    }

    /// Runs the carry chain over operands already resident in the segment
    /// (placed by [`MultiOperandAdder::place_operands`]). Each block of
    /// `blocksize` wires forms an independent chain; all blocks advance
    /// together, so the latency is `2 × blocksize` cycles.
    ///
    /// Returns the sum row (each lane holds the operand sum modulo
    /// `2^blocksize`; carries past the block boundary are dropped, the
    /// standard truncation the paper's packed layout implies).
    ///
    /// # Errors
    ///
    /// Returns [`PimError::BadBlockSize`] or a memory/device error.
    pub fn add_in_place(
        &self,
        dbc: &mut Dbc,
        blocksize: usize,
        meter: &mut CostMeter,
    ) -> Result<Row> {
        validate_blocksize(blocksize, dbc.width())?;
        // The sum ends under the left port of every wire; it is forwarded
        // directly through the sense path (no extra access).
        Ok(dbc.carry_chain(blocksize, self.trd >= 4, meter)?)
    }

    /// Full multi-operand addition: placement + carry chain.
    ///
    /// # Errors
    ///
    /// As [`MultiOperandAdder::place_operands`] and
    /// [`MultiOperandAdder::add_in_place`].
    pub fn add_rows(
        &self,
        dbc: &mut Dbc,
        operands: &[Row],
        blocksize: usize,
        meter: &mut CostMeter,
    ) -> Result<Row> {
        validate_blocksize(blocksize, dbc.width())?;
        self.place_operands(dbc, operands, meter)?;
        self.add_in_place(dbc, blocksize, meter)
    }

    /// Full multi-operand addition confined to the row window starting at
    /// `base` (see [`MultiOperandAdder::place_operands_at`]).
    ///
    /// # Errors
    ///
    /// As [`MultiOperandAdder::add_rows`].
    pub fn add_rows_at(
        &self,
        dbc: &mut Dbc,
        operands: &[Row],
        base: usize,
        blocksize: usize,
        meter: &mut CostMeter,
    ) -> Result<Row> {
        validate_blocksize(blocksize, dbc.width())?;
        self.place_operands_at(dbc, operands, base, meter)?;
        self.add_in_place(dbc, blocksize, meter)
    }

    /// Reference addition (oracle): lane-wise sum modulo `2^blocksize`,
    /// for every block size the device path accepts.
    pub fn reference(operands: &[Row], blocksize: usize) -> Row {
        let zero = Row::zeros(operands[0].width());
        operands
            .iter()
            .fold(zero, |sum, op| sum.lane_add(op, blocksize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(trd: usize) -> (Dbc, MultiOperandAdder) {
        let config = MemoryConfig::tiny().with_trd(trd);
        (Dbc::pim_enabled(&config), MultiOperandAdder::new(&config))
    }

    fn packed(values: &[u64], blocksize: usize) -> Row {
        Row::pack(64, blocksize, values)
    }

    #[test]
    fn five_operand_add_matches_reference() {
        let (mut dbc, adder) = setup(7);
        let ops: Vec<Row> = [
            &[3u64, 250, 17, 0, 99, 1, 2, 200][..],
            &[5, 250, 18, 0, 99, 1, 2, 200],
            &[7, 250, 19, 0, 99, 1, 2, 200],
            &[11, 250, 20, 255, 99, 1, 2, 200],
            &[13, 250, 21, 255, 99, 1, 2, 200],
        ]
        .iter()
        .map(|v| packed(v, 8))
        .collect();
        let mut m = CostMeter::new();
        let got = adder.add_rows(&mut dbc, &ops, 8, &mut m).unwrap();
        assert_eq!(got, MultiOperandAdder::reference(&ops, 8));
        // First lane: 3+5+7+11+13 = 39.
        assert_eq!(got.unpack(8)[0], 39);
        // Second lane overflows: 5*250 mod 256 = 1250 mod 256 = 226.
        assert_eq!(got.unpack(8)[1], 1250 % 256);
    }

    #[test]
    fn table3_cycle_counts() {
        // 5-op add, TRD = 7, 8-bit: 10 setup + 16 chain = 26 cycles.
        let (mut dbc, adder) = setup(7);
        let ops: Vec<Row> = (1..=5u64).map(|k| packed(&[k; 8], 8)).collect();
        let mut m = CostMeter::new();
        adder.add_rows(&mut dbc, &ops, 8, &mut m).unwrap();
        assert_eq!(m.total().cycles, 26);

        // 2-op add, TRD = 3, 8-bit: 3 setup + 16 chain = 19 cycles.
        let (mut dbc, adder) = setup(3);
        let ops: Vec<Row> = (1..=2u64).map(|k| packed(&[k; 8], 8)).collect();
        let mut m = CostMeter::new();
        adder.add_rows(&mut dbc, &ops, 8, &mut m).unwrap();
        assert_eq!(m.total().cycles, 19);
    }

    #[test]
    fn trd3_two_operand_add() {
        let (mut dbc, adder) = setup(3);
        let a = packed(&[100, 7, 255, 1, 0, 200, 50, 128], 8);
        let b = packed(&[55, 8, 1, 2, 0, 100, 50, 128], 8);
        let got = adder
            .add_rows(&mut dbc, &[a.clone(), b.clone()], 8, &mut CostMeter::new())
            .unwrap();
        assert_eq!(got, MultiOperandAdder::reference(&[a, b], 8));
    }

    #[test]
    fn trd5_three_operand_add() {
        let (mut dbc, adder) = setup(5);
        assert_eq!(adder.max_operands(), 3);
        let ops: Vec<Row> = [[200u64, 1, 99], [100, 2, 99], [55, 3, 99]]
            .iter()
            .map(|v| {
                let mut vals = [0u64; 8];
                vals[..3].copy_from_slice(v);
                packed(&vals, 8)
            })
            .collect();
        let got = adder
            .add_rows(&mut dbc, &ops, 8, &mut CostMeter::new())
            .unwrap();
        assert_eq!(got, MultiOperandAdder::reference(&ops, 8));
    }

    #[test]
    fn wide_blocks_work() {
        let (mut dbc, adder) = setup(7);
        let ops: Vec<Row> = [0xFFFF_FF00u64, 0x0000_0100, 0x1234_5678]
            .iter()
            .map(|&v| packed(&[v, v >> 1], 32))
            .collect();
        let got = adder
            .add_rows(&mut dbc, &ops, 32, &mut CostMeter::new())
            .unwrap();
        assert_eq!(got, MultiOperandAdder::reference(&ops, 32));
    }

    #[test]
    fn full_row_single_block() {
        let (mut dbc, adder) = setup(7);
        let ops = vec![packed(&[u64::MAX], 64), packed(&[1], 64)];
        let got = adder
            .add_rows(&mut dbc, &ops, 64, &mut CostMeter::new())
            .unwrap();
        assert_eq!(got.unpack(64)[0], 0, "wrap-around");
    }

    #[test]
    fn operand_count_limits() {
        let (mut dbc, adder) = setup(7);
        assert_eq!(adder.max_operands(), 5);
        let six: Vec<Row> = (0..6u64).map(|k| packed(&[k; 8], 8)).collect();
        assert!(matches!(
            adder.add_rows(&mut dbc, &six, 8, &mut CostMeter::new()),
            Err(PimError::TooManyOperands { max: 5, .. })
        ));
        let one = vec![packed(&[1; 8], 8)];
        assert!(matches!(
            adder.add_rows(&mut dbc, &one, 8, &mut CostMeter::new()),
            Err(PimError::TooFewOperands { .. })
        ));
    }

    #[test]
    fn bad_blocksizes_rejected() {
        let (mut dbc, adder) = setup(7);
        let ops: Vec<Row> = (1..=2u64).map(|k| packed(&[k; 8], 8)).collect();
        for bs in [0usize, 3, 7, 12, 128] {
            // 128 > row width of the tiny config (64).
            assert!(matches!(
                adder.add_rows(&mut dbc, &ops, bs, &mut CostMeter::new()),
                Err(PimError::BadBlockSize(_))
            ));
        }
    }

    #[test]
    fn storage_dbc_rejected() {
        let config = MemoryConfig::tiny();
        let mut dbc = Dbc::storage(&config);
        let adder = MultiOperandAdder::new(&config);
        let ops: Vec<Row> = (1..=2u64).map(|k| packed(&[k; 8], 8)).collect();
        assert!(matches!(
            adder.add_rows(&mut dbc, &ops, 8, &mut CostMeter::new()),
            Err(PimError::NotPim)
        ));
    }

    #[test]
    fn latency_independent_of_block_count() {
        // All 8-bit blocks advance in lock step: 8 lanes cost the same
        // cycles as 1 lane (energy differs).
        let (mut dbc, adder) = setup(7);
        let ops: Vec<Row> = (1..=5u64).map(|k| packed(&[k; 8], 8)).collect();
        let mut m_full = CostMeter::new();
        adder.add_rows(&mut dbc, &ops, 8, &mut m_full).unwrap();

        let (mut dbc1, _) = setup(7);
        let ops1: Vec<Row> = (1..=5u64).map(|k| packed(&[k], 8)).collect();
        let mut m_one = CostMeter::new();
        adder.add_rows(&mut dbc1, &ops1, 8, &mut m_one).unwrap();

        assert_eq!(m_full.total().cycles, m_one.total().cycles);
        assert!(m_full.total().energy_pj >= m_one.total().energy_pj);
    }
}
