//! Derived arithmetic built from the CORUSCANT primitives: subtraction,
//! comparisons, min, large-cardinality accumulation, and dot products.
//!
//! The paper's conclusion points at "other intrinsic operations required
//! for accelerated on-line training"; this module composes them from the
//! primitives §III provides — two's-complement negation through the
//! inverted sense path (`NOT x + 1`), the multi-operand adder, the
//! carry-save reducer, and the max function:
//!
//! * `a − b` = `a + NOT b + 1` (the `+1` rides in a free operand slot,
//!   exactly like the constant-multiplication example's `−515A`);
//! * `a ≥ b` reads the borrow out of a double-width subtraction;
//! * `min` = `NOT (max (NOT a, NOT b))`;
//! * big sums use repeated `TRD → 3` reductions — the "large cardinality
//!   additions found in many scientific and machine learning algorithms"
//!   (§III-D3).

use crate::add::MultiOperandAdder;
use crate::maxpool::MaxExecutor;
use crate::mult::{CsaReducer, Multiplier};
use crate::{PimError, Result};
use coruscant_mem::{Dbc, MemoryConfig, Row};
use coruscant_racetrack::CostMeter;

/// Executes derived arithmetic on a PIM-enabled DBC.
#[derive(Debug, Clone)]
pub struct ArithmeticUnit {
    trd: usize,
}

impl ArithmeticUnit {
    /// Creates a unit for the configuration's TRD.
    pub fn new(config: &MemoryConfig) -> ArithmeticUnit {
        ArithmeticUnit { trd: config.trd }
    }

    /// The configured TRD.
    pub fn trd(&self) -> usize {
        self.trd
    }

    /// Lane-wise subtraction `a − b` (mod `2^blocksize`): `b` is inverted
    /// through the NOT sense path (one read/write pair) and the `+1`
    /// enters as a preset constant row.
    ///
    /// # Errors
    ///
    /// Returns block-size, capacity, or memory errors.
    pub fn subtract(
        &self,
        dbc: &mut Dbc,
        a: &Row,
        b: &Row,
        blocksize: usize,
        meter: &mut CostMeter,
    ) -> Result<Row> {
        crate::add::validate_blocksize(blocksize, dbc.width())?;
        let adder = MultiOperandAdder::with_trd(self.trd);
        let width = dbc.width();
        let lanes = width / blocksize;
        let not_b = {
            // The inverted value comes from the NOT output of the sense
            // path: stage b, read it inverted (1 read + 1 write).
            let stage = self.trd + 1;
            dbc.write_row(stage, b, meter)?;
            let read = dbc.read_row(stage, meter)?;
            !&read
        };
        let ones = Row::pack(width, blocksize, &vec![1u64; lanes]);
        if adder.max_operands() >= 3 {
            adder.add_rows_at(dbc, &[a.clone(), not_b, ones], 1, blocksize, meter)
        } else {
            // TRD = 3: two chained 2-operand adds.
            let t = adder.add_rows_at(dbc, &[a.clone(), not_b], 1, blocksize, meter)?;
            adder.add_rows_at(dbc, &[t, ones], 1, blocksize, meter)
        }
    }

    /// Lane-wise `a ≥ b` (0/1 per lane): the borrow bit of a double-width
    /// subtraction. Requires `2 × blocksize` lanes to fit the row and a
    /// 64-bit word.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::BadBlockSize`] for `blocksize` above 32 or a
    /// double-width lane the row cannot hold, or capacity errors.
    pub fn compare_ge(
        &self,
        dbc: &mut Dbc,
        a: &Row,
        b: &Row,
        blocksize: usize,
        meter: &mut CostMeter,
    ) -> Result<Row> {
        let wide = 2 * blocksize;
        if wide > 64 {
            return Err(PimError::BadBlockSize(blocksize));
        }
        crate::add::validate_blocksize(wide, dbc.width())?;
        let width = dbc.width();
        // Re-pack the operands into double-width lanes, zero-extended.
        let av = a.unpack(blocksize);
        let bv = b.unpack(blocksize);
        let lanes = width / wide;
        let a_wide = Row::pack(width, wide, &av[..lanes.min(av.len())]);
        // 2^bs - 1 - b per wide lane.
        let mask = (1u64 << blocksize) - 1;
        let nb: Vec<u64> = bv.iter().take(lanes).map(|&v| mask - v).collect();
        let b_wide = Row::pack(width, wide, &nb);
        let ones = Row::pack(width, wide, &vec![1u64; lanes]);

        let adder = MultiOperandAdder::with_trd(self.trd);
        let sum = if adder.max_operands() >= 3 {
            adder.add_rows_at(dbc, &[a_wide, b_wide, ones], 1, wide, meter)?
        } else {
            let t = adder.add_rows_at(dbc, &[a_wide, b_wide], 1, wide, meter)?;
            adder.add_rows_at(dbc, &[t, ones], 1, wide, meter)?
        };
        // Bit `blocksize` of each wide lane is the >= flag.
        let flags: Vec<u64> = sum
            .unpack(wide)
            .into_iter()
            .map(|v| v >> blocksize & 1)
            .collect();
        Ok(Row::pack(width, wide, &flags))
    }

    /// Lane-wise minimum across up to TRD candidate rows:
    /// `NOT (max (NOT c_i))`, using the inverted sense path around the
    /// TW max function.
    ///
    /// # Errors
    ///
    /// As [`MaxExecutor::max_rows`].
    pub fn min_rows(
        &self,
        dbc: &mut Dbc,
        candidates: &[Row],
        blocksize: usize,
        meter: &mut CostMeter,
    ) -> Result<Row> {
        let maxer = MaxExecutor::new(&probe_config(dbc, self.trd));
        let inverted: Vec<Row> = candidates.iter().map(|c| !c).collect();
        // The inversions ride the NOT path during placement: one extra
        // cycle per candidate.
        meter.charge(coruscant_racetrack::Cost::cycles(candidates.len() as u64));
        let inv_max = maxer.max_rows(dbc, &inverted, blocksize, meter)?;
        Ok(!&inv_max)
    }

    /// Sums an arbitrary number of rows lane-wise (mod `2^blocksize`)
    /// with carry-save `TRD → 3` reductions followed by one chained
    /// addition — the paper's accelerated "large cardinality addition".
    ///
    /// # Errors
    ///
    /// Returns capacity errors if the DBC cannot stage the rows
    /// (`rows.len()` beyond the pool) or block-size/memory errors.
    pub fn sum_rows(
        &self,
        dbc: &mut Dbc,
        rows: &[Row],
        blocksize: usize,
        meter: &mut CostMeter,
    ) -> Result<Row> {
        crate::add::validate_blocksize(blocksize, dbc.width())?;
        if rows.is_empty() {
            return Err(PimError::TooFewOperands {
                requested: 0,
                min: 1,
            });
        }
        if rows.len() == 1 {
            return Ok(rows[0].clone());
        }
        let adder = MultiOperandAdder::with_trd(self.trd);
        let reducer = CsaReducer::new(self.trd);
        let max_ops = adder.max_operands();
        let window_base = 1;
        let pool = self.trd + 1;
        let pool_slots = dbc.rows() - pool;

        // Work queue of row VALUES; reductions run in the window, spilled
        // inputs stage through the pool in batches.
        let mut pending: Vec<Row> = rows.to_vec();
        while pending.len() > max_ops {
            let t = self.trd.min(pending.len());
            if t < 3 || pool_slots == 0 {
                break;
            }
            // Stage t rows into the window (one write each after align).
            let chunk: Vec<Row> = pending.drain(..t).collect();
            for (i, r) in chunk.iter().enumerate() {
                dbc.write_row(window_base + i, r, meter)?;
            }
            let zero = Row::zeros(dbc.width());
            for s in t..self.trd {
                dbc.write_row(window_base + s, &zero, meter)?;
            }
            let out = reducer.reduce(dbc, window_base, t, blocksize, meter)?;
            for r in out.rows() {
                pending.insert(0, dbc.peek_row(r)?);
            }
        }
        // Final chained additions, each running sum the first operand of
        // the next.
        while pending.len() > 1 {
            let ops: Vec<Row> = pending.drain(..max_ops.min(pending.len())).collect();
            pending.insert(0, adder.add_rows_at(dbc, &ops, 1, blocksize, meter)?);
        }
        Ok(pending.remove(0))
    }

    /// Dot product of two packed vectors: lane-parallel multiplication
    /// followed by a carry-save accumulation of the products.
    ///
    /// # Errors
    ///
    /// Returns width/capacity errors if a value exceeds `bits` or the
    /// vectors do not fit the row.
    pub fn dot(
        &self,
        dbc: &mut Dbc,
        a: &[u64],
        b: &[u64],
        bits: usize,
        meter: &mut CostMeter,
    ) -> Result<u64> {
        let mult = Multiplier::new(&probe_config(dbc, self.trd));
        let products = mult.multiply_values(dbc, a, b, bits, meter)?;
        // Accumulate the products in 2*bits-wide lanes via sum_rows, one
        // product per row (lane 0).
        let lane = (2 * bits).max(8).next_power_of_two();
        let wide = (lane * 2).clamp(32, 64); // headroom for the sum
        let rows: Vec<Row> = products
            .iter()
            .map(|&p| Row::pack(dbc.width(), wide, &[p]))
            .collect();
        let total = self.sum_rows(dbc, &rows, wide, meter)?;
        Ok(total.unpack(wide)[0])
    }

    /// Reference lane-wise subtraction (oracle).
    pub fn reference_sub(a: &Row, b: &Row, blocksize: usize) -> Row {
        let mask = if blocksize == 64 {
            u64::MAX
        } else {
            (1u64 << blocksize) - 1
        };
        let vals: Vec<u64> = a
            .unpack(blocksize)
            .into_iter()
            .zip(b.unpack(blocksize))
            .map(|(x, y)| x.wrapping_sub(y) & mask)
            .collect();
        Row::pack(a.width(), blocksize, &vals)
    }
}

/// Rebuilds a minimal config describing an existing DBC (the executors
/// only read `trd` and `nanowires_per_dbc`).
fn probe_config(dbc: &Dbc, trd: usize) -> MemoryConfig {
    let mut c = MemoryConfig::tiny().with_trd(trd);
    c.nanowires_per_dbc = dbc.width();
    c.rows_per_dbc = dbc.rows();
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(trd: usize) -> (Dbc, ArithmeticUnit) {
        let config = MemoryConfig::tiny().with_trd(trd);
        (Dbc::pim_enabled(&config), ArithmeticUnit::new(&config))
    }

    #[test]
    fn subtraction_matches_reference() {
        for trd in [3usize, 5, 7] {
            let (mut dbc, unit) = setup(trd);
            let a = Row::pack(64, 8, &[200, 5, 0, 255, 100, 1, 128, 77]);
            let b = Row::pack(64, 8, &[55, 9, 0, 255, 101, 255, 128, 7]);
            let got = unit
                .subtract(&mut dbc, &a, &b, 8, &mut CostMeter::new())
                .unwrap();
            assert_eq!(got, ArithmeticUnit::reference_sub(&a, &b, 8), "trd {trd}");
        }
    }

    #[test]
    fn subtraction_wraps_like_twos_complement() {
        let (mut dbc, unit) = setup(7);
        let a = Row::pack(64, 8, &[0; 8]);
        let b = Row::pack(64, 8, &[1; 8]);
        let got = unit
            .subtract(&mut dbc, &a, &b, 8, &mut CostMeter::new())
            .unwrap();
        assert_eq!(got.unpack(8), vec![0xFF; 8]);
    }

    #[test]
    fn compare_ge_all_orderings() {
        let (mut dbc, unit) = setup(7);
        let a = Row::pack(64, 8, &[5, 9, 200, 0]);
        let b = Row::pack(64, 8, &[5, 10, 100, 1]);
        let got = unit
            .compare_ge(&mut dbc, &a, &b, 8, &mut CostMeter::new())
            .unwrap();
        assert_eq!(got.unpack(16), vec![1, 0, 1, 0]);
    }

    #[test]
    fn compare_ge_at_trd3() {
        let (mut dbc, unit) = setup(3);
        let a = Row::pack(64, 8, &[17, 0, 255, 128]);
        let b = Row::pack(64, 8, &[17, 1, 0, 129]);
        let got = unit
            .compare_ge(&mut dbc, &a, &b, 8, &mut CostMeter::new())
            .unwrap();
        assert_eq!(got.unpack(16), vec![1, 0, 1, 0]);
    }

    #[test]
    fn compare_ge_rejects_lanes_past_a_word() {
        // 64-bit lanes would compare in 128-bit ones, which a 256-wire
        // row holds but the packed values do not.
        let config = MemoryConfig {
            nanowires_per_dbc: 256,
            ..MemoryConfig::tiny()
        };
        let (mut dbc, unit) = (Dbc::pim_enabled(&config), ArithmeticUnit::new(&config));
        let row = Row::pack(256, 64, &[1, 2, 3, 4]);
        let mut m = CostMeter::new();
        for blocksize in [64, 128] {
            let err = unit
                .compare_ge(&mut dbc, &row, &row, blocksize, &mut m)
                .unwrap_err();
            assert_eq!(err, PimError::BadBlockSize(blocksize));
        }
        assert_eq!(m, CostMeter::new());
        // 32-bit lanes still compare, in 64-bit ones.
        let (a, b) = (Row::pack(256, 32, &[7, 9]), Row::pack(256, 32, &[9, 7]));
        let got = unit.compare_ge(&mut dbc, &a, &b, 32, &mut m).unwrap();
        assert_eq!(got.unpack(64)[..2], [0, 1]);
    }

    #[test]
    fn min_is_dual_of_max() {
        let (mut dbc, unit) = setup(7);
        let candidates = vec![
            Row::pack(64, 8, &[9, 200, 3, 255, 0, 13, 100, 50]),
            Row::pack(64, 8, &[10, 100, 3, 254, 1, 12, 101, 50]),
            Row::pack(64, 8, &[8, 150, 4, 253, 2, 14, 99, 51]),
        ];
        let got = unit
            .min_rows(&mut dbc, &candidates, 8, &mut CostMeter::new())
            .unwrap();
        let want: Vec<u64> = (0..8)
            .map(|l| candidates.iter().map(|c| c.unpack(8)[l]).min().unwrap())
            .collect();
        assert_eq!(got.unpack(8), want);
    }

    #[test]
    fn sum_of_many_rows() {
        for trd in [3usize, 5, 7] {
            let (mut dbc, unit) = setup(trd);
            let rows: Vec<Row> = (1..=20u64)
                .map(|k| Row::pack(64, 16, &[k, 100 * k, 7, 1]))
                .collect();
            let got = unit
                .sum_rows(&mut dbc, &rows, 16, &mut CostMeter::new())
                .unwrap();
            let s: u64 = (1..=20).sum();
            assert_eq!(got.unpack(16)[0], s, "trd {trd}");
            assert_eq!(got.unpack(16)[1], (100 * s) & 0xFFFF);
            assert_eq!(got.unpack(16)[2], 7 * 20);
        }
    }

    #[test]
    fn sum_rows_edge_cases() {
        let (mut dbc, unit) = setup(7);
        let single = vec![Row::pack(64, 8, &[42; 8])];
        assert_eq!(
            unit.sum_rows(&mut dbc, &single, 8, &mut CostMeter::new())
                .unwrap(),
            single[0]
        );
        assert!(matches!(
            unit.sum_rows(&mut dbc, &[], 8, &mut CostMeter::new()),
            Err(PimError::TooFewOperands { .. })
        ));
    }

    #[test]
    fn carry_save_accumulation_beats_chained_adds() {
        // The §III-D3 claim: reductions accelerate large sums.
        let rows: Vec<Row> = (1..=30u64).map(|k| Row::pack(64, 16, &[k; 4])).collect();
        let (mut dbc, unit) = setup(7);
        let mut m_csa = CostMeter::new();
        unit.sum_rows(&mut dbc, &rows, 16, &mut m_csa).unwrap();

        // Chained 5-op adds only (simulate by summing in chunks without
        // the reducer).
        let (mut dbc2, _) = setup(7);
        let adder = MultiOperandAdder::with_trd(7);
        let mut m_add = CostMeter::new();
        let mut acc: Option<Row> = None;
        let mut pending = rows.clone();
        while !pending.is_empty() {
            let reserved = usize::from(acc.is_some());
            let take = (5 - reserved).min(pending.len());
            let mut ops = Vec::new();
            if let Some(a) = acc.take() {
                ops.push(a);
            }
            ops.extend(pending.drain(..take));
            acc = Some(if ops.len() == 1 {
                ops.pop().unwrap()
            } else {
                adder
                    .add_rows_at(&mut dbc2, &ops, 1, 16, &mut m_add)
                    .unwrap()
            });
        }
        let want: u64 = (1..=30).sum();
        assert_eq!(acc.unwrap().unpack(16)[0], want);
        assert!(
            m_csa.total().cycles < m_add.total().cycles,
            "csa {} vs chained {}",
            m_csa.total().cycles,
            m_add.total().cycles
        );
    }

    #[test]
    fn dot_product() {
        let (mut dbc, unit) = setup(7);
        let a = [3u64, 5, 7, 11];
        let b = [2u64, 4, 6, 8];
        let got = unit
            .dot(&mut dbc, &a, &b, 8, &mut CostMeter::new())
            .unwrap();
        let want: u64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert_eq!(got, want);
    }
}
