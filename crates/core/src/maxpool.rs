//! The max function with transverse writes (paper §IV-B, Figs. 8–9).
//!
//! Up to TRD candidate words sit in the inter-port segment. Working from
//! the MSB down, one transverse read per bit position tells each lane
//! whether *any* candidate has a `1` there; if so, candidates with a `0`
//! are eliminated (overwritten by the zero vector through a predicated
//! row-buffer reset), and if not, every word is passed through unchanged —
//! a zero column cannot eliminate anybody.
//!
//! Rotating the words past the access ports would be prohibitively
//! expensive with whole-wire shifts, so CORUSCANT introduces the
//! **transverse write**: the word under the right head is read, the
//! (possibly reset) value is written back through the left head while only
//! the inter-port segment advances — *segmented shifting* that returns
//! every word to its original position after TRD rounds without disturbing
//! the rest of the wire. After the LSB pass, a final `TR > 0` read yields
//! the maximum regardless of where it sits (and regardless of ties).
//!
//! One bit position — the TR and every read, elimination and transverse
//! write of its rounds — is one plane kernel, [`Dbc::max_pass`];
//! [`MaxExecutor::max_in_place`] (and with it `Max` and `Min`) is a loop
//! over the bit positions.

use crate::sense::at_least;
use crate::{PimError, Result};
use coruscant_mem::{Dbc, MemoryConfig, Row};
use coruscant_racetrack::{CostMeter, PortId};

/// Executes max operations on a PIM-enabled DBC.
#[derive(Debug, Clone)]
pub struct MaxExecutor {
    trd: usize,
}

impl MaxExecutor {
    /// Creates an executor for the configuration's TRD.
    pub fn new(config: &MemoryConfig) -> MaxExecutor {
        MaxExecutor { trd: config.trd }
    }

    /// Maximum number of candidate words.
    pub fn max_candidates(&self) -> usize {
        self.trd
    }

    /// Places up to TRD candidate rows into the segment (write + shift per
    /// candidate, unused positions preset to zero — the zero vector never
    /// wins a max against real data and never forces an elimination).
    ///
    /// # Errors
    ///
    /// Returns [`PimError::NotPim`], operand-count errors, or a memory
    /// error.
    pub fn place_candidates(
        &self,
        dbc: &mut Dbc,
        candidates: &[Row],
        meter: &mut CostMeter,
    ) -> Result<()> {
        if !dbc.is_pim() {
            return Err(PimError::NotPim);
        }
        let k = candidates.len();
        if k == 0 {
            return Err(PimError::TooFewOperands {
                requested: 0,
                min: 1,
            });
        }
        if k > self.trd {
            return Err(PimError::TooManyOperands {
                requested: k,
                max: self.trd,
            });
        }
        crate::bulk::ensure_right_slack(dbc, k as isize - 1, meter)?;
        let zero = Row::zeros(dbc.width());
        for s in 0..self.trd {
            dbc.poke_segment_row(s, &zero)?;
        }
        crate::bulk::place_rows(dbc, candidates, k - 1, meter)?;
        // Restore the zero preset on positions the shifts exposed.
        for s in k..self.trd {
            dbc.poke_segment_row(s, &zero)?;
        }
        Ok(())
    }

    /// Runs the max subroutine over the candidates already in the segment,
    /// using transverse writes for the per-word rotation. Values are
    /// unsigned `blocksize`-bit lanes compared independently.
    ///
    /// Returns the per-lane maximum row. Cost per bit position: one TR
    /// plus `TRD × (read + TW)`; final extraction is one more TR.
    ///
    /// # Errors
    ///
    /// Returns a block-size or memory error.
    pub fn max_in_place(
        &self,
        dbc: &mut Dbc,
        blocksize: usize,
        meter: &mut CostMeter,
    ) -> Result<Row> {
        crate::add::validate_blocksize(blocksize, dbc.width())?;
        for j in (0..blocksize).rev() {
            // One TR, then all TRD words rotate through the heads.
            dbc.max_pass(j, blocksize, self.trd, meter)?;
        }

        // Extraction: TR > 0 per wire reads the max regardless of its
        // position or multiplicity (paper: ties still read correctly).
        Ok(at_least(&dbc.transverse_read_all(meter)?, 1))
    }

    /// Full max operation: placement + in-place subroutine.
    ///
    /// # Errors
    ///
    /// As [`MaxExecutor::place_candidates`] and
    /// [`MaxExecutor::max_in_place`].
    pub fn max_rows(
        &self,
        dbc: &mut Dbc,
        candidates: &[Row],
        blocksize: usize,
        meter: &mut CostMeter,
    ) -> Result<Row> {
        self.place_candidates(dbc, candidates, meter)?;
        self.max_in_place(dbc, blocksize, meter)
    }

    /// The pre-TW baseline (the ablation of §IV-B): the same algorithm but
    /// rotating each word with conventional row accesses (align + read +
    /// align + write) instead of transverse writes. Candidates live at
    /// rows `base..base + k`.
    ///
    /// # Errors
    ///
    /// Returns a block-size or memory error.
    pub fn max_rows_without_tw(
        &self,
        dbc: &mut Dbc,
        base: usize,
        k: usize,
        blocksize: usize,
        meter: &mut CostMeter,
    ) -> Result<Row> {
        crate::add::validate_blocksize(blocksize, dbc.width())?;
        if k == 0 {
            return Err(PimError::TooFewOperands {
                requested: 0,
                min: 1,
            });
        }
        if k > self.trd {
            return Err(PimError::TooManyOperands {
                requested: k,
                max: self.trd,
            });
        }
        for j in (0..blocksize).rev() {
            dbc.align_row(base, PortId::LEFT, meter)?;
            let positive = at_least(&dbc.transverse_read_all(meter)?, 1);
            for r in base..base + k {
                // The predicated row-buffer reset: a lane whose bit `j` is
                // `0` while some candidate has a `1` there is cleared.
                let word = dbc.read_row(r, meter)?;
                let loses = (&positive & &!&word).spread_lanes(j, blocksize);
                dbc.write_row(r, &(&word & &!&loses), meter)?;
            }
        }
        dbc.align_row(base, PortId::LEFT, meter)?;
        Ok(at_least(&dbc.transverse_read_all(meter)?, 1))
    }

    /// Reference max (oracle): lane-wise maximum across the candidates.
    pub fn reference(candidates: &[Row], blocksize: usize) -> Row {
        let width = candidates[0].width();
        let lanes = width / blocksize;
        let mut maxes = vec![0u64; lanes];
        for c in candidates {
            for (l, v) in c.unpack(blocksize).into_iter().enumerate() {
                maxes[l] = maxes[l].max(v);
            }
        }
        Row::pack(width, blocksize, &maxes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Dbc, MaxExecutor) {
        let config = MemoryConfig::tiny();
        (Dbc::pim_enabled(&config), MaxExecutor::new(&config))
    }

    fn rows(values: &[[u64; 8]]) -> Vec<Row> {
        values.iter().map(|v| Row::pack(64, 8, v)).collect()
    }

    #[test]
    fn max_of_four_words_matches_fig8_style_case() {
        let (mut dbc, max) = setup();
        let candidates = rows(&[
            [0b1010, 9, 200, 0, 17, 255, 3, 128],
            [0b1100, 9, 201, 0, 18, 254, 3, 129],
            [0b1111, 8, 0, 0, 19, 253, 2, 130],
            [0b0111, 7, 5, 0, 20, 252, 1, 131],
        ]);
        let mut m = CostMeter::new();
        let got = max.max_rows(&mut dbc, &candidates, 8, &mut m).unwrap();
        assert_eq!(got, MaxExecutor::reference(&candidates, 8));
        assert_eq!(got.unpack(8)[0], 0b1111);
    }

    #[test]
    fn max_with_ties_reads_correctly() {
        let (mut dbc, max) = setup();
        let candidates = rows(&[[200; 8], [200; 8], [100; 8]]);
        let got = max
            .max_rows(&mut dbc, &candidates, 8, &mut CostMeter::new())
            .unwrap();
        assert_eq!(got.unpack(8), vec![200; 8]);
    }

    #[test]
    fn max_of_all_zero_lane_is_zero() {
        let (mut dbc, max) = setup();
        let candidates = rows(&[[0, 5, 0, 0, 0, 0, 0, 0], [0, 3, 0, 0, 0, 0, 0, 0]]);
        let got = max
            .max_rows(&mut dbc, &candidates, 8, &mut CostMeter::new())
            .unwrap();
        assert_eq!(got.unpack(8)[0], 0);
        assert_eq!(got.unpack(8)[1], 5);
    }

    #[test]
    fn seven_candidates_fill_the_segment() {
        let (mut dbc, max) = setup();
        let candidates: Vec<Row> = (1..=7u64)
            .map(|k| Row::pack(64, 8, &[k * 7 % 256; 8]))
            .collect();
        let got = max
            .max_rows(&mut dbc, &candidates, 8, &mut CostMeter::new())
            .unwrap();
        assert_eq!(got, MaxExecutor::reference(&candidates, 8));
    }

    #[test]
    fn tw_cycle_count_per_paper_model() {
        // Per bit: 1 TR + TRD*(read + TW); extraction: 1 TR.
        let (mut dbc, max) = setup();
        let candidates = rows(&[[1; 8], [2; 8]]);
        let mut m = CostMeter::new();
        max.place_candidates(&mut dbc, &candidates, &mut m).unwrap();
        m.take();
        max.max_in_place(&mut dbc, 8, &mut m).unwrap();
        let expect = 8 * (1 + 7 * 2) + 1;
        assert_eq!(m.total().cycles, expect as u64);
    }

    #[test]
    fn tw_variant_saves_cycles_over_shift_variant() {
        // Paper: TW reduces max-function cycles by 28.5% at TRD = 7. The
        // comparison is over a full segment of TRD candidate words.
        let candidates = rows(&[
            [13; 8], [240; 8], [99; 8], [100; 8], [1; 8], [239; 8], [77; 8],
        ]);

        let (mut dbc, max) = setup();
        let mut m_tw = CostMeter::new();
        let tw_result = max.max_rows(&mut dbc, &candidates, 8, &mut m_tw).unwrap();

        let (mut dbc2, max2) = setup();
        for (i, c) in candidates.iter().enumerate() {
            dbc2.poke_row(10 + i, c).unwrap();
        }
        let mut m_shift = CostMeter::new();
        let shift_result = max2
            .max_rows_without_tw(&mut dbc2, 10, 7, 8, &mut m_shift)
            .unwrap();

        assert_eq!(tw_result, shift_result);
        let tw = m_tw.total().cycles as f64;
        let base = m_shift.total().cycles as f64;
        let saving = (base - tw) / base;
        assert!(
            saving > 0.20,
            "TW saving {saving:.3} (tw {tw}, baseline {base})"
        );
    }

    #[test]
    fn wide_lane_max() {
        let (mut dbc, max) = setup();
        let candidates = vec![
            Row::pack(64, 32, &[1_000_000, 7]),
            Row::pack(64, 32, &[999_999, 8]),
        ];
        let got = max
            .max_rows(&mut dbc, &candidates, 32, &mut CostMeter::new())
            .unwrap();
        assert_eq!(got.unpack(32), vec![1_000_000, 8]);
    }

    #[test]
    fn errors() {
        let (mut dbc, max) = setup();
        let mut m = CostMeter::new();
        assert!(matches!(
            max.max_rows(&mut dbc, &[], 8, &mut m),
            Err(PimError::TooFewOperands { .. })
        ));
        let eight: Vec<Row> = (0..8u64).map(|k| Row::pack(64, 8, &[k; 8])).collect();
        assert!(matches!(
            max.max_rows(&mut dbc, &eight, 8, &mut m),
            Err(PimError::TooManyOperands { .. })
        ));
        let mut storage = Dbc::storage(&MemoryConfig::tiny());
        assert!(matches!(
            max.max_rows(&mut storage, &eight[..2], 8, &mut m),
            Err(PimError::NotPim)
        ));
    }

    #[test]
    fn baseline_operand_counts() {
        let (mut dbc, max) = setup();
        let mut m = CostMeter::new();
        let none = max.max_rows_without_tw(&mut dbc, 10, 0, 8, &mut m);
        let err = none.unwrap_err();
        assert_eq!(
            err,
            PimError::TooFewOperands {
                requested: 0,
                min: 1
            }
        );
        assert_eq!(err.to_string(), "0 operands below the minimum of 1");
        let err = max
            .max_rows_without_tw(&mut dbc, 10, 8, 8, &mut m)
            .unwrap_err();
        assert_eq!(
            err,
            PimError::TooManyOperands {
                requested: 8,
                max: 7
            }
        );
        assert_eq!(m, CostMeter::new());
    }
}
