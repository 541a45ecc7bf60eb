//! N-modular redundancy for PIM fault tolerance (paper §III-F, Fig. 7).
//!
//! ECC is not homomorphic under PIM, so CORUSCANT protects computations by
//! repeating them N ∈ {3, 5, 7} times and voting. The voter is the
//! polymorphic gate itself: the N result rows are placed between the
//! access ports with balanced constant padding ((TRD − N)/2 rows of `1`s
//! and of `0`s), so the median sense level of the segment — the
//! super-carry circuit `C'` at TRD = 7 — reports the bitwise majority.
//! An uncorrectable error then requires ⌈N/2⌉ faults in the same bit
//! position.

use crate::{PimError, Result};
use coruscant_mem::{Dbc, MemoryConfig, Row};
use coruscant_racetrack::CostMeter;

/// Supported redundancy degrees.
pub(crate) const SUPPORTED_N: [usize; 3] = [3, 5, 7];

/// Executes majority voting over replicated PIM results.
#[derive(Debug, Clone)]
pub struct NmrVoter {
    trd: usize,
}

impl NmrVoter {
    /// Creates a voter for the configuration's TRD.
    pub fn new(config: &MemoryConfig) -> NmrVoter {
        NmrVoter { trd: config.trd }
    }

    /// Creates a voter for an explicit TRD.
    pub fn with_trd(trd: usize) -> NmrVoter {
        NmrVoter { trd }
    }

    /// Degrees of redundancy this TRD can vote on: `N` must be odd, at
    /// most TRD, and leave an even number of padding slots.
    pub fn supported_n(&self) -> Vec<usize> {
        SUPPORTED_N
            .iter()
            .copied()
            .filter(|&n| n <= self.trd && (self.trd - n).is_multiple_of(2))
            .collect()
    }

    /// The sense threshold that reports the majority: the median level of
    /// the padded segment, `(TRD + 1) / 2`. At TRD = 7 this is level 4 —
    /// exactly the super-carry `C'` circuit (paper §III-F).
    pub(crate) fn majority_level(&self) -> u8 {
        self.trd.div_ceil(2) as u8
    }

    /// Votes over `results.len() = N` replicated result rows: places them
    /// in the segment with balanced `1`/`0` padding (preset constants),
    /// performs one transverse read, and thresholds at the majority level.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::NotPim`], or operand-count errors when `N` is
    /// unsupported for this TRD.
    pub fn vote_rows(&self, dbc: &mut Dbc, results: &[Row], meter: &mut CostMeter) -> Result<Row> {
        if !dbc.is_pim() {
            return Err(PimError::NotPim);
        }
        let n = results.len();
        if !self.supported_n().contains(&n) {
            return Err(if n > self.trd {
                PimError::TooManyOperands {
                    requested: n,
                    max: self.trd,
                }
            } else {
                PimError::TooFewOperands {
                    requested: n,
                    min: 3,
                }
            });
        }
        let pad = (self.trd - n) / 2;
        let ones = Row::ones(dbc.width());
        let zeros = Row::zeros(dbc.width());
        // Preset the padding (Fig. 7c/d: constants maintained adjacent to
        // the operation's own padding rows).
        for s in 0..pad {
            dbc.poke_segment_row(s, &ones)?;
            dbc.poke_segment_row(self.trd - 1 - s, &zeros)?;
        }
        // Place the replicated results in the middle (costed writes; the
        // replicas were just produced at the ports, one write + shift per
        // replica mirrors the operation's own write-back path).
        for (i, r) in results.iter().enumerate() {
            if r.width() != dbc.width() {
                return Err(PimError::Mem(coruscant_mem::MemError::WidthMismatch {
                    got: r.width(),
                    expected: dbc.width(),
                }));
            }
            // The replica is poked directly at its target position — the
            // voter replica placement is modeled as one write cycle per
            // replica.
            meter.charge(coruscant_racetrack::Cost::new(1, 0.1 * dbc.width() as f64));
            dbc.poke_segment_row(pad + i, r)?;
        }

        // One transverse read; the median threshold is the majority.
        let counts = dbc.transverse_read_all(meter)?;
        Ok(crate::sense::at_least(&counts, self.majority_level()))
    }

    /// Reference bitwise majority (oracle).
    pub fn reference(results: &[Row]) -> Row {
        let width = results[0].width();
        let need = results.len() / 2 + 1;
        (0..width)
            .map(|w| results.iter().filter(|r| r.get(w).unwrap_or(false)).count() >= need)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(trd: usize) -> (Dbc, NmrVoter) {
        let config = MemoryConfig::tiny().with_trd(trd);
        (Dbc::pim_enabled(&config), NmrVoter::with_trd(trd))
    }

    #[test]
    fn majority_level_is_cprime_at_trd7() {
        assert_eq!(NmrVoter::with_trd(7).majority_level(), 4);
        assert_eq!(NmrVoter::with_trd(5).majority_level(), 3);
        assert_eq!(NmrVoter::with_trd(3).majority_level(), 2);
    }

    #[test]
    fn supported_degrees_match_paper() {
        assert_eq!(NmrVoter::with_trd(7).supported_n(), vec![3, 5, 7]);
        assert_eq!(NmrVoter::with_trd(5).supported_n(), vec![3, 5]);
        assert_eq!(NmrVoter::with_trd(3).supported_n(), vec![3]);
    }

    #[test]
    fn tmr_corrects_single_faulty_replica() {
        let (mut dbc, voter) = setup(7);
        let good = Row::from_u64_words(64, &[0xDEAD_BEEF_0123_4567]);
        let mut faulty = good.clone();
        for w in [0usize, 13, 40, 63] {
            faulty.set(w, !faulty.get(w).unwrap());
        }
        let got = voter
            .vote_rows(
                &mut dbc,
                &[good.clone(), faulty, good.clone()],
                &mut CostMeter::new(),
            )
            .unwrap();
        assert_eq!(got, good);
    }

    #[test]
    fn tmr_cannot_correct_two_aligned_faults() {
        let (mut dbc, voter) = setup(7);
        let good = Row::zeros(64);
        let mut faulty = good.clone();
        faulty.set(5, true);
        let got = voter
            .vote_rows(
                &mut dbc,
                &[faulty.clone(), faulty, good.clone()],
                &mut CostMeter::new(),
            )
            .unwrap();
        assert_ne!(got, good, "two aligned faults defeat TMR");
        assert!(got.get(5).unwrap());
    }

    #[test]
    fn quintuple_redundancy_corrects_two_faults() {
        let (mut dbc, voter) = setup(7);
        let good = Row::from_u64_words(64, &[0xAAAA_5555]);
        let mut f1 = good.clone();
        f1.set(2, !f1.get(2).unwrap());
        let mut f2 = good.clone();
        f2.set(2, !f2.get(2).unwrap()); // same position, still outvoted 3:2
        let replicas = [good.clone(), f1, f2, good.clone(), good.clone()];
        let got = voter
            .vote_rows(&mut dbc, &replicas, &mut CostMeter::new())
            .unwrap();
        assert_eq!(got, good);
    }

    #[test]
    fn septuple_redundancy_fills_segment() {
        let (mut dbc, voter) = setup(7);
        let good = Row::from_u64_words(64, &[0x0F0F_F0F0]);
        let mut replicas = vec![good.clone(); 7];
        for (i, r) in replicas.iter_mut().enumerate().take(3) {
            r.set(i, !r.get(i).unwrap());
        }
        let got = voter
            .vote_rows(&mut dbc, &replicas, &mut CostMeter::new())
            .unwrap();
        assert_eq!(got, good, "three scattered faults among seven replicas");
    }

    #[test]
    fn vote_matches_reference_oracle() {
        let (mut dbc, voter) = setup(7);
        let replicas: Vec<Row> = [0x1234u64, 0x1236, 0x1235]
            .iter()
            .map(|&v| Row::from_u64_words(64, &[v]))
            .collect();
        let got = voter
            .vote_rows(&mut dbc, &replicas, &mut CostMeter::new())
            .unwrap();
        assert_eq!(got, NmrVoter::reference(&replicas));
    }

    #[test]
    fn trd5_and_trd3_voting() {
        let (mut dbc, voter) = setup(5);
        let good = Row::from_u64_words(64, &[0xCAFE]);
        let mut bad = good.clone();
        bad.set(1, !bad.get(1).unwrap());
        let got = voter
            .vote_rows(
                &mut dbc,
                &[good.clone(), bad, good.clone()],
                &mut CostMeter::new(),
            )
            .unwrap();
        assert_eq!(got, good);

        let (mut dbc3, voter3) = setup(3);
        let mut bad2 = good.clone();
        bad2.set(9, !bad2.get(9).unwrap());
        let got3 = voter3
            .vote_rows(
                &mut dbc3,
                &[good.clone(), good.clone(), bad2],
                &mut CostMeter::new(),
            )
            .unwrap();
        assert_eq!(got3, good);
    }

    #[test]
    fn unsupported_degrees_rejected() {
        let (mut dbc, voter) = setup(7);
        let r = Row::zeros(64);
        assert!(voter
            .vote_rows(&mut dbc, &vec![r.clone(); 4], &mut CostMeter::new())
            .is_err());
        assert!(voter
            .vote_rows(&mut dbc, &vec![r.clone(); 8], &mut CostMeter::new())
            .is_err());
        let (mut dbc5, voter5) = setup(5);
        assert!(voter5
            .vote_rows(&mut dbc5, &vec![r.clone(); 7], &mut CostMeter::new())
            .is_err());
    }

    #[test]
    fn voting_is_cheap() {
        // One write per replica + one TR.
        let (mut dbc, voter) = setup(7);
        let r = Row::ones(64);
        let mut m = CostMeter::new();
        voter
            .vote_rows(&mut dbc, &[r.clone(), r.clone(), r.clone()], &mut m)
            .unwrap();
        assert_eq!(m.total().cycles, 4);
    }
}
