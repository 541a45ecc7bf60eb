//! The seven-level transverse-read sense amplifier (paper Fig. 4a).
//!
//! A transverse read senses an aggregate resistance that encodes the number
//! of `1` domains in the spanned segment, akin to a multi-level STT-MRAM
//! cell. The CORUSCANT sense amplifier extension compares that resistance
//! against seven references and outputs threshold bits `SA[j]` with
//! `SA[j] = 1` iff the segment holds at least `j` ones, `j ∈ 1..=7`.

use coruscant_mem::{Row, TrCounts};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The threshold outputs of one sense amplifier after a transverse read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SenseLevels {
    count: u8,
    span: u8,
}

impl SenseLevels {
    /// Builds the levels from an explicit ones-count and span.
    ///
    /// # Panics
    ///
    /// Panics if `count > span` or `span > 7` (the sense amplifier has
    /// seven references).
    pub fn new(count: u8, span: u8) -> SenseLevels {
        assert!(span <= 7, "seven-level sense amplifier");
        assert!(count <= span, "count cannot exceed span");
        SenseLevels { count, span }
    }

    /// The sensed ones-count.
    pub fn count(&self) -> u8 {
        self.count
    }

    /// The number of domains spanned by the read.
    pub fn span(&self) -> u8 {
        self.span
    }

    /// Threshold output `SA[j]`: whether at least `j` ones were sensed.
    ///
    /// # Panics
    ///
    /// Panics if `j` is 0 or exceeds 7.
    pub fn at_least(&self, j: u8) -> bool {
        assert!((1..=7).contains(&j), "SA levels are 1..=7");
        self.count >= j
    }

    /// All seven threshold bits, `[SA[1], ..., SA[7]]`.
    pub fn bits(&self) -> [bool; 7] {
        let mut out = [false; 7];
        for (j, bit) in out.iter_mut().enumerate() {
            *bit = self.count >= (j as u8 + 1);
        }
        out
    }
}

/// Threshold output `SA[level]` of every bitline after a parallel
/// transverse read: the row of wires that sensed at least `level` ones.
///
/// # Panics
///
/// Panics if `level` is 0 or exceeds 7.
pub fn at_least(counts: &TrCounts, level: u8) -> Row {
    let (above, equal) = compare(counts, level);
    &above | &equal
}

/// The row of wires on which every spanned domain held a one (the AND
/// output): the count equals the span.
pub fn full(counts: &TrCounts) -> Row {
    compare(counts, counts.span).1
}

/// Rows of the wires whose count is above `level` and equal to it: a
/// bit-sliced comparator down the count digits, most significant first.
fn compare(counts: &TrCounts, level: u8) -> (Row, Row) {
    assert!((1..=7).contains(&level), "SA levels are 1..=7");
    let width = counts.sum.width();
    let (mut above, mut equal) = (Row::zeros(width), Row::ones(width));
    for (digit, row) in [
        (4, &counts.super_carry),
        (2, &counts.carry),
        (1, &counts.sum),
    ] {
        if level & digit != 0 {
            equal = &equal & row;
        } else {
            above = &above | &(&equal & row);
            equal = &equal & &!row;
        }
    }
    (above, equal)
}

impl fmt::Display for SenseLevels {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} of {} ones", self.count, self.span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_are_monotone() {
        for c in 0..=7u8 {
            let s = SenseLevels::new(c, 7);
            let bits = s.bits();
            for j in 1..7 {
                assert!(!bits[j] || bits[j - 1], "SA thresholds must be monotone");
            }
            assert_eq!(bits.iter().filter(|&&b| b).count() as u8, c);
        }
    }

    #[test]
    fn at_least_matches_bits() {
        let s = SenseLevels::new(4, 7);
        for j in 1..=7u8 {
            assert_eq!(s.at_least(j), s.bits()[(j - 1) as usize]);
        }
    }

    #[test]
    #[should_panic(expected = "count cannot exceed span")]
    fn rejects_count_over_span() {
        SenseLevels::new(5, 4);
    }

    #[test]
    #[should_panic(expected = "SA levels are 1..=7")]
    fn rejects_level_zero() {
        SenseLevels::new(1, 7).at_least(0);
    }

    #[test]
    fn display() {
        assert_eq!(SenseLevels::new(2, 7).to_string(), "2 of 7 ones");
    }
}
