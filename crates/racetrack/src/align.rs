//! Transverse-read position codes: detecting and correcting shift
//! (alignment) faults.
//!
//! DWM shifting can over- or under-shift the domain train (§II-A). The
//! paper assumes the TR-based alignment fault tolerance it cites (a DSN'19
//! scheme that "counts the number of ones in overhead bits to check
//! position") with < 1% overhead; this module implements that idea so the
//! assumption is backed by working machinery:
//!
//! A *position code* writes a solid run of `1`s into the overhead domains
//! adjacent to the data window. A single transverse read over a fixed
//! physical window that straddles the run's edge then counts how many code
//! ones currently sit inside the window — when the wire is aligned,
//! exactly half the window is filled; each domain of misalignment moves
//! the count by one. One TR therefore reports both the direction and the
//! magnitude of a misalignment (up to ±half the window), and a corrective
//! shift restores alignment.

use crate::cost::CostMeter;
use crate::error::Error;
use crate::nanowire::Nanowire;
use crate::Result;
use serde::{Deserialize, Serialize};

/// The outcome of a position check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Alignment {
    /// The data window sits exactly at the expected offset.
    Aligned,
    /// The train sits `n` domains too far right (over-shifted).
    OverShifted(usize),
    /// The train sits `n` domains too far left (under-shifted).
    UnderShifted(usize),
    /// The misalignment exceeds the code's detection range.
    OutOfRange,
}

impl Alignment {
    /// The corrective shift (in domains, positive = right) that restores
    /// alignment, or `None` when out of range.
    pub(crate) fn correction(&self) -> Option<isize> {
        match self {
            Alignment::Aligned => Some(0),
            Alignment::OverShifted(n) => Some(-(*n as isize)),
            Alignment::UnderShifted(n) => Some(*n as isize),
            Alignment::OutOfRange => None,
        }
    }
}

/// A position code tied to a nanowire geometry.
///
/// The code occupies the `window` overhead domains to the left of the
/// expected data window: the left half holds `1`s, the right half `0`s
/// (the data side). The check window is those same `window` physical
/// positions; a TR over it counts the ones currently inside.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PositionCode {
    /// Physical position of the first check-window domain.
    window_start: usize,
    /// Check window length (≤ the device TRD; even).
    window: usize,
    /// Expected data offset this code was written for.
    expected_offset: usize,
}

impl PositionCode {
    /// Plans a code for `wire`'s canonical alignment using a check window
    /// of `window` domains (even, at least 2, at most the TRD and the
    /// available left overhead).
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadSpec`] when the wire lacks the overhead room
    /// or the window is invalid.
    pub fn plan(wire: &Nanowire, window: usize) -> Result<PositionCode> {
        let spec = wire.spec();
        let expected_offset = spec.initial_offset;
        if window < 2 || !window.is_multiple_of(2) {
            return Err(Error::BadSpec(format!(
                "position-code window {window} must be even and >= 2"
            )));
        }
        if window > spec.trd_limit {
            return Err(Error::BadSpec(format!(
                "position-code window {window} exceeds TRD {}",
                spec.trd_limit
            )));
        }
        if window > expected_offset {
            return Err(Error::BadSpec(format!(
                "position-code window {window} exceeds the left overhead {expected_offset}"
            )));
        }
        Ok(PositionCode {
            window_start: expected_offset - window,
            window,
            expected_offset,
        })
    }

    /// Writes the code pattern: ones in the left half of the window, the
    /// run travelling with the data (maintenance writes; the paper counts
    /// this in the < 1% overhead budget).
    ///
    /// The wire must currently be at its expected alignment.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadSpec`] if the wire is not at the expected
    /// offset, or a range error.
    pub fn install(&self, wire: &mut Nanowire) -> Result<()> {
        if wire.offset() != self.expected_offset as isize {
            return Err(Error::BadSpec(
                "install the position code at the expected alignment".into(),
            ));
        }
        let half = self.window / 2;
        for i in 0..self.window {
            wire.poke_physical(self.window_start + i, i < half)?;
        }
        // Everything left of the run is also ones, so an under-shift
        // pulls more ones into the window instead of zeros.
        for p in 0..self.window_start {
            wire.poke_physical(p, true)?;
        }
        Ok(())
    }

    /// Checks alignment with a single transverse read over the fixed
    /// window.
    ///
    /// # Errors
    ///
    /// Propagates device errors from the TR.
    pub fn check(&self, wire: &mut Nanowire, meter: &mut CostMeter) -> Result<Alignment> {
        let out = wire.transverse_read_window(
            self.window_start,
            self.window_start + self.window - 1,
            meter,
        )?;
        let half = (self.window / 2) as i64;
        let delta = i64::from(out.value) - half;
        // A right (over-)shift pushes the ones run deeper into the
        // window (count rises); a left (under-)shift drains it.
        Ok(match delta {
            0 => Alignment::Aligned,
            d if d > 0 && d < half => Alignment::OverShifted(d as usize),
            d if d < 0 && -d < half => Alignment::UnderShifted((-d) as usize),
            _ => Alignment::OutOfRange,
        })
    }

    /// Checks and, if misaligned within range, repairs the wire with a
    /// corrective shift. Returns the detected state.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn check_and_repair(
        &self,
        wire: &mut Nanowire,
        meter: &mut CostMeter,
    ) -> Result<Alignment> {
        let state = self.check(wire, meter)?;
        if let Some(corr) = state.correction() {
            if corr != 0 {
                wire.force_shift(corr, meter);
            }
        }
        Ok(state)
    }

    /// The unambiguous detection range in domains (half the window,
    /// exclusive: a saturated count cannot be distinguished from a larger
    /// misalignment and reports [`Alignment::OutOfRange`]).
    pub fn range(&self) -> usize {
        self.window / 2 - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nanowire::NanowireSpec;

    fn guarded_wire() -> (Nanowire, PositionCode) {
        let mut wire = Nanowire::new(NanowireSpec::coruscant(32, 7));
        let code = PositionCode::plan(&wire, 6).unwrap();
        code.install(&mut wire).unwrap();
        (wire, code)
    }

    #[test]
    fn aligned_wire_reports_aligned() {
        let (mut wire, code) = guarded_wire();
        let mut m = CostMeter::new();
        assert_eq!(code.check(&mut wire, &mut m).unwrap(), Alignment::Aligned);
        assert_eq!(m.total().cycles, 1, "one TR per check");
    }

    #[test]
    fn detects_over_and_under_shifts_with_magnitude() {
        // A window of 6 detects up to +/-2 unambiguously (a full +/-3
        // saturates the count and reads as out-of-range).
        for shift in 1..=2isize {
            let (mut wire, code) = guarded_wire();
            let mut m = CostMeter::new();
            wire.shift(shift, &mut m).unwrap();
            assert_eq!(
                code.check(&mut wire, &mut m).unwrap(),
                Alignment::OverShifted(shift as usize),
                "shift {shift}"
            );

            let (mut wire, code) = guarded_wire();
            wire.shift(-shift, &mut m).unwrap();
            assert_eq!(
                code.check(&mut wire, &mut m).unwrap(),
                Alignment::UnderShifted(shift as usize)
            );
        }
    }

    #[test]
    fn repair_restores_data_alignment() {
        let (mut wire, code) = guarded_wire();
        for r in 0..32 {
            wire.set_row(r, r % 3 == 0).unwrap();
        }
        let mut m = CostMeter::new();
        wire.shift(2, &mut m).unwrap(); // a double over-shift fault
        let state = code.check_and_repair(&mut wire, &mut m).unwrap();
        assert_eq!(state, Alignment::OverShifted(2));
        assert_eq!(wire.offset(), wire.spec().initial_offset as isize);
        for r in 0..32 {
            assert_eq!(wire.row(r), Some(r % 3 == 0), "row {r} after repair");
        }
        // And a subsequent check is clean.
        assert_eq!(code.check(&mut wire, &mut m).unwrap(), Alignment::Aligned);
    }

    #[test]
    fn beyond_range_reports_out_of_range() {
        let (mut wire, code) = guarded_wire();
        let mut m = CostMeter::new();
        wire.shift((code.range() + 2) as isize, &mut m).unwrap();
        // Far over-shift drains every code one out of the window.
        assert_eq!(
            code.check(&mut wire, &mut m).unwrap(),
            Alignment::OutOfRange
        );
        assert_eq!(Alignment::OutOfRange.correction(), None);
    }

    #[test]
    fn plan_validation() {
        let wire = Nanowire::new(NanowireSpec::coruscant(32, 7));
        assert!(PositionCode::plan(&wire, 5).is_err(), "odd window");
        assert!(PositionCode::plan(&wire, 0).is_err());
        assert!(PositionCode::plan(&wire, 8).is_err(), "exceeds TRD 7");
        // Window of 6 within a 12-domain left overhead: fine.
        assert!(PositionCode::plan(&wire, 6).is_ok());
    }

    #[test]
    fn install_requires_expected_alignment() {
        let mut wire = Nanowire::new(NanowireSpec::coruscant(32, 7));
        let code = PositionCode::plan(&wire, 6).unwrap();
        let mut m = CostMeter::new();
        wire.shift(1, &mut m).unwrap();
        assert!(code.install(&mut wire).is_err());
    }

    #[test]
    fn detection_survives_data_contents() {
        // Whatever the stored data, the check window only sees overhead
        // domains within range.
        for pattern in [0u32, 0xFFFF_FFFF, 0xAAAA_AAAA] {
            let (mut wire, code) = guarded_wire();
            for r in 0..32 {
                wire.set_row(r, pattern >> (r % 32) & 1 == 1).unwrap();
            }
            let mut m = CostMeter::new();
            assert_eq!(code.check(&mut wire, &mut m).unwrap(), Alignment::Aligned);
            wire.shift(1, &mut m).unwrap();
            assert_eq!(
                code.check(&mut wire, &mut m).unwrap(),
                Alignment::OverShifted(1)
            );
        }
    }
}
