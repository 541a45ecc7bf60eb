//! ReLU via predicated row refresh (paper §IV-C).
//!
//! The fully-connected layer ends with `ReLU(Wx + b)`: values whose sign
//! bit is `1` (negative in two's complement) are replaced with zero. In
//! CORUSCANT this is a predicated row refresh keyed on the MSB of each
//! lane: the row is read, lanes with a set MSB are reset in the row
//! buffer, and the row is written back.

use crate::Result;
use coruscant_mem::{Dbc, Row};
use coruscant_racetrack::CostMeter;

/// Applies ReLU to row `r` of a DBC, treating it as signed two's-complement
/// lanes of `blocksize` bits. Cost: one row read plus one row write (plus
/// alignment shifts).
///
/// Returns the rectified row.
///
/// # Errors
///
/// Returns a block-size or memory error.
pub fn relu_row(dbc: &mut Dbc, r: usize, blocksize: usize, meter: &mut CostMeter) -> Result<Row> {
    crate::add::validate_blocksize(blocksize, dbc.width())?;
    let word = dbc.read_row(r, meter)?;
    let rectified = relu_reference(&word, blocksize);
    dbc.write_row(r, &rectified, meter)?;
    Ok(rectified)
}

/// Pure ReLU on a packed row (oracle): lanes whose MSB is set become zero.
pub fn relu_reference(row: &Row, blocksize: usize) -> Row {
    row & &!&row.spread_lanes(blocksize - 1, blocksize)
}

/// Interprets an unsigned lane value as signed two's complement of
/// `blocksize` bits (test helper for the signed semantics).
pub fn lane_as_signed(value: u64, blocksize: usize) -> i64 {
    debug_assert!(blocksize <= 64);
    let shift = 64 - blocksize;
    ((value << shift) as i64) >> shift
}

#[cfg(test)]
mod tests {
    use super::*;
    use coruscant_mem::MemoryConfig;

    #[test]
    fn negative_lanes_become_zero() {
        // 8-bit lanes: 0x80..0xFF are negative.
        let vals = [5u64, 0x80, 0xFF, 0x7F, 0, 0xC3, 1, 0xFE];
        let row = Row::pack(64, 8, &vals);
        let got = relu_reference(&row, 8).unpack(8);
        for (l, &v) in vals.iter().enumerate() {
            let want = if lane_as_signed(v, 8) < 0 { 0 } else { v };
            assert_eq!(got[l], want, "lane {l}");
        }
    }

    #[test]
    fn device_level_relu() {
        let config = MemoryConfig::tiny();
        let mut dbc = Dbc::pim_enabled(&config);
        let vals = [0x90u64, 3, 0x7F, 0xFF, 0, 0x81, 100, 200];
        dbc.poke_row(4, &Row::pack(64, 8, &vals)).unwrap();
        let mut m = CostMeter::new();
        let got = relu_row(&mut dbc, 4, 8, &mut m).unwrap();
        assert_eq!(got, relu_reference(&Row::pack(64, 8, &vals), 8));
        assert_eq!(dbc.peek_row(4).unwrap(), got, "written back in place");
        assert!(m.total().cycles >= 2);
    }

    #[test]
    fn positive_rows_unchanged() {
        let row = Row::pack(64, 16, &[1, 0x7FFF, 0, 1234]);
        assert_eq!(relu_reference(&row, 16), row);
    }

    #[test]
    fn signed_interpretation() {
        assert_eq!(lane_as_signed(0xFF, 8), -1);
        assert_eq!(lane_as_signed(0x80, 8), -128);
        assert_eq!(lane_as_signed(0x7F, 8), 127);
        assert_eq!(lane_as_signed(0xFFFF, 16), -1);
    }
}
