//! Logical (inter-nanowire) shifting (paper §III-D, brown paths of Fig. 4a).
//!
//! CORUSCANT distinguishes **logical shifts**, which move bits *between*
//! nanowires through the neighbour-forwarding interconnect (a multiply by
//! two per position), from **DW shifts**, which move the domain trains
//! along the wires to reach different rows. A logical shift by one is a
//! read of the source row forwarded one bitline over and written back; a
//! shift by `k` chains `k` such read/write pairs.

use crate::add::validate_blocksize;
use crate::Result;
use coruscant_mem::{Dbc, Row};
use coruscant_racetrack::CostMeter;

/// Pure logical shift of a row: within each `blocksize` lane, bit `i`
/// moves to bit `i + by`; vacated bits fill with zero and bits shifted
/// past the lane top are dropped. This is the per-lane `<< by`.
pub fn shift_row_left(row: &Row, by: usize, blocksize: usize) -> Row {
    row.shl_lanes(by, blocksize)
}

/// Device-level shifted copy: materializes `src << by` (per `blocksize`
/// lane) into row `dst` of the DBC, charging one read plus one
/// neighbour-forwarded write per shift position (plus DW-shift alignment),
/// exactly the paper's "to write `A << k` requires `k` shifted read and
/// write operations". A `by` of zero is a plain copy (one read/write pair).
///
/// # Errors
///
/// Returns a block-size or memory error.
pub(crate) fn write_shifted_copy(
    dbc: &mut Dbc,
    src: usize,
    dst: usize,
    by: usize,
    blocksize: usize,
    meter: &mut CostMeter,
) -> Result<()> {
    validate_blocksize(blocksize, dbc.width())?;
    if by == 0 {
        let data = dbc.read_row(src, meter)?;
        dbc.write_row(dst, &data, meter)?;
        return Ok(());
    }
    // First pair: src -> dst shifted by one; remaining pairs refine dst in
    // place (read, forward one bitline, write back).
    let mut cur = dbc.read_row(src, meter)?;
    cur = shift_row_left(&cur, 1, blocksize);
    dbc.write_row(dst, &cur, meter)?;
    for _ in 1..by {
        let data = dbc.read_row(dst, meter)?;
        let shifted = shift_row_left(&data, 1, blocksize);
        dbc.write_row(dst, &shifted, meter)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use coruscant_mem::MemoryConfig;

    #[test]
    fn pure_shift_matches_u64_shift_per_lane() {
        let vals = [0x0123u64, 0x00FF, 0x8001, 0xFFFF];
        let row = Row::pack(64, 16, &vals);
        for by in 0..16 {
            let got = shift_row_left(&row, by, 16).unpack(16);
            for (lane, &v) in vals.iter().enumerate() {
                assert_eq!(got[lane], (v << by) & 0xFFFF, "lane {lane} by {by}");
            }
        }
    }

    #[test]
    fn shift_by_zero_is_identity() {
        let row = Row::from_u64_words(64, &[0xDEAD_BEEF]);
        assert_eq!(shift_row_left(&row, 0, 8), row);
    }

    #[test]
    fn bits_do_not_cross_lanes() {
        // A bit at the top of lane 0 must vanish, not enter lane 1.
        let row = Row::pack(64, 8, &[0x80, 0x00, 0, 0, 0, 0, 0, 0]);
        let out = shift_row_left(&row, 1, 8);
        assert_eq!(out.popcount(), 0);
    }

    #[test]
    fn device_level_shifted_copy() {
        let config = MemoryConfig::tiny();
        let mut dbc = Dbc::pim_enabled(&config);
        let vals = [7u64, 200, 1, 128, 0, 3, 99, 255];
        let a = Row::pack(64, 8, &vals);
        dbc.poke_row(2, &a).unwrap();
        let mut m = CostMeter::new();
        write_shifted_copy(&mut dbc, 2, 5, 3, 8, &mut m).unwrap();
        let got = dbc.peek_row(5).unwrap().unpack(8);
        for (lane, &v) in vals.iter().enumerate() {
            assert_eq!(got[lane], (v << 3) & 0xFF, "lane {lane}");
        }
        // 3 read/write pairs plus alignment shifts.
        assert!(m.total().cycles >= 6);
    }

    #[test]
    fn copy_when_by_is_zero() {
        let config = MemoryConfig::tiny();
        let mut dbc = Dbc::pim_enabled(&config);
        let a = Row::from_u64_words(64, &[42]);
        dbc.poke_row(0, &a).unwrap();
        write_shifted_copy(&mut dbc, 0, 9, 0, 8, &mut CostMeter::new()).unwrap();
        assert_eq!(dbc.peek_row(9).unwrap(), a);
    }

    #[test]
    fn source_row_is_preserved() {
        let config = MemoryConfig::tiny();
        let mut dbc = Dbc::pim_enabled(&config);
        let a = Row::pack(64, 8, &[9; 8]);
        dbc.poke_row(1, &a).unwrap();
        write_shifted_copy(&mut dbc, 1, 3, 2, 8, &mut CostMeter::new()).unwrap();
        assert_eq!(dbc.peek_row(1).unwrap(), a);
    }
}
