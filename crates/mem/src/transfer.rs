//! In-memory data movement: RowClone-style copies between DBCs.
//!
//! CORUSCANT moves operands from storage DBCs to PIM-enabled DBCs through
//! the hierarchical row buffer (paper §III-A: "the shared row buffer in the
//! subarray or across subarrays can be used to move data from non-PIM DBCs
//! to PIM-enabled DBCs"), following the RowClone intra-subarray /
//! inter-bank copy mechanisms the paper builds on.

use crate::address::RowAddress;
use crate::controller::MemoryController;
use crate::Result;
use coruscant_racetrack::CostMeter;

/// Scope of a row copy, which determines its cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyScope {
    /// Source and destination share a subarray (fast RowClone path: the
    /// row buffer refreshes the source and overrides the destination).
    IntraSubarray,
    /// Source and destination share a bank but not a subarray.
    IntraBank,
    /// Source and destination are in different banks (uses the shared
    /// internal bus).
    InterBank,
}

/// Classifies the copy scope of a source/destination pair.
pub(crate) fn classify(src: RowAddress, dst: RowAddress) -> CopyScope {
    if src.location.bank == dst.location.bank {
        if src.location.subarray == dst.location.subarray {
            CopyScope::IntraSubarray
        } else {
            CopyScope::IntraBank
        }
    } else {
        CopyScope::InterBank
    }
}

/// Copies one row from `src` to `dst` through the row-buffer hierarchy.
///
/// The copy is functional (the destination DBC really receives the data)
/// and charges device-level cost to `meter`: a row read, the buffer
/// traversal, and a row write. Wider scopes add bus cycles.
///
/// Returns the scope that was used.
///
/// # Errors
///
/// Propagates address validation and device errors.
pub fn copy_row(
    ctrl: &mut MemoryController,
    src: RowAddress,
    dst: RowAddress,
    meter: &mut CostMeter,
) -> Result<CopyScope> {
    let scope = classify(src, dst);
    let data = ctrl.load_row(src, meter)?;

    // Crossing subarrays or banks costs extra interconnect cycles.
    let extra = match scope {
        CopyScope::IntraSubarray => 0,
        CopyScope::IntraBank => 2,
        CopyScope::InterBank => 8,
    };
    if extra > 0 {
        meter.charge(coruscant_racetrack::Cost::cycles(extra));
    }

    ctrl.store_row(dst, &data, meter)?;
    Ok(scope)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::DbcLocation;
    use crate::config::MemoryConfig;
    use crate::row::Row;

    fn setup() -> MemoryController {
        MemoryController::new(MemoryConfig::tiny())
    }

    #[test]
    fn scope_classification() {
        let a = RowAddress::new(DbcLocation::new(0, 0, 0, 1), 0);
        let same_sub = RowAddress::new(DbcLocation::new(0, 0, 1, 0), 3);
        let same_bank = RowAddress::new(DbcLocation::new(0, 1, 0, 0), 3);
        let other_bank = RowAddress::new(DbcLocation::new(1, 0, 0, 0), 3);
        assert_eq!(classify(a, same_sub), CopyScope::IntraSubarray);
        assert_eq!(classify(a, same_bank), CopyScope::IntraBank);
        assert_eq!(classify(a, other_bank), CopyScope::InterBank);
    }

    #[test]
    fn copy_moves_data_functionally() {
        let mut c = setup();
        let src = RowAddress::new(DbcLocation::new(0, 0, 0, 1), 4);
        let dst = RowAddress::new(DbcLocation::new(0, 0, 0, 0), 2);
        let row = Row::from_u64_words(64, &[0xC0FFEE]);
        let mut m = CostMeter::new();
        c.store_row(src, &row, &mut m).unwrap();

        let scope = copy_row(&mut c, src, dst, &mut m).unwrap();
        assert_eq!(scope, CopyScope::IntraSubarray);
        assert_eq!(c.load_row(dst, &mut m).unwrap(), row);
    }

    #[test]
    fn wider_scopes_cost_more() {
        let row = Row::from_u64_words(64, &[1]);
        let mut costs = Vec::new();
        for dst_loc in [
            DbcLocation::new(0, 0, 1, 0), // intra-subarray? same subarray 0
            DbcLocation::new(0, 1, 0, 0), // intra-bank
            DbcLocation::new(1, 0, 0, 0), // inter-bank
        ] {
            let mut c = setup();
            let src = RowAddress::new(DbcLocation::new(0, 0, 0, 1), 4);
            let dst = RowAddress::new(dst_loc, 4);
            let mut m = CostMeter::new();
            c.store_row(src, &row, &mut m).unwrap();
            m.take();
            copy_row(&mut c, src, dst, &mut m).unwrap();
            costs.push(m.total().cycles);
        }
        assert!(costs[0] < costs[1], "{costs:?}");
        assert!(costs[1] < costs[2], "{costs:?}");
    }

    #[test]
    fn copy_into_pim_dbc_lands_in_pim_geometry() {
        let mut c = setup();
        let src = RowAddress::new(DbcLocation::new(0, 0, 0, 2), 0);
        let dst = RowAddress::new(DbcLocation::new(0, 0, 0, 0), 0);
        let row = Row::ones(64);
        let mut m = CostMeter::new();
        c.store_row(src, &row, &mut m).unwrap();
        copy_row(&mut c, src, dst, &mut m).unwrap();
        let dbc = c.dbc(dst.location).unwrap();
        assert!(dbc.is_pim());
        assert_eq!(dbc.peek_row(0).unwrap(), row);
    }
}
