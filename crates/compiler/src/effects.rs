//! Read/write effect summaries for program steps — the dependence model
//! every pass builds on.
//!
//! The compiler only reorders, fuses or deletes steps when the effect
//! summaries prove it sound. Effects are deliberately conservative: bulk
//! bitwise operations and `copy` have exact operand reads plus the
//! destination write-back, while every other opcode *clobbers* its whole
//! DBC because the arithmetic algorithms use scratch rows (the
//! multiplier's reduction window and partial-product pool, the reducer's
//! in-place rows). A clobbering step conflicts with anything on the same
//! DBC, so it is never moved past same-DBC work and never deleted.
//!
//! # Placement residue
//!
//! Bulk operations additionally carry a *smear* window: the inter-port
//! segment the operands are staged into physically aliases the data rows
//! currently shifted under it, so executing a bulk op leaves placement
//! residue (operand copies and padding constants) in a bounded window of
//! rows near its operands. The window is a static over-approximation of
//! where that residue can land (see [`instr_effects`]); passes treat it
//! as an unpredictable write, never as a value definition. Programs that
//! *read* residue rows they never rewrote observe machine state below
//! this model's resolution — the compiler's contract (DESIGN.md §5)
//! excludes them, and [`crate::differential_verify`] is the safety net.

use coruscant_core::isa::{CpimInstr, CpimOpcode};
use coruscant_core::program::Step;
use coruscant_mem::DbcLocation;

/// One step's effect summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct StepEffects {
    /// Data rows the step reads, in access order.
    pub reads: Vec<(DbcLocation, usize)>,
    /// Data rows the step writes.
    pub writes: Vec<(DbcLocation, usize)>,
    /// A DBC the step may read or write anywhere (scratch-using
    /// arithmetic); forces conflicts with every same-DBC step.
    pub clobbers: Option<DbcLocation>,
    /// Rows `lo..=hi` of a DBC the step may overwrite with placement
    /// residue (operand staging under the inter-port segment). Treated
    /// as a write for conflicts, but never as a definition for liveness.
    pub smear: Option<(DbcLocation, usize, usize)>,
    /// Whether the step is a readout. Readouts produce the program's
    /// observable output *in order*, so their relative order is pinned.
    pub is_readout: bool,
}

/// Whether an opcode's effects are exactly its operand reads plus the
/// optional destination write-back (no hidden scratch rows).
pub(crate) fn is_pure_bulk(opcode: CpimOpcode) -> bool {
    matches!(
        opcode,
        CpimOpcode::And
            | CpimOpcode::Nand
            | CpimOpcode::Or
            | CpimOpcode::Nor
            | CpimOpcode::Xor
            | CpimOpcode::Xnor
            | CpimOpcode::Not
    )
}

/// The effect summary of one instruction.
///
/// The bulk smear window is derived from the DBC geometry: staging aligns
/// the last operand row `src + k - 1` under either access port, putting
/// the TRD-wide (≤ 7) segment window over rows within 6 of it, and slack
/// and placement shifts move the window by at most `k - 1` more. The
/// union over all cases is `src - 6 ..= src + 2k + 4`, clamped at row 0.
pub(crate) fn instr_effects(instr: &CpimInstr) -> StepEffects {
    let loc = instr.src.location;
    let dst: Vec<(DbcLocation, usize)> =
        instr.dst.map(|d| (d.location, d.row)).into_iter().collect();
    if is_pure_bulk(instr.opcode) {
        let k = instr.operands as usize;
        StepEffects {
            reads: (0..k).map(|i| (loc, instr.src.row + i)).collect(),
            writes: dst,
            clobbers: None,
            smear: Some((
                loc,
                instr.src.row.saturating_sub(6),
                instr.src.row + 2 * k + 4,
            )),
            is_readout: false,
        }
    } else if instr.opcode == CpimOpcode::Copy {
        StepEffects {
            reads: vec![(loc, instr.src.row)],
            writes: dst,
            clobbers: None,
            smear: None,
            is_readout: false,
        }
    } else {
        // Scratch-using arithmetic: exact rows unknown at this level.
        StepEffects {
            reads: Vec::new(),
            writes: dst,
            clobbers: Some(loc),
            smear: None,
            is_readout: false,
        }
    }
}

/// The effect summary of one step.
pub(crate) fn step_effects(step: &Step) -> StepEffects {
    match step {
        Step::Load { addr, .. } => StepEffects {
            reads: Vec::new(),
            writes: vec![(addr.location, addr.row)],
            clobbers: None,
            smear: None,
            is_readout: false,
        },
        Step::Readout { addr, .. } => StepEffects {
            reads: vec![(addr.location, addr.row)],
            writes: Vec::new(),
            clobbers: None,
            smear: None,
            is_readout: true,
        },
        Step::Exec(i) => instr_effects(i),
    }
}

impl StepEffects {
    /// Whether the step touches any row of `loc` (reads, writes, smears,
    /// or clobbers it).
    pub(crate) fn touches(&self, loc: DbcLocation) -> bool {
        self.clobbers == Some(loc)
            || self.smear.is_some_and(|(l, _, _)| l == loc)
            || self.reads.iter().any(|(l, _)| *l == loc)
            || self.writes.iter().any(|(l, _)| *l == loc)
    }
}

/// Whether two steps must keep their relative order: any read/write,
/// write/read or write/write overlap (smear counting as a write), any
/// clobber touching the other step's DBC, or two readouts (output order
/// is observable).
pub(crate) fn conflict(a: &StepEffects, b: &StepEffects) -> bool {
    if a.is_readout && b.is_readout {
        return true;
    }
    if let Some(loc) = a.clobbers {
        if b.touches(loc) {
            return true;
        }
    }
    if let Some(loc) = b.clobbers {
        if a.touches(loc) {
            return true;
        }
    }
    let smear_hits = |x: &StepEffects, y: &StepEffects| {
        let Some((loc, lo, hi)) = x.smear else {
            return false;
        };
        y.reads
            .iter()
            .chain(y.writes.iter())
            .any(|(l, r)| *l == loc && (lo..=hi).contains(r))
            || y.smear
                .is_some_and(|(l2, lo2, hi2)| l2 == loc && lo2 <= hi && lo <= hi2)
    };
    if smear_hits(a, b) || smear_hits(b, a) {
        return true;
    }
    let overlaps =
        |x: &[(DbcLocation, usize)], y: &[(DbcLocation, usize)]| x.iter().any(|r| y.contains(r));
    overlaps(&a.writes, &b.reads) || overlaps(&a.writes, &b.writes) || overlaps(&a.reads, &b.writes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use coruscant_core::isa::BlockSize;
    use coruscant_mem::RowAddress;

    fn loc() -> DbcLocation {
        DbcLocation::new(0, 0, 0, 0)
    }

    fn and(src: usize, k: u8, dst: usize) -> CpimInstr {
        CpimInstr::new(
            CpimOpcode::And,
            RowAddress::new(loc(), src),
            k,
            BlockSize::new(8).unwrap(),
            Some(RowAddress::new(loc(), dst)),
        )
        .unwrap()
    }

    #[test]
    fn bulk_effects_are_exact() {
        let e = instr_effects(&and(4, 3, 20));
        assert_eq!(e.reads, vec![(loc(), 4), (loc(), 5), (loc(), 6)]);
        assert_eq!(e.writes, vec![(loc(), 20)]);
        assert_eq!(e.clobbers, None);
        assert_eq!(
            e.smear,
            Some((loc(), 0, 14)),
            "residue window src-6..src+2k+4"
        );
    }

    #[test]
    fn smear_orders_bulk_against_nearby_rows() {
        let e = instr_effects(&and(10, 2, 20));
        // Residue window 4..=18: a load of row 15 must not cross the op,
        // a load of row 25 may.
        let near = step_effects(&Step::Load {
            addr: RowAddress::new(loc(), 15),
            values: vec![0],
            lane: 8,
        });
        let far = step_effects(&Step::Load {
            addr: RowAddress::new(loc(), 25),
            values: vec![0],
            lane: 8,
        });
        assert!(conflict(&e, &near));
        assert!(!conflict(&e, &far));
    }

    #[test]
    fn arithmetic_clobbers_its_dbc() {
        let i = CpimInstr::new(
            CpimOpcode::Mult,
            RowAddress::new(loc(), 10),
            2,
            BlockSize::new(16).unwrap(),
            Some(RowAddress::new(loc(), 20)),
        )
        .unwrap();
        let e = instr_effects(&i);
        assert_eq!(e.clobbers, Some(loc()));
        // Clobber conflicts even with a disjoint-row load on the same DBC.
        let load = step_effects(&Step::Load {
            addr: RowAddress::new(loc(), 30),
            values: vec![0],
            lane: 8,
        });
        assert!(conflict(&e, &load));
    }

    #[test]
    fn disjoint_loads_do_not_conflict() {
        let a = step_effects(&Step::Load {
            addr: RowAddress::new(loc(), 4),
            values: vec![0],
            lane: 8,
        });
        let b = step_effects(&Step::Load {
            addr: RowAddress::new(loc(), 5),
            values: vec![0],
            lane: 8,
        });
        assert!(!conflict(&a, &b));
        assert!(conflict(&a, &a.clone()), "same-row loads order (WAW)");
    }

    #[test]
    fn readouts_are_order_pinned() {
        let r1 = step_effects(&Step::Readout {
            label: "a".into(),
            addr: RowAddress::new(loc(), 4),
            lane: 8,
        });
        let r2 = step_effects(&Step::Readout {
            label: "b".into(),
            addr: RowAddress::new(loc(), 9),
            lane: 8,
        });
        assert!(conflict(&r1, &r2));
    }
}
