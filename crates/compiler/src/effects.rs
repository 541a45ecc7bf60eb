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

/// `n` consecutive rows of one DBC, from row `lo`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Rows {
    pub loc: DbcLocation,
    pub lo: usize,
    pub n: usize,
}

impl Rows {
    /// Whether the run holds `row` of `loc`.
    pub(crate) fn contains(self, (loc, row): (DbcLocation, usize)) -> bool {
        self.loc == loc && row >= self.lo && row - self.lo < self.n
    }

    /// Whether two non-empty runs share a row.
    fn overlaps(self, other: Rows) -> bool {
        self.loc == other.loc && self.lo < other.lo + other.n && other.lo < self.lo + self.n
    }

    /// The rows, in ascending order.
    pub(crate) fn iter(self) -> impl Iterator<Item = (DbcLocation, usize)> {
        (self.lo..self.lo + self.n).map(move |r| (self.loc, r))
    }
}

/// One step's effect summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct StepEffects {
    /// The data rows the step reads (one run, in access order).
    pub reads: Option<Rows>,
    /// The data row the step writes.
    pub write: Option<(DbcLocation, usize)>,
    /// A DBC the step may read or write anywhere (scratch-using
    /// arithmetic); forces conflicts with every same-DBC step.
    pub clobbers: Option<DbcLocation>,
    /// Rows the step may overwrite with placement residue (operand
    /// staging under the inter-port segment). Treated as a write for
    /// conflicts, but never as a definition for liveness.
    pub smear: Option<Rows>,
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
    let (loc, src, k) = (instr.src.location, instr.src.row, instr.operands as usize);
    let run = |lo, n| (n > 0).then_some(Rows { loc, lo, n });
    let mut e = StepEffects {
        write: instr.dst.map(|d| (d.location, d.row)),
        ..StepEffects::default()
    };
    if is_pure_bulk(instr.opcode) {
        let lo = src.saturating_sub(6);
        e.reads = run(src, k);
        e.smear = run(lo, src + 2 * k + 5 - lo);
    } else if instr.opcode == CpimOpcode::Copy {
        e.reads = run(src, 1);
    } else {
        // Scratch-using arithmetic: exact rows unknown at this level.
        e.clobbers = Some(loc);
    }
    e
}

/// The effect summary of one step.
pub(crate) fn step_effects(step: &Step) -> StepEffects {
    match step {
        Step::Load { addr, .. } => StepEffects {
            write: Some((addr.location, addr.row)),
            ..StepEffects::default()
        },
        Step::Readout { addr, .. } => StepEffects {
            reads: Some(Rows {
                loc: addr.location,
                lo: addr.row,
                n: 1,
            }),
            is_readout: true,
            ..StepEffects::default()
        },
        Step::Exec(i) => instr_effects(i),
    }
}

impl StepEffects {
    /// Whether the step touches any row of `loc` (reads, writes, smears,
    /// or clobbers it).
    pub(crate) fn touches(&self, loc: DbcLocation) -> bool {
        self.clobbers == Some(loc)
            || self.smear.is_some_and(|s| s.loc == loc)
            || self.reads.is_some_and(|r| r.loc == loc)
            || self.write.is_some_and(|(l, _)| l == loc)
    }

    /// Whether the step reads `row`.
    pub(crate) fn reads(&self, row: (DbcLocation, usize)) -> bool {
        self.reads.is_some_and(|r| r.contains(row))
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
    if a.clobbers.is_some_and(|loc| b.touches(loc)) || b.clobbers.is_some_and(|loc| a.touches(loc))
    {
        return true;
    }
    let smear_hits = |x: &StepEffects, y: &StepEffects| {
        x.smear.is_some_and(|s| {
            y.reads.is_some_and(|r| r.overlaps(s))
                || y.write.is_some_and(|w| s.contains(w))
                || y.smear.is_some_and(|s2| s2.overlaps(s))
        })
    };
    if smear_hits(a, b) || smear_hits(b, a) {
        return true;
    }
    a.write.is_some_and(|w| b.reads(w) || b.write == Some(w)) || b.write.is_some_and(|w| a.reads(w))
}

/// Whether no step of `trailing` observes a row of `window` other than
/// `except` before rewriting it: reads it, or clobbers its DBC.
pub(crate) fn dead_after(
    window: Rows,
    except: Option<(DbcLocation, usize)>,
    trailing: &[Step],
) -> bool {
    // Rows of the window rewritten so far, and how many are still dirty.
    let mut rewritten = Vec::new();
    let mut left = window.n - usize::from(except.is_some_and(|x| window.contains(x)));
    let dirty = |r, rewritten: &Vec<usize>| {
        window.contains(r) && Some(r) != except && !rewritten.contains(&r.1)
    };
    for step in trailing {
        if left == 0 {
            return true;
        }
        let e = step_effects(step);
        if e.clobbers == Some(window.loc)
            || e.reads
                .is_some_and(|run| run.iter().any(|r| dirty(r, &rewritten)))
        {
            return false;
        }
        if let Some(w) = e.write.filter(|&w| dirty(w, &rewritten)) {
            rewritten.push(w.1);
            left -= 1;
        }
    }
    true
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
        let rows = |lo, n| Some(Rows { loc: loc(), lo, n });
        assert_eq!(e.reads, rows(4, 3), "rows 4, 5, 6");
        assert_eq!(e.write, Some((loc(), 20)));
        assert_eq!(e.clobbers, None);
        assert_eq!(e.smear, rows(0, 15), "residue window src-6..=src+2k+4");
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
        assert!(conflict(&a, &a), "same-row loads order (WAW)");
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

    /// The `Vec`-based effect model the `Copy` form replaced, kept as the
    /// oracle it must agree with.
    mod oracle {
        use super::super::is_pure_bulk;
        use coruscant_core::isa::{CpimInstr, CpimOpcode};
        use coruscant_core::program::Step;
        use coruscant_mem::DbcLocation;

        pub(super) struct VecEffects {
            pub reads: Vec<(DbcLocation, usize)>,
            pub writes: Vec<(DbcLocation, usize)>,
            pub clobbers: Option<DbcLocation>,
            pub smear: Option<(DbcLocation, usize, usize)>,
            pub is_readout: bool,
        }

        fn instr_effects(instr: &CpimInstr) -> VecEffects {
            let loc = instr.src.location;
            let dst: Vec<(DbcLocation, usize)> =
                instr.dst.map(|d| (d.location, d.row)).into_iter().collect();
            if is_pure_bulk(instr.opcode) {
                let k = instr.operands as usize;
                VecEffects {
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
                VecEffects {
                    reads: vec![(loc, instr.src.row)],
                    writes: dst,
                    clobbers: None,
                    smear: None,
                    is_readout: false,
                }
            } else {
                VecEffects {
                    reads: Vec::new(),
                    writes: dst,
                    clobbers: Some(loc),
                    smear: None,
                    is_readout: false,
                }
            }
        }

        pub(super) fn step_effects(step: &Step) -> VecEffects {
            match step {
                Step::Load { addr, .. } => VecEffects {
                    reads: Vec::new(),
                    writes: vec![(addr.location, addr.row)],
                    clobbers: None,
                    smear: None,
                    is_readout: false,
                },
                Step::Readout { addr, .. } => VecEffects {
                    reads: vec![(addr.location, addr.row)],
                    writes: Vec::new(),
                    clobbers: None,
                    smear: None,
                    is_readout: true,
                },
                Step::Exec(i) => instr_effects(i),
            }
        }

        impl VecEffects {
            pub(super) fn touches(&self, loc: DbcLocation) -> bool {
                self.clobbers == Some(loc)
                    || self.smear.is_some_and(|(l, _, _)| l == loc)
                    || self.reads.iter().any(|(l, _)| *l == loc)
                    || self.writes.iter().any(|(l, _)| *l == loc)
            }
        }

        pub(super) fn conflict(a: &VecEffects, b: &VecEffects) -> bool {
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
            let smear_hits = |x: &VecEffects, y: &VecEffects| {
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
            let overlaps = |x: &[(DbcLocation, usize)], y: &[(DbcLocation, usize)]| {
                x.iter().any(|r| y.contains(r))
            };
            overlaps(&a.writes, &b.reads)
                || overlaps(&a.writes, &b.writes)
                || overlaps(&a.reads, &b.writes)
        }
    }

    const OPCODES: [CpimOpcode; 16] = [
        CpimOpcode::And,
        CpimOpcode::Nand,
        CpimOpcode::Or,
        CpimOpcode::Nor,
        CpimOpcode::Xor,
        CpimOpcode::Xnor,
        CpimOpcode::Not,
        CpimOpcode::Add,
        CpimOpcode::Reduce,
        CpimOpcode::Mult,
        CpimOpcode::Max,
        CpimOpcode::Relu,
        CpimOpcode::Vote,
        CpimOpcode::Copy,
        CpimOpcode::Sub,
        CpimOpcode::Min,
    ];

    /// A seeded step over every kind, opcode and k = 1..=7 on one of
    /// `dbcs` DBCs, rows drawn from 0..24 so that `src - 6` clamps.
    fn random_step(state: &mut u64, dbcs: usize) -> Step {
        let mut next = |n: usize| {
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            (*state % n as u64) as usize
        };
        let at = |dbc, row| RowAddress::new(DbcLocation::new(0, 0, 0, dbc), row);
        let addr = at(next(dbcs), next(24));
        match next(6) {
            0 => Step::Load {
                addr,
                values: vec![0],
                lane: 8,
            },
            1 => Step::Readout {
                label: "r".into(),
                addr,
                lane: 8,
            },
            _ => {
                let dst = (next(4) != 0).then(|| at(next(dbcs), next(24)));
                let op = OPCODES[next(16)];
                let k = 1 + next(7) as u8;
                Step::Exec(CpimInstr::new(op, addr, k, BlockSize::new(8).unwrap(), dst).unwrap())
            }
        }
    }

    #[test]
    fn copy_effects_agree_with_the_vec_oracle() {
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut conflicts = 0;
        for pair in 0..12_000 {
            let dbcs = 1 + pair % 3;
            let (a, b) = (random_step(&mut state, dbcs), random_step(&mut state, dbcs));
            for step in [&a, &b] {
                let (e, o) = (step_effects(step), oracle::step_effects(step));
                let reads: Vec<_> = e.reads.into_iter().flat_map(Rows::iter).collect();
                assert_eq!(reads, o.reads, "{step:?}");
                assert_eq!(e.write.into_iter().collect::<Vec<_>>(), o.writes);
                assert_eq!(e.clobbers, o.clobbers);
                let smear = e.smear.map(|s| (s.loc, s.lo, s.lo + s.n - 1));
                assert_eq!(smear, o.smear, "{step:?}");
                assert_eq!(e.is_readout, o.is_readout);
                for dbc in 0..3 {
                    let l = DbcLocation::new(0, 0, 0, dbc);
                    assert_eq!(e.touches(l), o.touches(l), "{step:?}");
                }
            }
            let (ea, eb) = (step_effects(&a), step_effects(&b));
            let (oa, ob) = (oracle::step_effects(&a), oracle::step_effects(&b));
            let want = oracle::conflict(&oa, &ob);
            assert_eq!(conflict(&ea, &eb), want, "{a:?} vs {b:?}");
            assert_eq!(conflict(&eb, &ea), oracle::conflict(&ob, &oa));
            conflicts += usize::from(want);
        }
        // Both answers occur often enough for the agreement to mean
        // something.
        assert!((2_000..10_000).contains(&conflicts), "{conflicts}");
    }
}
