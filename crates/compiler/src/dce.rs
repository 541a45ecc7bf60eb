//! Dead-step and redundant-move elimination.
//!
//! A backward liveness scan over row-level effects removes:
//!
//! * **dead loads** — a `Load` whose row is overwritten before any read;
//! * **dead bulk results** — a bulk-bitwise `Exec` whose destination row
//!   is never read before being rewritten (the op itself only touches the
//!   inter-port segment, so an unread result is unobservable);
//! * **dead copies** — a `copy` whose destination is dead, or whose
//!   source and destination are the same row (a no-op move).
//!
//! Scratch-using arithmetic (`add`, `mult`, …) is never removed and makes
//! every row of its DBC live (it may read anything), and a bulk `Exec`
//! without a destination is kept: it has no value effect, but its bank
//! occupancy and error behaviour are part of the program's contract.
//!
//! Placement residue (see [`crate::effects`]) is treated asymmetrically:
//! a bulk `Exec` whose smear window covers a live row is *kept* even if
//! its destination is dead (deleting it would change what that row
//! holds), but a smear never counts as a definition — it cannot kill a
//! row's liveness, and it never makes an earlier writer dead.

use crate::effects::{instr_effects, is_pure_bulk};
use crate::pass::{Pass, PassContext};
use crate::CompileError;
use coruscant_core::isa::CpimOpcode;
use coruscant_core::program::{PimProgram, Step};
use coruscant_mem::DbcLocation;
use std::collections::HashSet;

/// The elimination pass. See the module docs.
#[derive(Debug, Clone, Default)]
pub(crate) struct DeadStepPass;

impl Pass for DeadStepPass {
    fn name(&self) -> &'static str {
        "dead-step"
    }

    fn run(&self, program: PimProgram, _ctx: &PassContext) -> Result<PimProgram, CompileError> {
        let mut live: HashSet<(DbcLocation, usize)> = HashSet::new();
        // DBCs where a scratch-using op may read any row: liveness there
        // is unknowable, so nothing upstream of them is removed.
        let mut wild: HashSet<DbcLocation> = HashSet::new();
        let mut keep = vec![true; program.steps.len()];

        for (idx, step) in program.steps.iter().enumerate().rev() {
            match step {
                Step::Readout { addr, .. } => {
                    live.insert((addr.location, addr.row));
                }
                Step::Load { addr, .. } => {
                    let key = (addr.location, addr.row);
                    if wild.contains(&addr.location) {
                        // Unknown consumer downstream; keep, kill nothing.
                    } else if live.remove(&key) {
                        // Defines a live row; earlier writers are dead.
                    } else {
                        keep[idx] = false;
                    }
                }
                Step::Exec(i) if is_pure_bulk(i.opcode) || i.opcode == CpimOpcode::Copy => {
                    let reads: Vec<(DbcLocation, usize)> = if i.opcode == CpimOpcode::Copy {
                        vec![(i.src.location, i.src.row)]
                    } else {
                        (0..i.operands as usize)
                            .map(|k| (i.src.location, i.src.row + k))
                            .collect()
                    };
                    match i.dst {
                        Some(d) if i.opcode == CpimOpcode::Copy && d == i.src => {
                            // Same-row move: value no-op.
                            keep[idx] = false;
                        }
                        Some(d) => {
                            let key = (d.location, d.row);
                            // Residue landing on a live row is observable,
                            // so the op must stay even with a dead result.
                            let smear_live = instr_effects(i).smear.is_some_and(|(l, lo, hi)| {
                                live.iter().any(|(ll, r)| *ll == l && (lo..=hi).contains(r))
                            });
                            let defines_live = live.remove(&key);
                            if wild.contains(&d.location) || defines_live || smear_live {
                                live.extend(reads);
                            } else {
                                // Result nobody reads: drop the op.
                                keep[idx] = false;
                            }
                        }
                        None => {
                            // No value effect, but occupancy and error
                            // behaviour are observable: keep, and its
                            // operand reads keep their producers alive.
                            live.extend(reads);
                        }
                    }
                }
                Step::Exec(i) => {
                    // Scratch-using arithmetic: may read the whole DBC.
                    wild.insert(i.src.location);
                    if let Some(d) = i.dst {
                        wild.insert(d.location);
                    }
                }
            }
        }

        let steps = program
            .steps
            .into_iter()
            .zip(keep)
            .filter_map(|(s, k)| k.then_some(s))
            .collect();
        Ok(PimProgram { steps })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coruscant_core::isa::{BlockSize, CpimInstr};
    use coruscant_mem::{MemoryConfig, RowAddress};

    fn loc() -> DbcLocation {
        DbcLocation::new(0, 0, 0, 0)
    }

    fn ctx() -> PassContext {
        PassContext {
            config: MemoryConfig::tiny(),
        }
    }

    fn load(row: usize, v: u64) -> Step {
        Step::Load {
            addr: RowAddress::new(loc(), row),
            values: vec![v],
            lane: 8,
        }
    }

    fn readout(row: usize) -> Step {
        Step::Readout {
            label: format!("r{row}"),
            addr: RowAddress::new(loc(), row),
            lane: 8,
        }
    }

    fn and(src: usize, k: u8, dst: usize) -> Step {
        Step::Exec(
            CpimInstr::new(
                CpimOpcode::And,
                RowAddress::new(loc(), src),
                k,
                BlockSize::new(8).unwrap(),
                Some(RowAddress::new(loc(), dst)),
            )
            .unwrap(),
        )
    }

    fn copy(src: usize, dst: usize) -> Step {
        Step::Exec(
            CpimInstr::new(
                CpimOpcode::Copy,
                RowAddress::new(loc(), src),
                1,
                BlockSize::new(8).unwrap(),
                Some(RowAddress::new(loc(), dst)),
            )
            .unwrap(),
        )
    }

    #[test]
    fn overwritten_load_is_removed() {
        let program = PimProgram {
            steps: vec![load(4, 1), load(4, 2), readout(4)],
        };
        let out = DeadStepPass.run(program, &ctx()).unwrap();
        assert_eq!(out.steps.len(), 2);
        let Step::Load { values, .. } = &out.steps[0] else {
            panic!("expected load");
        };
        assert_eq!(values, &vec![2], "the surviving load is the second");
    }

    #[test]
    fn unread_bulk_result_is_removed_with_its_operands() {
        // Readout row 25 is outside the AND's residue window (0..=12).
        let program = PimProgram {
            steps: vec![load(4, 1), load(5, 2), and(4, 2, 20), readout(25)],
        };
        let out = DeadStepPass.run(program, &ctx()).unwrap();
        // Result row 20 is never read; the AND dies, then its operand
        // loads die in the same backward scan.
        assert_eq!(out.steps.len(), 1);
        assert!(matches!(&out.steps[0], Step::Readout { .. }));
    }

    #[test]
    fn smear_over_live_row_keeps_dead_result_op() {
        // Row 9 sits inside the AND's residue window (0..=12): deleting
        // the op would change what the readout observes, dead dst or not.
        let program = PimProgram {
            steps: vec![load(4, 1), load(5, 2), and(4, 2, 20), readout(9)],
        };
        let out = DeadStepPass.run(program.clone(), &ctx()).unwrap();
        assert_eq!(out, program);
    }

    #[test]
    fn live_chain_is_kept() {
        let program = PimProgram {
            steps: vec![load(4, 1), load(5, 2), and(4, 2, 20), readout(20)],
        };
        let out = DeadStepPass.run(program.clone(), &ctx()).unwrap();
        assert_eq!(out, program);
    }

    #[test]
    fn same_row_copy_is_removed() {
        let program = PimProgram {
            steps: vec![load(4, 1), copy(4, 4), readout(4)],
        };
        let out = DeadStepPass.run(program, &ctx()).unwrap();
        assert_eq!(out.steps.len(), 2);
    }

    #[test]
    fn dead_copy_is_removed() {
        let program = PimProgram {
            steps: vec![load(4, 1), copy(4, 9), readout(4)],
        };
        let out = DeadStepPass.run(program, &ctx()).unwrap();
        assert_eq!(out.steps.len(), 2);
    }

    #[test]
    fn arithmetic_keeps_everything_on_its_dbc() {
        let mult = Step::Exec(
            CpimInstr::new(
                CpimOpcode::Mult,
                RowAddress::new(loc(), 12),
                2,
                BlockSize::new(16).unwrap(),
                Some(RowAddress::new(loc(), 14)),
            )
            .unwrap(),
        );
        // The load looks dead (no readout of row 4) but the multiplier
        // may read any row of the DBC.
        let program = PimProgram {
            steps: vec![load(4, 1), mult, readout(14)],
        };
        let out = DeadStepPass.run(program.clone(), &ctx()).unwrap();
        assert_eq!(out, program);
    }

    #[test]
    fn dst_less_bulk_exec_is_kept() {
        let nodst = Step::Exec(
            CpimInstr::new(
                CpimOpcode::Or,
                RowAddress::new(loc(), 4),
                2,
                BlockSize::new(8).unwrap(),
                None,
            )
            .unwrap(),
        );
        let program = PimProgram {
            steps: vec![load(4, 1), load(5, 2), nodst],
        };
        let out = DeadStepPass.run(program.clone(), &ctx()).unwrap();
        assert_eq!(out, program, "occupancy/error behaviour preserved");
    }
}
