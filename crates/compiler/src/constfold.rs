//! Identity-constant folding into the hardware's padding choices.
//!
//! A multi-operand bulk op pads unused segment slots with its opcode's
//! identity value (paper Fig. 7): all-ones for AND, all-zeros for
//! OR/XOR. An operand *row* that provably holds that identity therefore
//! contributes nothing to the fold — the hardware would have supplied
//! the same value as padding — so the instruction can drop it and let
//! the padding take over. This pass tracks rows whose latest definition
//! is a `Load` of the identity row and shrinks bulk ops whose boundary
//! operands (top or bottom of the consecutive operand span) are such
//! rows; the now-unused `Load` becomes dead and the dead-step pass
//! removes it.
//!
//! Soundness mirrors [`crate::fuse`]: the shrunk op reads a subset of
//! the original rows and computes the same fold (identity elements are
//! neutral), so the only machine state that can differ afterwards is
//! the placement-residue window (the shrunk op stages fewer rows, see
//! [`crate::effects`]). The rewrite is applied only when every row of
//! either residue window is dead downstream — rewritten before any
//! read, or never read again.

use crate::effects::{dead_after, instr_effects};
use crate::pass::{Pass, PassContext};
use crate::CompileError;
use coruscant_core::isa::{CpimInstr, CpimOpcode};
use coruscant_core::program::{PimProgram, Step};
use coruscant_mem::{DbcLocation, Row, RowAddress};
use std::collections::HashMap;

/// The identity-folding pass. See the module docs.
#[derive(Debug, Clone, Default)]
pub(crate) struct ConstFoldPass;

/// Which identity row a tracked row currently holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Identity {
    /// Every bit of the row is 1 (AND identity).
    Ones,
    /// Every bit of the row is 0 (OR/XOR identity).
    Zeros,
}

/// The identity a loaded row holds, judged on the *packed* row at full
/// DBC width (bits past the loaded values pack as zeros, so a partial
/// all-ones load is not an AND identity).
fn load_identity(width: usize, lane: usize, values: &[u64]) -> Option<Identity> {
    if lane == 0 || lane > 64 {
        return None;
    }
    let row = Row::pack(width, lane, values);
    if row == Row::ones(width) {
        Some(Identity::Ones)
    } else if row == Row::zeros(width) {
        Some(Identity::Zeros)
    } else {
        None
    }
}

/// The identity element of an associative bulk opcode this pass folds.
fn opcode_identity(opcode: CpimOpcode) -> Option<Identity> {
    match opcode {
        CpimOpcode::And => Some(Identity::Ones),
        CpimOpcode::Or | CpimOpcode::Xor => Some(Identity::Zeros),
        _ => None,
    }
}

/// Whether every row in either instruction's residue window (minus the
/// shared destination) is dead in `trailing`: rewritten before any read,
/// or never read again. Same discipline as fusion's replacement check.
/// The shrunk op stages a sub-span of the original's operands, so its
/// window lies inside the original's.
fn residue_dead_after(trailing: &[Step], old: &CpimInstr, new: &CpimInstr) -> bool {
    let (Some(window), Some(inner)) = (instr_effects(old).smear, instr_effects(new).smear) else {
        return false;
    };
    debug_assert!(
        window.contains((inner.loc, inner.lo)) && inner.lo + inner.n <= window.lo + window.n
    );
    dead_after(window, old.dst.map(|d| (d.location, d.row)), trailing)
}

/// Shrinks one instruction's operand span past boundary rows holding the
/// opcode's identity. Returns the rewritten instruction, or `None` when
/// nothing folds.
fn shrink(instr: &CpimInstr, defs: &HashMap<(DbcLocation, usize), Identity>) -> Option<CpimInstr> {
    let ident = opcode_identity(instr.opcode)?;
    let loc = instr.src.location;
    let mut base = instr.src.row;
    let mut k = instr.operands as usize;
    let holds = |row: usize| defs.get(&(loc, row)) == Some(&ident);
    // Keep at least two operands: a 2-operand op is the natural floor of
    // the bulk encoding, and shrinking further buys nothing.
    while k >= 3 {
        if holds(base + k - 1) {
            k -= 1;
        } else if holds(base) {
            base += 1;
            k -= 1;
        } else {
            break;
        }
    }
    if k == instr.operands as usize {
        return None;
    }
    CpimInstr::new(
        instr.opcode,
        RowAddress::new(loc, base),
        k as u8,
        instr.blocksize,
        instr.dst,
    )
    .ok()
}

impl Pass for ConstFoldPass {
    fn name(&self) -> &'static str {
        "const-fold"
    }

    fn run(&self, program: PimProgram, ctx: &PassContext) -> Result<PimProgram, CompileError> {
        let width = ctx.config.nanowires_per_dbc;
        // Latest definition per row, tracked only while it provably holds
        // an identity constant.
        let mut defs: HashMap<(DbcLocation, usize), Identity> = HashMap::new();
        let mut steps = program.steps;
        for idx in 0..steps.len() {
            if let Step::Exec(instr) = &steps[idx] {
                if let Some(new) = shrink(instr, &defs)
                    .filter(|new| residue_dead_after(&steps[idx + 1..], instr, new))
                {
                    steps[idx] = Step::Exec(new);
                }
            }
            // Update the identity-definition map with this step's writes.
            match &steps[idx] {
                Step::Load { addr, values, lane } => {
                    let key = (addr.location, addr.row);
                    match load_identity(width, *lane, values) {
                        Some(id) => defs.insert(key, id),
                        None => defs.remove(&key),
                    };
                }
                Step::Readout { .. } => {}
                Step::Exec(instr) => {
                    let e = instr_effects(instr);
                    if let Some(loc) = e.clobbers {
                        defs.retain(|(l, _), _| *l != loc);
                    }
                    if let Some(s) = e.smear {
                        defs.retain(|&key, _| !s.contains(key));
                    }
                    if let Some(w) = e.write {
                        defs.remove(&w);
                    }
                }
            }
        }
        Ok(PimProgram { steps })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dce::DeadStepPass;
    use coruscant_core::isa::BlockSize;
    use coruscant_mem::MemoryConfig;

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
            values: vec![v; 1],
            lane: 64,
        }
    }

    fn op(opcode: CpimOpcode, src: usize, k: u8, dst: usize) -> Step {
        Step::Exec(
            CpimInstr::new(
                opcode,
                RowAddress::new(loc(), src),
                k,
                BlockSize::new(64).unwrap(),
                Some(RowAddress::new(loc(), dst)),
            )
            .unwrap(),
        )
    }

    fn readout(row: usize) -> Step {
        Step::Readout {
            label: format!("r{row}"),
            addr: RowAddress::new(loc(), row),
            lane: 64,
        }
    }

    /// The pinning test: an all-ones operand of an AND folds into the
    /// hardware's identity padding, and DCE then removes its load.
    #[test]
    fn identity_operand_folds_into_padding() {
        let program = PimProgram {
            steps: vec![
                load(4, 0b1010),
                load(5, 0b0110),
                load(6, u64::MAX),
                op(CpimOpcode::And, 4, 3, 20),
                readout(20),
            ],
        };
        let folded = ConstFoldPass.run(program, &ctx()).unwrap();
        let Step::Exec(i) = &folded.steps[3] else {
            panic!("expected exec");
        };
        assert_eq!((i.src.row, i.operands), (4, 2), "top identity row dropped");
        // DCE downstream removes the now-dead identity load.
        let cleaned = DeadStepPass.run(folded, &ctx()).unwrap();
        assert_eq!(cleaned.steps.len(), 4);
        assert!(!cleaned
            .steps
            .iter()
            .any(|s| matches!(s, Step::Load { addr, .. } if addr.row == 6)));
    }

    #[test]
    fn bottom_identity_operand_shifts_base() {
        let program = PimProgram {
            steps: vec![
                load(4, 0),
                load(5, 7),
                load(6, 9),
                op(CpimOpcode::Or, 4, 3, 20),
                readout(20),
            ],
        };
        let folded = ConstFoldPass.run(program, &ctx()).unwrap();
        let Step::Exec(i) = &folded.steps[3] else {
            panic!("expected exec");
        };
        assert_eq!((i.src.row, i.operands), (5, 2));
    }

    #[test]
    fn non_identity_rows_are_untouched() {
        let program = PimProgram {
            steps: vec![
                load(4, 1),
                load(5, 2),
                load(6, 3),
                op(CpimOpcode::And, 4, 3, 20),
                readout(20),
            ],
        };
        let out = ConstFoldPass.run(program.clone(), &ctx()).unwrap();
        assert_eq!(out, program);
    }

    #[test]
    fn wrong_identity_for_opcode_does_not_fold() {
        // All-zeros is OR's identity, not AND's: an AND over it is a
        // constant zero and must not be rewritten by this pass.
        let program = PimProgram {
            steps: vec![
                load(4, 1),
                load(5, 3),
                load(6, 0),
                op(CpimOpcode::And, 4, 3, 20),
                readout(20),
            ],
        };
        let out = ConstFoldPass.run(program.clone(), &ctx()).unwrap();
        assert_eq!(out, program);
    }

    #[test]
    fn partial_width_ones_load_is_not_an_identity() {
        // lane 8 with one value covers 8 of 64 bits; the packed row is
        // not all-ones, so AND must keep the operand.
        let partial = Step::Load {
            addr: RowAddress::new(loc(), 6),
            values: vec![u64::MAX],
            lane: 8,
        };
        let program = PimProgram {
            steps: vec![
                load(4, 5),
                load(5, 6),
                partial,
                op(CpimOpcode::And, 4, 3, 20),
                readout(20),
            ],
        };
        let out = ConstFoldPass.run(program.clone(), &ctx()).unwrap();
        assert_eq!(out, program);
    }

    #[test]
    fn overwritten_identity_is_not_folded() {
        let program = PimProgram {
            steps: vec![
                load(4, 2),
                load(5, 3),
                load(6, u64::MAX),
                load(6, 0b11), // identity overwritten before the op
                op(CpimOpcode::And, 4, 3, 20),
                readout(20),
            ],
        };
        let out = ConstFoldPass.run(program.clone(), &ctx()).unwrap();
        assert_eq!(out, program);
    }

    #[test]
    fn residue_read_blocks_folding() {
        // Shrinking changes the residue window; a later readout inside it
        // pins the original instruction.
        let program = PimProgram {
            steps: vec![
                load(4, 2),
                load(5, 3),
                load(6, u64::MAX),
                op(CpimOpcode::And, 4, 3, 20),
                readout(9), // inside src-6..=src+2k+4
                readout(20),
            ],
        };
        let out = ConstFoldPass.run(program.clone(), &ctx()).unwrap();
        assert_eq!(out, program);
    }

    #[test]
    fn folded_program_is_output_equivalent() {
        let config = MemoryConfig::tiny();
        let program = PimProgram {
            steps: vec![
                load(4, 0xF0F0),
                load(5, 0xFF00),
                load(6, u64::MAX),
                op(CpimOpcode::And, 4, 3, 20),
                readout(20),
            ],
        };
        let folded = ConstFoldPass.run(program.clone(), &ctx()).unwrap();
        assert_ne!(folded, program);
        assert_eq!(
            crate::differential_verify(&program, &folded, &config).unwrap(),
            crate::VerifyOutcome::Match
        );
    }
}
