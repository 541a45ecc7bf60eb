//! Multi-operand transverse-read fusion (paper §III-B).
//!
//! CORUSCANT resolves up to TRD operands in *one* transverse read, where
//! conventional bulk-bitwise PIM (Ambit-style) chains pairwise
//! activations. On this hardware a valid pairwise chain accumulates
//! *downward* — each step folds its own operand row with the accumulator
//! sitting one row above and writes the result back in place, so the
//! placement residue each step leaves (see `crate::effects`) lands
//! only on rows already consumed:
//!
//! ```text
//! and r7, x2 -> r7      ; r7 = v7 & v8
//! and r6, x2 -> r6      ; r6 = v6 & (v7 & v8)
//! and r5, x2 -> r5      ; r5 = v5 & ...
//! and r4, x2 -> r20     ; final fold into the result row
//! ```
//!
//! This pass recognizes such chains of an associative bulk opcode and
//! collapses them into k-operand instructions with `k ≤ min(TRD, 7)` —
//! the same fold, one transverse read per group instead of one per pair.
//!
//! Soundness: the fused instruction reads the *original* operand rows,
//! which the descending chain leaves untouched until each is consumed,
//! so the fold result is identical by associativity and commutativity of
//! AND/OR/XOR and because the multi-operand hardware op pads unused
//! segment slots with the opcode's identity (paper Fig. 7). What differs
//! after the rewrite is the state of the intermediate rows (partial
//! folds vs originals) and of the placement-residue windows, so the pass
//! only fuses when no later step can observe any such row — each is
//! rewritten before any read, or never read again.

use crate::effects::{dead_after, step_effects, Rows};
use crate::pass::{Pass, PassContext};
use crate::CompileError;
use coruscant_core::isa::{BlockSize, CpimInstr, CpimOpcode};
use coruscant_core::program::{PimProgram, Step};
use coruscant_mem::{DbcLocation, RowAddress};

/// The fusion pass. See the module docs.
#[derive(Debug, Clone, Default)]
pub(crate) struct TrFusionPass;

/// A recognized descending accumulator chain: `len` consecutive
/// 2-operand steps folding operand rows `base ..= base + len` into
/// `dst`, sources descending one row per step down to `base`.
struct Chain {
    len: usize,
    base: usize,
    loc: DbcLocation,
    opcode: CpimOpcode,
    blocksize: BlockSize,
    dst: RowAddress,
}

fn associative(opcode: CpimOpcode) -> bool {
    matches!(opcode, CpimOpcode::And | CpimOpcode::Or | CpimOpcode::Xor)
}

/// Matches the longest descending accumulator chain starting at
/// `steps[0]`: every step but the last accumulates in place
/// (`dst == src`), each next step's source sits one row below, and the
/// final step may fold into any destination.
fn match_chain(steps: &[Step]) -> Option<Chain> {
    let Step::Exec(first) = steps.first()? else {
        return None;
    };
    if !associative(first.opcode) || first.operands != 2 {
        return None;
    }
    let loc = first.src.location;
    let mut len = 1;
    let mut last = *first;
    while let Some(Step::Exec(next)) = steps.get(len) {
        let continues = next.opcode == first.opcode
            && next.operands == 2
            && next.blocksize == first.blocksize
            && next.src.location == loc
            // We can only continue past a step that accumulated in
            // place, leaving the partial fold where the next step's
            // second operand row expects it.
            && last.dst == Some(last.src)
            && next.src.row + 1 == last.src.row;
        if !continues {
            break;
        }
        last = *next;
        len += 1;
    }
    let dst = last.dst?;
    Some(Chain {
        len,
        base: last.src.row,
        loc,
        opcode: first.opcode,
        blocksize: first.blocksize,
        dst,
    })
}

/// Whether every row the fused form can leave different from the chained
/// form is dead after the chain: rewritten before any read, or never
/// read again. The differing rows are the operand span (intermediates
/// hold partial folds in one form, originals in the other) plus both
/// forms' placement-residue windows, minus the final destination (same
/// value either way). Every window overlaps the operand span, so together
/// they are one run of the chain's DBC; every other write is in place.
fn replacement_dead_after(
    trailing: &[Step],
    original: &[Step],
    fused: &[Step],
    chain: &Chain,
) -> bool {
    let (mut lo, mut hi) = (chain.base, chain.base + chain.len);
    for step in original.iter().chain(fused) {
        if let Some(s) = step_effects(step).smear {
            debug_assert!(s.loc == chain.loc && s.lo <= hi && lo < s.lo + s.n);
            lo = lo.min(s.lo);
            hi = hi.max(s.lo + s.n - 1);
        }
    }
    let window = Rows {
        loc: chain.loc,
        lo,
        n: hi - lo + 1,
    };
    dead_after(window, Some((chain.dst.location, chain.dst.row)), trailing)
}

/// Emits the fused instruction group for a chain: greedy groups of up to
/// `cap` operands folding top-down, each group collapsing the topmost
/// operands into its own source row (exactly where the descending
/// chain's accumulator would stand, so the remaining fold reads the
/// right value), the final group into the chain's destination.
fn emit_fused(chain: &Chain, cap: usize, out: &mut Vec<Step>) -> Result<(), CompileError> {
    let mut n = chain.len + 1; // operand rows base ..= base + n - 1
    while n > cap {
        let src = chain.base + n - cap;
        out.push(Step::Exec(CpimInstr::new(
            chain.opcode,
            RowAddress::new(chain.loc, src),
            cap as u8,
            chain.blocksize,
            Some(RowAddress::new(chain.loc, src)),
        )?));
        n -= cap - 1;
    }
    out.push(Step::Exec(CpimInstr::new(
        chain.opcode,
        RowAddress::new(chain.loc, chain.base),
        n as u8,
        chain.blocksize,
        Some(chain.dst),
    )?));
    Ok(())
}

impl Pass for TrFusionPass {
    fn name(&self) -> &'static str {
        "tr-fusion"
    }

    fn run(&self, program: PimProgram, ctx: &PassContext) -> Result<PimProgram, CompileError> {
        // The ISA operand field holds 7; the device resolves TRD rows.
        let cap = ctx.config.trd.min(7);
        if cap < 3 {
            // Groups of two are what the chain already does.
            return Ok(program);
        }
        // Moves every kept step; a fused group is emitted in place and
        // taken back if something downstream observes what it changes.
        let mut rest = program.steps.into_iter();
        let mut out = Vec::with_capacity(rest.len());
        while !rest.as_slice().is_empty() {
            let steps = rest.as_slice();
            let mark = out.len();
            let fused = match match_chain(steps) {
                Some(chain) if chain.len >= 2 => (emit_fused(&chain, cap, &mut out).is_ok()
                    && replacement_dead_after(
                        &steps[chain.len..],
                        &steps[..chain.len],
                        &out[mark..],
                        &chain,
                    ))
                .then_some(chain.len),
                _ => None,
            };
            match fused {
                Some(len) => drop(rest.nth(len - 1)),
                None => {
                    out.truncate(mark);
                    out.extend(rest.next());
                }
            }
        }
        Ok(PimProgram { steps: out })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coruscant_mem::MemoryConfig;

    fn loc() -> DbcLocation {
        DbcLocation::new(0, 0, 0, 0)
    }

    fn bs() -> BlockSize {
        BlockSize::new(8).unwrap()
    }

    /// A descending pairwise accumulator chain folding `n` operand rows
    /// `base ..= base + n - 1` into `dst`.
    fn chain_steps(op: CpimOpcode, base: usize, n: usize, dst: usize) -> Vec<Step> {
        (0..n - 1)
            .map(|j| {
                let src = base + n - 2 - j;
                let d = if j == n - 2 { dst } else { src };
                Step::Exec(
                    CpimInstr::new(
                        op,
                        RowAddress::new(loc(), src),
                        2,
                        bs(),
                        Some(RowAddress::new(loc(), d)),
                    )
                    .unwrap(),
                )
            })
            .collect()
    }

    fn ctx() -> PassContext {
        PassContext {
            config: MemoryConfig::tiny(),
        }
    }

    #[test]
    fn five_operand_chain_fuses_to_one_instruction() {
        let program = PimProgram {
            steps: chain_steps(CpimOpcode::And, 4, 5, 20),
        };
        let fused = TrFusionPass.run(program, &ctx()).unwrap();
        assert_eq!(fused.instruction_count(), 1);
        let Step::Exec(i) = &fused.steps[0] else {
            panic!("expected exec");
        };
        assert_eq!(i.operands, 5);
        assert_eq!(i.src.row, 4);
        assert_eq!(i.dst.unwrap().row, 20);
    }

    #[test]
    fn long_chain_splits_into_trd_groups() {
        // 10 operands at TRD 7: one 7-op group folding rows 5..=11 into
        // row 5 (where the chain's accumulator would stand), then a 4-op
        // group over rows 2..=5 into the destination.
        let program = PimProgram {
            steps: chain_steps(CpimOpcode::Xor, 2, 10, 25),
        };
        let fused = TrFusionPass.run(program, &ctx()).unwrap();
        assert_eq!(fused.instruction_count(), 2);
        let ops: Vec<(usize, u8, usize)> = fused
            .steps
            .iter()
            .map(|s| match s {
                Step::Exec(i) => (i.src.row, i.operands, i.dst.unwrap().row),
                _ => panic!("expected exec"),
            })
            .collect();
        assert_eq!(ops, vec![(5, 7, 5), (2, 4, 25)]);
    }

    #[test]
    fn live_intermediate_blocks_fusion() {
        let mut steps = chain_steps(CpimOpcode::And, 4, 4, 20);
        // A later readout observes a chain intermediate (row 5): fusing
        // would leave the original operand there instead of the partial.
        steps.push(Step::Readout {
            label: "leak".into(),
            addr: RowAddress::new(loc(), 5),
            lane: 8,
        });
        let n = steps.len();
        let program = PimProgram { steps };
        let fused = TrFusionPass.run(program, &ctx()).unwrap();
        assert_eq!(fused.steps.len(), n, "chain must not fuse");
    }

    #[test]
    fn residue_read_blocks_fusion() {
        let mut steps = chain_steps(CpimOpcode::And, 4, 4, 20);
        // Row 12 is outside the operand span but inside the chain's
        // placement-residue window: reading it pins the original steps.
        steps.push(Step::Readout {
            label: "residue".into(),
            addr: RowAddress::new(loc(), 12),
            lane: 8,
        });
        let n = steps.len();
        let program = PimProgram { steps };
        let fused = TrFusionPass.run(program, &ctx()).unwrap();
        assert_eq!(fused.steps.len(), n, "chain must not fuse");
    }

    #[test]
    fn rewritten_intermediate_allows_fusion() {
        let mut steps = chain_steps(CpimOpcode::Or, 4, 4, 20);
        // The intermediate is overwritten before the readout: dead.
        steps.push(Step::Load {
            addr: RowAddress::new(loc(), 5),
            values: vec![0],
            lane: 8,
        });
        steps.push(Step::Readout {
            label: "ok".into(),
            addr: RowAddress::new(loc(), 5),
            lane: 8,
        });
        let program = PimProgram { steps };
        let fused = TrFusionPass.run(program, &ctx()).unwrap();
        assert_eq!(fused.instruction_count(), 1);
    }

    #[test]
    fn non_associative_ops_do_not_fuse() {
        let program = PimProgram {
            steps: chain_steps(CpimOpcode::Nand, 4, 4, 20),
        };
        let fused = TrFusionPass.run(program.clone(), &ctx()).unwrap();
        assert_eq!(fused, program);
    }

    #[test]
    fn ascending_chain_is_left_alone() {
        // The ascending accumulator pattern (dst one past src) is not a
        // valid chain on this hardware — placement residue corrupts the
        // not-yet-consumed operands — so it must not be rewritten.
        let steps: Vec<Step> = (0..3)
            .map(|j| {
                let d = if j == 2 { 20 } else { 4 + j + 1 };
                Step::Exec(
                    CpimInstr::new(
                        CpimOpcode::And,
                        RowAddress::new(loc(), 4 + j),
                        2,
                        bs(),
                        Some(RowAddress::new(loc(), d)),
                    )
                    .unwrap(),
                )
            })
            .collect();
        let program = PimProgram { steps };
        let fused = TrFusionPass.run(program.clone(), &ctx()).unwrap();
        assert_eq!(fused, program);
    }

    #[test]
    fn low_trd_caps_group_size() {
        let config = MemoryConfig::tiny().with_trd(3);
        let ctx = PassContext { config };
        let program = PimProgram {
            steps: chain_steps(CpimOpcode::And, 4, 5, 20),
        };
        let fused = TrFusionPass.run(program, &ctx).unwrap();
        // 5 operands at cap 3: rows 6..=8 fold into row 6, then rows
        // 4..=6 into the destination.
        assert_eq!(fused.instruction_count(), 2);
        for s in &fused.steps {
            let Step::Exec(i) = s else { panic!() };
            assert!(i.operands <= 3);
        }
    }
}
