//! Cross-program batching: splice same-unit programs into one batched
//! program and optimize across the boundary.
//!
//! The runtime's same-bank batch fusion (DESIGN.md §4e) concatenates the
//! step streams of co-located jobs and runs the standard pass pipeline
//! over the whole batch, so fusion and scheduling see across program
//! boundaries. Splicing is semantics-preserving by construction — the
//! batched program *is* the sequential execution of its members on one
//! machine — and demuxing rests on two invariants of the effect model
//! (`crate::effects`): readouts are order-pinned (any two conflict, so
//! no pass reorders them) and never deleted (DCE keeps every readout).
//! Per-member readout *counts*, recorded at splice time, therefore
//! survive every pass and slice the batched output vector exactly.

use coruscant_core::program::{PimProgram, Step};
use serde::Serialize;

/// One member program's share of a spliced batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct BatchSlot {
    /// Caller-chosen member tag (the runtime stores the job id).
    pub tag: u64,
    /// How many readouts the member contributes, in batch order.
    pub readouts: usize,
}

/// A spliced batch: the concatenated program plus the per-member output
/// slots needed to demux its results.
#[derive(Debug, Clone, PartialEq)]
pub struct SplicedBatch {
    /// The members' steps, concatenated in batch order.
    pub program: PimProgram,
    /// Per-member output slots, in batch order.
    pub slots: Vec<BatchSlot>,
}

fn readout_count(program: &PimProgram) -> usize {
    program
        .steps
        .iter()
        .filter(|s| matches!(s, Step::Readout { .. }))
        .count()
}

/// Splices tagged member programs into one batched program.
pub fn splice_programs<'a, I>(parts: I) -> SplicedBatch
where
    I: IntoIterator<Item = (u64, &'a PimProgram)>,
{
    let mut steps = Vec::new();
    let mut slots = Vec::new();
    for (tag, program) in parts {
        slots.push(BatchSlot {
            tag,
            readouts: readout_count(program),
        });
        steps.extend(program.steps.iter().cloned());
    }
    SplicedBatch {
        program: PimProgram { steps },
        slots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompileOptions, Compiler};
    use coruscant_mem::{DbcLocation, MemoryConfig, RowAddress};

    fn loc() -> DbcLocation {
        DbcLocation::new(0, 0, 0, 0)
    }

    fn query(a: u64, b: u64, label: &str) -> PimProgram {
        use coruscant_core::isa::{BlockSize, CpimInstr, CpimOpcode};
        PimProgram {
            steps: vec![
                Step::Load {
                    addr: RowAddress::new(loc(), 4),
                    values: vec![a],
                    lane: 64,
                },
                Step::Load {
                    addr: RowAddress::new(loc(), 5),
                    values: vec![b],
                    lane: 64,
                },
                Step::Exec(
                    CpimInstr::new(
                        CpimOpcode::And,
                        RowAddress::new(loc(), 4),
                        2,
                        BlockSize::new(64).unwrap(),
                        Some(RowAddress::new(loc(), 20)),
                    )
                    .unwrap(),
                ),
                Step::Readout {
                    label: label.into(),
                    addr: RowAddress::new(loc(), 20),
                    lane: 64,
                },
            ],
        }
    }

    #[test]
    fn splice_concatenates_and_counts_readouts() {
        let a = query(1, 3, "a");
        let b = query(5, 7, "b");
        let spliced = splice_programs([(10, &a), (11, &b)]);
        assert_eq!(spliced.program.steps.len(), 8);
        assert_eq!(
            spliced.slots,
            vec![
                BatchSlot {
                    tag: 10,
                    readouts: 1
                },
                BatchSlot {
                    tag: 11,
                    readouts: 1
                }
            ]
        );
    }

    #[test]
    fn optimized_batch_matches_sequential() {
        let config = MemoryConfig::tiny();
        let a = query(0xF0F0, 0xFF00, "a");
        let b = query(0x1234, 0x00FF, "b");
        let spliced = splice_programs([(0, &a), (1, &b)]);
        let compiler = Compiler::new(config.clone(), &CompileOptions::default());
        let (optimized, _) = compiler.optimize(&spliced.program).unwrap();
        // Readout counts recorded at splice time still slice the
        // optimized batch: no pass removes or reorders readouts.
        let outcome = coruscant_core::program::execute(&optimized, &config).unwrap();
        let (first, second) = outcome.outputs.split_at(spliced.slots[0].readouts);
        assert_eq!(
            first,
            coruscant_core::program::execute(&a, &config)
                .unwrap()
                .outputs
        );
        assert_eq!(
            second,
            coruscant_core::program::execute(&b, &config)
                .unwrap()
                .outputs
        );
    }
}
