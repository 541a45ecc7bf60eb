//! Shift-minimizing list scheduling.
//!
//! DWM access latency is dominated by the shifts that align a row under
//! an access port (paper §II-B, Table II): two accesses to nearby rows
//! cost little, two accesses to opposite ends of the DBC cost the full
//! wire length. This pass reorders *independent* steps so consecutive
//! accesses land close together, using the same per-DBC walk model as
//! `crate::stats::estimated_shifts`.
//!
//! Soundness comes from a dependence analysis over
//! `crate::effects`: an edge connects every conflicting step pair
//! (read/write overlap, DBC clobber, readout/readout order), and the
//! greedy scheduler only picks among steps whose predecessors have all
//! been emitted. Ties break toward program order, so an already-optimal
//! program is returned unchanged.

use crate::effects::{conflict, step_effects};
use crate::pass::{Pass, PassContext};
use crate::stats::{advance_positions, shift_cost_from};
use crate::CompileError;
use coruscant_core::program::PimProgram;
use coruscant_mem::DbcLocation;
use std::collections::HashMap;

/// The scheduling pass. See the module docs.
#[derive(Debug, Clone, Default)]
pub(crate) struct ShiftSchedulePass;

/// Programs past this size skip scheduling (the dependence analysis is
/// quadratic; real kernels sit far below this).
const MAX_SCHEDULED_STEPS: usize = 4096;

impl Pass for ShiftSchedulePass {
    fn name(&self) -> &'static str {
        "shift-schedule"
    }

    fn run(&self, program: PimProgram, _ctx: &PassContext) -> Result<PimProgram, CompileError> {
        let n = program.steps.len();
        if n <= 2 || n > MAX_SCHEDULED_STEPS {
            return Ok(program);
        }
        let effects: Vec<_> = program.steps.iter().map(step_effects).collect();

        // preds[i] counts unemitted steps that must precede step i;
        // succs[j] lists the steps unblocked when j is emitted.
        let mut pred_count = vec![0usize; n];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for i in 0..n {
            for j in 0..i {
                if conflict(&effects[j], &effects[i]) {
                    pred_count[i] += 1;
                    succs[j].push(i);
                }
            }
        }

        let mut ready: Vec<usize> = (0..n).filter(|&i| pred_count[i] == 0).collect();
        let mut pos: HashMap<DbcLocation, usize> = HashMap::new();
        let mut order = Vec::with_capacity(n);
        while let Some((slot, _)) = ready
            .iter()
            .enumerate()
            .map(|(slot, &i)| (slot, (shift_cost_from(&pos, &program.steps[i]), i)))
            .min_by_key(|&(_, key)| key)
        {
            let i = ready.swap_remove(slot);
            advance_positions(&mut pos, &program.steps[i]);
            order.push(i);
            for &s in &succs[i] {
                pred_count[s] -= 1;
                if pred_count[s] == 0 {
                    ready.push(s);
                }
            }
        }
        debug_assert_eq!(order.len(), n, "dependence graph must be acyclic");

        let mut slots: Vec<Option<coruscant_core::program::Step>> =
            program.steps.into_iter().map(Some).collect();
        let steps = order
            .into_iter()
            .map(|i| slots[i].take().expect("each step scheduled once"))
            .collect();
        Ok(PimProgram { steps })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::estimated_shifts;
    use coruscant_core::isa::{BlockSize, CpimInstr, CpimOpcode};
    use coruscant_core::program::Step;
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

    #[test]
    fn independent_loads_are_sorted_by_row_distance() {
        // Zig-zag access pattern: 20, 4, 21, 5 costs 20+16+17+16 shifts;
        // the scheduler should settle near 4, 5, 20, 21.
        let program = PimProgram {
            steps: vec![load(20, 0), load(4, 1), load(21, 2), load(5, 3)],
        };
        let before = estimated_shifts(&program.steps);
        let out = ShiftSchedulePass.run(program, &ctx()).unwrap();
        let after = estimated_shifts(&out.steps);
        assert!(
            after < before,
            "schedule reduced shifts: {after} < {before}"
        );
        let rows: Vec<usize> = out
            .steps
            .iter()
            .map(|s| match s {
                Step::Load { addr, .. } => addr.row,
                _ => panic!(),
            })
            .collect();
        assert_eq!(rows, vec![4, 5, 20, 21]);
    }

    #[test]
    fn dependent_steps_keep_their_order() {
        // Load row 20 then AND reading rows 20..21 then readout: the
        // chain cannot reorder despite the zig-zag rows.
        let and = Step::Exec(
            CpimInstr::new(
                CpimOpcode::And,
                RowAddress::new(loc(), 20),
                2,
                BlockSize::new(8).unwrap(),
                Some(RowAddress::new(loc(), 4)),
            )
            .unwrap(),
        );
        let program = PimProgram {
            steps: vec![
                load(20, 1),
                load(21, 2),
                and.clone(),
                Step::Readout {
                    label: "x".into(),
                    addr: RowAddress::new(loc(), 4),
                    lane: 8,
                },
            ],
        };
        let out = ShiftSchedulePass.run(program.clone(), &ctx()).unwrap();
        assert_eq!(out, program);
    }

    #[test]
    fn readout_order_is_preserved() {
        let program = PimProgram {
            steps: vec![
                load(4, 1),
                load(20, 2),
                Step::Readout {
                    label: "far".into(),
                    addr: RowAddress::new(loc(), 20),
                    lane: 8,
                },
                Step::Readout {
                    label: "near".into(),
                    addr: RowAddress::new(loc(), 4),
                    lane: 8,
                },
            ],
        };
        let out = ShiftSchedulePass.run(program, &ctx()).unwrap();
        let labels: Vec<&str> = out
            .steps
            .iter()
            .filter_map(|s| match s {
                Step::Readout { label, .. } => Some(label.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(labels, vec!["far", "near"], "output order is observable");
    }

    #[test]
    fn already_optimal_program_is_unchanged() {
        let program = PimProgram {
            steps: vec![load(4, 0), load(5, 1), load(6, 2)],
        };
        let out = ShiftSchedulePass.run(program.clone(), &ctx()).unwrap();
        assert_eq!(out, program);
    }
}
