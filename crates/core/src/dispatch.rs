//! Executes `cpim` instructions against the memory system.
//!
//! The [`PimMachine`] plays the memory controller's role from §III-E: it
//! decodes a [`CpimInstr`], gathers the operand rows from the target DBC,
//! runs the corresponding PIM algorithm functionally (charging device
//! cycles and energy), accounts the operation's bank occupancy in the
//! command-level controller, and optionally writes the result back.

use crate::add::MultiOperandAdder;
use crate::arith::ArithmeticUnit;
use crate::bulk::{BulkExecutor, BulkOp};
use crate::isa::{CpimInstr, CpimOpcode};
use crate::maxpool::MaxExecutor;
use crate::mult::{CsaReducer, Multiplier, SumLists};
use crate::nmr::NmrVoter;
use crate::relu::relu_row;
use crate::{PimError, Result};
use coruscant_mem::controller::Request;
use coruscant_mem::{MemoryConfig, MemoryController, Row};
use coruscant_racetrack::{Cost, CostMeter};

/// The outcome of executing one instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecOutcome {
    /// The produced row, if the operation yields one.
    pub result: Option<Row>,
    /// Device-level cost of the operation.
    pub cost: Cost,
    /// Completion time at the memory controller, in memory cycles.
    pub completion: u64,
}

/// A memory system with CORUSCANT PIM execution.
#[derive(Debug)]
pub struct PimMachine {
    ctrl: MemoryController,
    /// The operand rows of the instruction executing, kept from one
    /// instruction to the next (as are the multiplier's lists) so that a
    /// warm machine allocates none.
    rows: Vec<Row>,
    sums: SumLists,
}

impl PimMachine {
    /// Creates a machine over a fresh DWM memory.
    pub fn new(config: MemoryConfig) -> PimMachine {
        PimMachine::from_controller(MemoryController::new(config))
    }

    /// Creates a machine whose memory runs under seeded, per-bank fault
    /// injection (see [`coruscant_mem::FaultPlan`]): every DBC the
    /// machine touches materializes with fault injectors attached, so
    /// whole programs execute under the paper's §V-F fault model.
    pub fn with_faults(config: MemoryConfig, plan: coruscant_mem::FaultPlan) -> PimMachine {
        PimMachine::from_controller(MemoryController::with_faults(config, plan))
    }

    /// Wraps an existing controller.
    pub(crate) fn from_controller(ctrl: MemoryController) -> PimMachine {
        let (rows, sums) = (Vec::new(), SumLists::default());
        PimMachine { ctrl, rows, sums }
    }

    /// The underlying controller.
    pub fn controller(&self) -> &MemoryController {
        &self.ctrl
    }

    /// Mutable access to the underlying controller (loading data, reading
    /// results, submitting plain requests).
    pub fn controller_mut(&mut self) -> &mut MemoryController {
        &mut self.ctrl
    }

    /// Executes one `cpim` instruction.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::NotPim`] when the source DBC lacks PIM
    /// capability, instruction-validation errors, or memory errors.
    pub fn execute(&mut self, instr: &CpimInstr) -> Result<ExecOutcome> {
        let PimMachine { ctrl, rows, sums } = self;
        let config = ctrl.config().clone();
        let location = instr.src.location;
        location.validate(&config).map_err(PimError::from)?;
        if instr.opcode != CpimOpcode::Copy && !location.is_pim(&config) {
            return Err(PimError::NotPim);
        }
        let (k, base) = (instr.operands as usize, instr.src.row);
        let bs = instr.blocksize.bits().min(config.nanowires_per_dbc);
        // The operand rows read out ahead of the op: none where it works in
        // place.
        let gathered = match instr.opcode {
            CpimOpcode::Mult | CpimOpcode::Sub if k != 2 => {
                let op = instr.opcode.to_string().replace("cpim.", "");
                return Err(PimError::BadInstruction(format!(
                    "{op} needs 2 operands, got {k}"
                )));
            }
            CpimOpcode::Reduce | CpimOpcode::Relu | CpimOpcode::Copy => 0,
            _ => k,
        };
        let mut meter = CostMeter::new();
        let result = match instr.opcode {
            CpimOpcode::Copy => {
                let dst = instr
                    .dst
                    .ok_or_else(|| PimError::BadInstruction("copy needs a destination".into()))?;
                coruscant_mem::transfer::copy_row(ctrl, instr.src, dst, &mut meter)?;
                None
            }
            opcode => {
                let dbc = ctrl.dbc_mut(location)?;
                rows.clear();
                for i in 0..gathered {
                    rows.push(dbc.read_row(base + i, &mut meter)?);
                }
                let (ops, meter) = (&rows[..], &mut meter);
                Some(match opcode {
                    CpimOpcode::Add => {
                        MultiOperandAdder::new(&config).add_rows(dbc, ops, bs, meter)?
                    }
                    CpimOpcode::Reduce => {
                        let out =
                            CsaReducer::new(config.trd).reduce(dbc, base.max(1), k, bs, meter)?;
                        dbc.peek_row(out.s)?
                    }
                    CpimOpcode::Mult => {
                        let mult = Multiplier::new(&config);
                        mult.multiply_with(dbc, &ops[0], &ops[1], bs / 2, sums, meter)?
                    }
                    CpimOpcode::Max => MaxExecutor::new(&config).max_rows(dbc, ops, bs, meter)?,
                    CpimOpcode::Relu => relu_row(dbc, base, bs, meter)?,
                    CpimOpcode::Vote => NmrVoter::new(&config).vote_rows(dbc, ops, meter)?,
                    CpimOpcode::Sub => {
                        let unit = ArithmeticUnit::new(&config);
                        unit.subtract(dbc, &ops[0], &ops[1], bs, meter)?
                    }
                    CpimOpcode::Min => {
                        ArithmeticUnit::new(&config).min_rows(dbc, ops, bs, meter)?
                    }
                    bulk => {
                        let op = match bulk {
                            CpimOpcode::And => BulkOp::And,
                            CpimOpcode::Nand => BulkOp::Nand,
                            CpimOpcode::Or => BulkOp::Or,
                            CpimOpcode::Nor => BulkOp::Nor,
                            CpimOpcode::Xor => BulkOp::Xor,
                            CpimOpcode::Xnor => BulkOp::Xnor,
                            _ => BulkOp::Not,
                        };
                        BulkExecutor::new(&config).execute(dbc, op, ops, meter)?
                    }
                })
            }
        };
        // Write back if a destination was named (and the op produced data).
        if let (Some(dst), Some(data)) = (instr.dst, &result) {
            ctrl.store_row(dst, data, &mut meter)?;
        }

        let cost = meter.total();
        let completion = ctrl
            .submit(Request::Pim {
                location: instr.src.location,
                device_cycles: cost.cycles,
                energy_pj: cost.energy_pj,
            })
            .map_err(PimError::from)?;

        Ok(ExecOutcome {
            result,
            cost,
            completion,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::BlockSize;
    use coruscant_mem::{DbcLocation, RowAddress};

    fn machine() -> PimMachine {
        PimMachine::new(MemoryConfig::tiny())
    }

    fn pim_addr(row: usize) -> RowAddress {
        RowAddress::new(DbcLocation::new(0, 0, 0, 0), row)
    }

    fn load(m: &mut PimMachine, row: usize, values: &[u64], bs: usize) {
        let data = Row::pack(64, bs, values);
        let mut meter = CostMeter::new();
        m.controller_mut()
            .store_row(pim_addr(row), &data, &mut meter)
            .unwrap();
    }

    #[test]
    fn add_instruction_end_to_end() {
        let mut m = machine();
        for (i, v) in [[10u64; 8], [20; 8], [30; 8]].iter().enumerate() {
            load(&mut m, 8 + i, v, 8);
        }
        let instr = CpimInstr::new(
            CpimOpcode::Add,
            pim_addr(8),
            3,
            BlockSize::new(8).unwrap(),
            Some(pim_addr(20)),
        )
        .unwrap();
        let out = m.execute(&instr).unwrap();
        let result = out.result.unwrap();
        assert_eq!(result.unpack(8), vec![60; 8]);
        assert!(out.cost.cycles > 0);
        assert!(out.completion > 0);
        // Written back to the destination row.
        let mut meter = CostMeter::new();
        let stored = m
            .controller_mut()
            .load_row(pim_addr(20), &mut meter)
            .unwrap();
        assert_eq!(stored.unpack(8), vec![60; 8]);
    }

    #[test]
    fn bulk_and_instruction() {
        let mut m = machine();
        load(&mut m, 5, &[0xFF, 0xF0, 0x0F, 0xAA, 0, 0, 0, 0], 8);
        load(&mut m, 6, &[0x0F, 0xF0, 0xFF, 0x55, 0, 0, 0, 0], 8);
        let instr = CpimInstr::new(
            CpimOpcode::And,
            pim_addr(5),
            2,
            BlockSize::new(8).unwrap(),
            None,
        )
        .unwrap();
        let out = m.execute(&instr).unwrap();
        assert_eq!(
            out.result.unwrap().unpack(8),
            vec![0x0F, 0xF0, 0x0F, 0x00, 0, 0, 0, 0]
        );
    }

    #[test]
    fn mult_instruction() {
        let mut m = machine();
        load(&mut m, 8, &[7, 250, 3, 0], 16);
        load(&mut m, 9, &[6, 250, 99, 1], 16);
        let instr = CpimInstr::new(
            CpimOpcode::Mult,
            pim_addr(8),
            2,
            BlockSize::new(16).unwrap(),
            None,
        )
        .unwrap();
        let out = m.execute(&instr).unwrap();
        assert_eq!(out.result.unwrap().unpack(16), vec![42, 62500, 297, 0]);
    }

    #[test]
    fn max_instruction() {
        let mut m = machine();
        load(&mut m, 10, &[9, 1, 200, 0, 0, 0, 0, 0], 8);
        load(&mut m, 11, &[8, 250, 100, 0, 0, 0, 0, 0], 8);
        let instr = CpimInstr::new(
            CpimOpcode::Max,
            pim_addr(10),
            2,
            BlockSize::new(8).unwrap(),
            None,
        )
        .unwrap();
        let out = m.execute(&instr).unwrap();
        let r = out.result.unwrap().unpack(8);
        assert_eq!(&r[..3], &[9, 250, 200]);
    }

    #[test]
    fn vote_instruction() {
        let mut m = machine();
        load(&mut m, 3, &[0xAB; 8], 8);
        load(&mut m, 4, &[0xAB; 8], 8);
        load(&mut m, 5, &[0xAA; 8], 8);
        let instr = CpimInstr::new(
            CpimOpcode::Vote,
            pim_addr(3),
            3,
            BlockSize::new(8).unwrap(),
            None,
        )
        .unwrap();
        let out = m.execute(&instr).unwrap();
        assert_eq!(out.result.unwrap().unpack(8), vec![0xAB; 8]);
    }

    #[test]
    fn copy_instruction_to_storage_dbc() {
        let mut m = machine();
        load(&mut m, 2, &[0x77; 8], 8);
        let dst = RowAddress::new(DbcLocation::new(0, 0, 0, 1), 9);
        let instr = CpimInstr::new(
            CpimOpcode::Copy,
            pim_addr(2),
            1,
            BlockSize::new(8).unwrap(),
            Some(dst),
        )
        .unwrap();
        let out = m.execute(&instr).unwrap();
        assert!(out.result.is_none());
        let mut meter = CostMeter::new();
        assert_eq!(
            m.controller_mut()
                .load_row(dst, &mut meter)
                .unwrap()
                .unpack(8),
            vec![0x77; 8]
        );
    }

    #[test]
    fn pim_on_storage_dbc_rejected() {
        let mut m = machine();
        let storage = RowAddress::new(DbcLocation::new(0, 0, 0, 2), 0);
        let instr =
            CpimInstr::new(CpimOpcode::Or, storage, 2, BlockSize::new(8).unwrap(), None).unwrap();
        assert!(matches!(m.execute(&instr), Err(PimError::NotPim)));
    }

    #[test]
    fn copy_without_destination_rejected() {
        let mut m = machine();
        let instr = CpimInstr::new(
            CpimOpcode::Copy,
            pim_addr(0),
            1,
            BlockSize::new(8).unwrap(),
            None,
        )
        .unwrap();
        assert!(matches!(
            m.execute(&instr),
            Err(PimError::BadInstruction(_))
        ));
    }

    #[test]
    fn sub_instruction() {
        let mut m = machine();
        load(&mut m, 8, &[100, 5, 0, 200, 1, 2, 3, 4], 8);
        load(&mut m, 9, &[55, 9, 1, 100, 1, 2, 3, 4], 8);
        let instr = CpimInstr::new(
            CpimOpcode::Sub,
            pim_addr(8),
            2,
            BlockSize::new(8).unwrap(),
            None,
        )
        .unwrap();
        let out = m.execute(&instr).unwrap();
        assert_eq!(
            out.result.unwrap().unpack(8),
            vec![45, 252, 255, 100, 0, 0, 0, 0],
            "two's complement per lane"
        );
    }

    #[test]
    fn min_instruction() {
        let mut m = machine();
        load(&mut m, 12, &[9, 250, 7, 0, 0, 0, 0, 0], 8);
        load(&mut m, 13, &[8, 251, 7, 1, 0, 0, 0, 0], 8);
        load(&mut m, 14, &[10, 249, 6, 2, 0, 0, 0, 0], 8);
        let instr = CpimInstr::new(
            CpimOpcode::Min,
            pim_addr(12),
            3,
            BlockSize::new(8).unwrap(),
            None,
        )
        .unwrap();
        let out = m.execute(&instr).unwrap();
        let r = out.result.unwrap().unpack(8);
        assert_eq!(&r[..4], &[8, 249, 6, 0]);
    }

    #[test]
    fn faulty_machine_corrupts_results_reproducibly() {
        use coruscant_mem::FaultPlan;
        use coruscant_racetrack::FaultConfig;
        let run = |plan: Option<FaultPlan>| {
            let mut m = match plan {
                Some(p) => PimMachine::with_faults(MemoryConfig::tiny(), p),
                None => machine(),
            };
            load(&mut m, 4, &[0x35; 8], 8);
            load(&mut m, 5, &[0x12; 8], 8);
            let instr = CpimInstr::new(
                CpimOpcode::Add,
                pim_addr(4),
                2,
                BlockSize::new(8).unwrap(),
                Some(pim_addr(20)),
            )
            .unwrap();
            m.execute(&instr).unwrap().result.unwrap().unpack(8)
        };
        let clean = run(None);
        assert_eq!(clean, vec![0x47; 8]);
        let storm = FaultConfig::NONE.with_tr_fault_rate(0.5);
        let faulty = run(Some(FaultPlan::uniform(storm, 3).unwrap()));
        assert_ne!(faulty, clean, "a 50% TR fault storm must corrupt the sum");
        let again = run(Some(FaultPlan::uniform(storm, 3).unwrap()));
        assert_eq!(faulty, again, "seeded campaigns reproduce exactly");
    }

    #[test]
    fn relu_instruction() {
        let mut m = machine();
        load(&mut m, 7, &[0x90, 0x05, 0xFF, 0x7F, 0, 0, 0, 0], 8);
        let instr = CpimInstr::new(
            CpimOpcode::Relu,
            pim_addr(7),
            1,
            BlockSize::new(8).unwrap(),
            None,
        )
        .unwrap();
        let out = m.execute(&instr).unwrap();
        assert_eq!(
            out.result.unwrap().unpack(8),
            vec![0, 0x05, 0, 0x7F, 0, 0, 0, 0]
        );
    }
}
