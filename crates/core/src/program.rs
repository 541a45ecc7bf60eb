//! The PIM program/job model: a sequence of [`Step`]s (data loads, `cpim`
//! instructions, result readouts) with explicit data placement.
//!
//! Programs are what clients hand to the execution runtime: the compiler
//! (or a user) builds a [`PimProgram`], and either [`execute`] replays it
//! on a fresh [`PimMachine`] or the `coruscant-runtime` scheduler picks a
//! PIM unit for it and its executor maps every address onto that unit as
//! it steps (paper §V-C). Placement is first-class: a program can be
//! [moved](PimProgram::place_on) onto any PIM-enabled DBC in place, and
//! its [target banks](PimProgram::target_banks) tell which banks it
//! occupies as written.

use crate::dispatch::PimMachine;
use crate::isa::CpimInstr;
use crate::Result;
use coruscant_mem::{DbcLocation, MemoryConfig, Row, RowAddress};
use coruscant_racetrack::CostMeter;
use serde::{Deserialize, Serialize};

/// One program step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Step {
    /// Load lane-packed values into a row before the next instruction.
    Load {
        /// Destination row.
        addr: RowAddress,
        /// Lane-packed values.
        values: Vec<u64>,
        /// Lane width in bits.
        lane: usize,
    },
    /// Execute a `cpim` instruction.
    Exec(CpimInstr),
    /// Read a result row out and record it under a label.
    Readout {
        /// Result label.
        label: String,
        /// Source row.
        addr: RowAddress,
        /// Lane width for unpacking.
        lane: usize,
    },
}

impl Step {
    /// The DBC this step touches (the source DBC for instructions).
    pub fn target(&self) -> DbcLocation {
        match self {
            Step::Load { addr, .. } | Step::Readout { addr, .. } => addr.location,
            Step::Exec(i) => i.src.location,
        }
    }

    /// Rewrites every row address the step names, in place: an
    /// instruction's destination goes through `f` like its source.
    pub fn map_addrs(&mut self, f: impl Fn(RowAddress) -> RowAddress) {
        match self {
            Step::Load { addr, .. } | Step::Readout { addr, .. } => *addr = f(*addr),
            Step::Exec(i) => {
                i.src = f(i.src);
                i.dst = i.dst.map(f);
            }
        }
    }
}

/// A compiled PIM program.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PimProgram {
    /// The steps, in order.
    pub steps: Vec<Step>,
}

impl PimProgram {
    /// The program's `cpim` instructions in order, skipping loads and
    /// readouts (data movement, not instructions). The single source of
    /// truth behind [`instruction_count`](PimProgram::instruction_count),
    /// [`estimated_device_cycles`](PimProgram::estimated_device_cycles)
    /// and [`encode_instructions`](PimProgram::encode_instructions).
    pub fn instructions(&self) -> impl Iterator<Item = &CpimInstr> {
        self.steps.iter().filter_map(|s| match s {
            Step::Exec(i) => Some(i),
            _ => None,
        })
    }

    /// Number of `cpim` instructions in the program.
    pub fn instruction_count(&self) -> usize {
        self.instructions().count()
    }

    /// Whether the program has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Moves every step onto `location` in place, preserving row offsets
    /// (data placement: operands, instructions, and readouts move
    /// together so the program runs self-contained on one PIM unit).
    /// Allocates nothing.
    pub fn place_on(&mut self, location: DbcLocation) {
        for step in &mut self.steps {
            step.map_addrs(|a| RowAddress::new(location, a.row));
        }
    }

    /// The single DBC every step targets, or `None` for an empty or
    /// multi-DBC program.
    pub fn single_location(&self) -> Option<DbcLocation> {
        let mut steps = self.steps.iter();
        let first = steps.next()?.target();
        steps.all(|s| s.target() == first).then_some(first)
    }

    /// The distinct banks this program's steps touch, ascending.
    pub fn target_banks(&self) -> Vec<usize> {
        let mut banks: Vec<usize> = self.steps.iter().map(|s| s.target().bank).collect();
        banks.sort_unstable();
        banks.dedup();
        banks
    }

    /// Coarse planning estimate of the program's internal PIM latency in
    /// device cycles (the sum of its instructions' estimates; loads and
    /// readouts are data movement accounted at the controller).
    pub fn estimated_device_cycles(&self, trd: usize) -> u64 {
        self.instructions()
            .map(|i| i.estimated_device_cycles(trd))
            .sum()
    }

    /// Encodes the instruction stream to its 64-bit trace form (loads and
    /// readouts are data movement, not instructions).
    pub fn encode_instructions(&self) -> Vec<u64> {
        self.instructions().map(|i| i.encode()).collect()
    }

    /// Decodes a trace back into instructions.
    ///
    /// # Errors
    ///
    /// Returns an ISA error on malformed words.
    pub fn decode_instructions(words: &[u64]) -> Result<Vec<CpimInstr>> {
        words.iter().map(|&w| CpimInstr::decode(w)).collect()
    }
}

/// The outcome of executing a program.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ProgramOutcome {
    /// Labeled readouts, in program order.
    pub outputs: Vec<(String, Vec<u64>)>,
    /// Total device cycles across the instructions.
    pub device_cycles: u64,
    /// Controller completion time (memory cycles).
    pub completion: u64,
}

/// Executes a program on a fresh machine.
///
/// # Errors
///
/// Propagates placement and execution errors.
pub fn execute(program: &PimProgram, config: &MemoryConfig) -> Result<ProgramOutcome> {
    let mut machine = PimMachine::new(config.clone());
    execute_on(program, &mut machine)
}

/// Executes a program on an existing machine (the runtime's shard
/// executors reuse one machine across many programs).
///
/// # Errors
///
/// Propagates placement and execution errors.
pub fn execute_on(program: &PimProgram, machine: &mut PimMachine) -> Result<ProgramOutcome> {
    let mut meter = CostMeter::new();
    let width = machine.controller().config().nanowires_per_dbc;
    let mut outputs = Vec::new();
    let mut device_cycles = 0;
    let mut completion = 0;
    for step in &program.steps {
        match step {
            Step::Load { addr, values, lane } => {
                let row = Row::pack(width, *lane, values);
                machine
                    .controller_mut()
                    .store_row(*addr, &row, &mut meter)?;
            }
            Step::Exec(instr) => {
                let out = machine.execute(instr)?;
                device_cycles += out.cost.cycles;
                completion = completion.max(out.completion);
            }
            Step::Readout { label, addr, lane } => {
                let row = machine.controller_mut().load_row(*addr, &mut meter)?;
                outputs.push((label.clone(), row.unpack(*lane)));
            }
        }
    }
    Ok(ProgramOutcome {
        outputs,
        device_cycles,
        completion,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{BlockSize, CpimOpcode};

    fn sample_program(loc: DbcLocation) -> PimProgram {
        let bs = BlockSize::new(8).unwrap();
        PimProgram {
            steps: vec![
                Step::Load {
                    addr: RowAddress::new(loc, 4),
                    values: vec![3; 8],
                    lane: 8,
                },
                Step::Load {
                    addr: RowAddress::new(loc, 5),
                    values: vec![4; 8],
                    lane: 8,
                },
                Step::Exec(
                    CpimInstr::new(
                        CpimOpcode::Add,
                        RowAddress::new(loc, 4),
                        2,
                        bs,
                        Some(RowAddress::new(loc, 20)),
                    )
                    .unwrap(),
                ),
                Step::Readout {
                    label: "sum".into(),
                    addr: RowAddress::new(loc, 20),
                    lane: 8,
                },
            ],
        }
    }

    #[test]
    fn place_on_moves_every_step() {
        let src = DbcLocation::new(0, 0, 0, 0);
        let dst = DbcLocation::new(1, 0, 0, 0);
        let mut p = sample_program(src);
        assert_eq!(p.single_location(), Some(src));
        p.place_on(dst);
        assert_eq!(p.target_banks(), vec![1]);
        assert_eq!(p.single_location(), Some(dst));
        // Instruction destination moved with the source.
        let Step::Exec(i) = &p.steps[2] else {
            panic!("expected exec")
        };
        assert_eq!(i.dst.unwrap().location, dst);
        assert_eq!(i.dst.unwrap().row, 20, "row offsets preserved");
        // A step elsewhere makes the program multi-DBC; none, empty.
        p.steps[3].map_addrs(|a| RowAddress::new(src, a.row));
        assert_eq!(p.single_location(), None);
        assert_eq!(PimProgram::default().single_location(), None);
    }

    #[test]
    fn moved_program_computes_the_same_result() {
        let config = MemoryConfig::tiny();
        let a = execute(&sample_program(DbcLocation::new(0, 0, 0, 0)), &config).unwrap();
        let mut moved = sample_program(DbcLocation::new(0, 0, 0, 0));
        moved.place_on(DbcLocation::new(1, 0, 0, 0));
        let b = execute(&moved, &config).unwrap();
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.outputs[0].1[0], 7);
        assert_eq!(a.device_cycles, b.device_cycles);
    }

    #[test]
    fn estimated_cycles_are_positive_for_instructions() {
        let p = sample_program(DbcLocation::new(0, 0, 0, 0));
        assert!(p.estimated_device_cycles(7) > 0);
        assert_eq!(PimProgram::default().estimated_device_cycles(7), 0);
    }

    #[test]
    fn program_estimate_is_pinned_to_instruction_estimates() {
        // The program-level estimate must stay the sum of the
        // instruction-level estimates for every opcode and TRD — the two
        // views share one instruction iterator and must never drift.
        use CpimOpcode::*;
        let loc = DbcLocation::new(0, 0, 0, 0);
        let bs = BlockSize::new(8).unwrap();
        let steps: Vec<Step> = [
            And, Nand, Or, Nor, Xor, Xnor, Not, Add, Reduce, Mult, Max, Relu, Vote, Copy, Sub, Min,
        ]
        .into_iter()
        .map(|op| {
            let operands = match op {
                Not | Relu | Copy => 1,
                Vote => 3,
                _ => 2,
            };
            Step::Exec(
                CpimInstr::new(
                    op,
                    RowAddress::new(loc, 4),
                    operands,
                    bs,
                    Some(RowAddress::new(loc, 20)),
                )
                .unwrap(),
            )
        })
        .collect();
        let program = PimProgram { steps };
        for trd in [3, 5, 7] {
            let per_instr: u64 = program
                .instructions()
                .map(|i| i.estimated_device_cycles(trd))
                .sum();
            assert_eq!(program.estimated_device_cycles(trd), per_instr, "trd={trd}");
            assert!(per_instr > 0);
        }
        assert_eq!(program.instruction_count(), 16);
        assert_eq!(program.encode_instructions().len(), 16);
    }
}
