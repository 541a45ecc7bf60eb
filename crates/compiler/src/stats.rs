//! Program-level planning statistics the pass manager snapshots before
//! and after every pass.

use coruscant_core::program::{PimProgram, Step};
use coruscant_mem::{DbcLocation, MemoryConfig};
use serde::Serialize;
use std::fmt;

/// A snapshot of a program's size and estimated cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct ProgramStats {
    /// Total steps.
    pub steps: usize,
    /// `cpim` instructions (Exec steps).
    pub instructions: usize,
    /// Load steps.
    pub loads: usize,
    /// Readout steps.
    pub readouts: usize,
    /// Estimated internal PIM latency (device cycles), summed over the
    /// instruction stream via
    /// [`CpimInstr::estimated_device_cycles`](coruscant_core::isa::CpimInstr::estimated_device_cycles).
    pub est_device_cycles: u64,
    /// Estimated net shift distance (domains) the program's row accesses
    /// cost, per the walk model of `estimated_shifts`.
    pub est_shifts: u64,
}

impl ProgramStats {
    /// Computes the snapshot for a program under a configuration.
    pub fn of(program: &PimProgram, config: &MemoryConfig) -> ProgramStats {
        let count = |kind: fn(&Step) -> bool| program.steps.iter().filter(|s| kind(s)).count();
        ProgramStats {
            steps: program.steps.len(),
            instructions: program.instruction_count(),
            loads: count(|s| matches!(s, Step::Load { .. })),
            readouts: count(|s| matches!(s, Step::Readout { .. })),
            est_device_cycles: program.estimated_device_cycles(config.trd),
            est_shifts: estimated_shifts(&program.steps),
        }
    }
}

impl fmt::Display for ProgramStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} steps ({} instr, {} load, {} readout), ~{} device cycles, ~{} shifts",
            self.steps,
            self.instructions,
            self.loads,
            self.readouts,
            self.est_device_cycles,
            self.est_shifts
        )
    }
}

/// The rows a step accesses, in access order (the sequence the DBC must
/// align under a port): an instruction's operand rows, then its
/// destination. Accesses to one DBC are therefore consecutive.
fn accessed_rows(step: &Step) -> impl Iterator<Item = (DbcLocation, usize)> {
    let (loc, lo, n, dst) = match step {
        Step::Load { addr, .. } | Step::Readout { addr, .. } => (addr.location, addr.row, 1, None),
        Step::Exec(i) => (i.src.location, i.src.row, i.operands as usize, i.dst),
    };
    (lo..lo + n)
        .map(move |r| (loc, r))
        .chain(dst.map(|d| (d.location, d.row)))
}

/// Each DBC's head: the row last aligned under its port (row 0 before
/// its first access). Programs touch a few DBCs: the first four heads
/// live inline, any more on the heap.
pub(crate) struct Heads {
    len: usize,
    inline: [(DbcLocation, usize); 4],
    spill: Vec<(DbcLocation, usize)>,
}

impl Heads {
    pub(crate) fn new() -> Heads {
        Heads {
            len: 0,
            inline: [(DbcLocation::new(0, 0, 0, 0), 0); 4],
            spill: Vec::new(),
        }
    }

    fn at(&self, loc: DbcLocation) -> usize {
        let mut heads = self.inline[..self.len].iter().chain(&self.spill);
        heads.find(|(l, _)| *l == loc).map_or(0, |&(_, r)| r)
    }

    fn set(&mut self, loc: DbcLocation, row: usize) {
        let mut heads = self.inline[..self.len].iter_mut().chain(&mut self.spill);
        if let Some(head) = heads.find(|(l, _)| *l == loc) {
            head.1 = row;
        } else if self.len < self.inline.len() {
            self.inline[self.len] = (loc, row);
            self.len += 1;
        } else {
            self.spill.push((loc, row));
        }
    }

    /// The distance `step`'s accesses walk from the current heads,
    /// without moving them.
    pub(crate) fn cost(&self, step: &Step) -> u64 {
        // A step's accesses to one DBC are consecutive, so the previous
        // access is the only one of its own that can stand in for a head.
        let mut last: Option<(DbcLocation, usize)> = None;
        accessed_rows(step)
            .map(|(loc, row)| {
                let from = match last {
                    Some((l, r)) if l == loc => r,
                    _ => self.at(loc),
                };
                last = Some((loc, row));
                from.abs_diff(row) as u64
            })
            .sum()
    }

    /// Walks the heads through `step`'s accesses; returns the distance.
    pub(crate) fn advance(&mut self, step: &Step) -> u64 {
        let cost = self.cost(step);
        for (loc, row) in accessed_rows(step) {
            self.set(loc, row);
        }
        cost
    }
}

/// Estimates the net shift distance (in domains) of a step sequence:
/// each DBC tracks the row last aligned under its port, and every access
/// pays the distance from there (paper §II-B — shifts dominate DWM access
/// latency when operands are far apart). This is the objective the
/// shift-minimizing scheduling pass reduces.
pub(crate) fn estimated_shifts(steps: &[Step]) -> u64 {
    let mut heads = Heads::new();
    steps.iter().map(|s| heads.advance(s)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use coruscant_mem::RowAddress;

    fn load(row: usize) -> Step {
        Step::Load {
            addr: RowAddress::new(DbcLocation::new(0, 0, 0, 0), row),
            values: vec![0],
            lane: 8,
        }
    }

    #[test]
    fn shift_walk_accumulates_distance() {
        // 0 -> 4 (4), 4 -> 20 (16), 20 -> 5 (15).
        let steps = vec![load(4), load(20), load(5)];
        assert_eq!(estimated_shifts(&steps), 4 + 16 + 15);
        // Sorted order is cheaper: 0 -> 4 (4), 4 -> 5 (1), 5 -> 20 (15).
        let sorted = vec![load(4), load(5), load(20)];
        assert_eq!(estimated_shifts(&sorted), 4 + 1 + 15);
    }

    #[test]
    fn distinct_dbcs_walk_independently() {
        let other = DbcLocation::new(1, 0, 0, 0);
        let steps = vec![
            load(4),
            Step::Load {
                addr: RowAddress::new(other, 30),
                values: vec![0],
                lane: 8,
            },
            load(5),
        ];
        // 0->4 on dbc0 (4), 0->30 on dbc1 (30), 4->5 on dbc0 (1).
        assert_eq!(estimated_shifts(&steps), 4 + 30 + 1);
    }

    #[test]
    fn stats_snapshot_counts_step_kinds() {
        let config = MemoryConfig::tiny();
        let program = PimProgram {
            steps: vec![load(4), load(5)],
        };
        let s = ProgramStats::of(&program, &config);
        assert_eq!(s.steps, 2);
        assert_eq!(s.loads, 2);
        assert_eq!(s.instructions, 0);
        assert_eq!(s.est_device_cycles, 0);
    }
}
