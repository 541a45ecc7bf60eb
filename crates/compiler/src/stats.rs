//! Program-level planning statistics the pass manager snapshots before
//! and after every pass.

use coruscant_core::program::{PimProgram, Step};
use coruscant_mem::{DbcLocation, MemoryConfig};
use serde::Serialize;
use std::collections::HashMap;
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
        let mut loads = 0;
        let mut readouts = 0;
        for step in &program.steps {
            match step {
                Step::Load { .. } => loads += 1,
                Step::Readout { .. } => readouts += 1,
                Step::Exec(_) => {}
            }
        }
        ProgramStats {
            steps: program.steps.len(),
            instructions: program.instruction_count(),
            loads,
            readouts,
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
/// align under a port).
pub(crate) fn accessed_rows(step: &Step) -> Vec<(DbcLocation, usize)> {
    match step {
        Step::Load { addr, .. } | Step::Readout { addr, .. } => {
            vec![(addr.location, addr.row)]
        }
        Step::Exec(i) => {
            let mut rows: Vec<(DbcLocation, usize)> = (0..i.operands as usize)
                .map(|k| (i.src.location, i.src.row + k))
                .collect();
            if let Some(d) = i.dst {
                rows.push((d.location, d.row));
            }
            rows
        }
    }
}

/// Estimates the net shift distance (in domains) of a step sequence:
/// each DBC tracks the row last aligned under its port, and every access
/// pays the distance from there (paper §II-B — shifts dominate DWM access
/// latency when operands are far apart). This is the objective the
/// shift-minimizing scheduling pass reduces.
pub(crate) fn estimated_shifts(steps: &[Step]) -> u64 {
    let mut pos: HashMap<DbcLocation, usize> = HashMap::new();
    let mut total = 0u64;
    for step in steps {
        for (loc, row) in accessed_rows(step) {
            let p = pos.entry(loc).or_insert(0);
            total += (*p as i64 - row as i64).unsigned_abs();
            *p = row;
        }
    }
    total
}

/// The incremental shift cost of appending `step` when each DBC's head
/// position is `pos`, without committing the move.
pub(crate) fn shift_cost_from(pos: &HashMap<DbcLocation, usize>, step: &Step) -> u64 {
    let mut local = pos.clone();
    let mut total = 0u64;
    for (loc, row) in accessed_rows(step) {
        let p = local.entry(loc).or_insert(0);
        total += (*p as i64 - row as i64).unsigned_abs();
        *p = row;
    }
    total
}

/// Commits `step`'s accesses into the running per-DBC head positions.
pub(crate) fn advance_positions(pos: &mut HashMap<DbcLocation, usize>, step: &Step) {
    for (loc, row) in accessed_rows(step) {
        pos.insert(loc, row);
    }
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
