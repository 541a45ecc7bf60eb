//! Jobs: placement-free programs plus a placement, and what the runtime
//! reports back.

use crate::cache;
use crate::handle::Done;
use coruscant_core::program::{PimProgram, Step};
use coruscant_mem::{DbcLocation, RowAddress};
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

/// Where a job's program should run. A placement never rewrites the
/// program: the scheduler resolves it to a PIM unit that travels beside
/// the job, and the executor maps each address onto that unit as it
/// steps. Every placement but [`Placement::Resident`] binds the job to
/// the unit's DBC: *every* address lands there, rows kept — so a program
/// that names several DBCs collapses onto the one unit (compile such a
/// program for a resident placement instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// The scheduler picks the next PIM unit in circular-bank order
    /// (paper §V-C high-throughput dispatch) — or a single fixed unit
    /// when the runtime runs in single-bank mode.
    #[default]
    Auto,
    /// Run on the `idx`-th PIM unit (bank-major indexing, see
    /// [`MemoryController::pim_unit`](coruscant_mem::MemoryController::pim_unit)).
    Unit(usize),
    /// Run on an explicit DBC.
    Fixed(DbcLocation),
    /// Run on the PIM unit currently hosting the resident pin with this
    /// id (see [`Runtime::pin_resident`](crate::Runtime::pin_resident)).
    /// The job binds to the unit's *tile*: each address takes the unit's
    /// bank, subarray and tile and keeps its own DBC index and row, so
    /// the program can copy pinned weights out of the tile's storage
    /// DBCs. If quarantine moves the residency, queued and re-dispatched
    /// jobs follow it to the new unit.
    Resident(u64),
}

impl Placement {
    /// Whether jobs so placed bind tile-relative (see [`Binding`]).
    pub(crate) fn tile_relative(self) -> bool {
        matches!(self, Placement::Resident(_))
    }
}

/// How the addresses of a dispatch's program bind to the unit it runs
/// on. Only the executor applies it; everything above holds programs
/// that name no real location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Binding {
    /// The PIM unit placement chose.
    pub unit: DbcLocation,
    /// Keep each address's DBC index (resident jobs) instead of taking
    /// the unit's.
    pub tile_relative: bool,
}

impl Binding {
    /// The concrete address `addr` names under this binding.
    pub(crate) fn map(self, addr: RowAddress) -> RowAddress {
        let dbc = if self.tile_relative {
            addr.location.dbc
        } else {
            self.unit.dbc
        };
        RowAddress::new(DbcLocation { dbc, ..self.unit }, addr.row)
    }
}

/// One unit of work: a program to run at some placement.
#[derive(Debug, Clone)]
pub(crate) struct PimJob {
    /// Runtime-assigned id, returned by `submit`.
    pub id: u64,
    /// The program, in the canonical frame: a single-DBC program bound
    /// to a DBC sits on DBC `(0,0,0,0)` wherever its client compiled
    /// it; a multi-DBC or tile-relative one keeps the locations it was
    /// written with. Shared behind an [`Arc`] with the compile cache,
    /// retries, NMR replicas and in-flight records — nothing between
    /// `submit` and the executor copies or rewrites a step.
    pub program: Arc<PimProgram>,
    /// Requested placement.
    pub placement: Placement,
    /// Absolute queueing deadline. Under the EDF issue policy it drives
    /// the within-bank issue order; in every engine a job found past
    /// its deadline at issue time is dropped as expired instead of
    /// being dispatched. `None` means no deadline (sorts last under
    /// EDF, never expires).
    pub deadline: Option<Instant>,
    /// The structural key `submit` probed the compile cache with (that
    /// of the program as submitted, before optimization); `None` for a
    /// job that bypassed the compiler, whose key is computed on demand.
    pub key: Option<u64>,
    /// Readouts the program contributes to its dispatch's output stream.
    pub readouts: usize,
    /// A served job's completion slot, resolved where its fate is
    /// decided; `None` for a job whose outcome the report carries.
    pub done: Option<Done>,
}

impl PimJob {
    /// A job around a program that bypasses the compiler — a chain
    /// member, a pin, a binder-built program — brought into the
    /// canonical frame.
    pub(crate) fn verbatim(id: u64, mut program: PimProgram, placement: Placement) -> PimJob {
        cache::canonicalize(&mut program, placement);
        PimJob {
            id,
            readouts: count_readouts(&program),
            program: Arc::new(program),
            placement,
            deadline: None,
            key: None,
            done: None,
        }
    }

    /// The job's structural key: the one it carries, or — for a job that
    /// bypassed the compiler — its program's fingerprint, computed when
    /// the splice cache or the poison registry asks.
    pub(crate) fn key(&self) -> u64 {
        self.key
            .unwrap_or_else(|| cache::fingerprint(&self.program))
    }
}

/// Readout steps of a program (passes neither add nor remove any).
pub(crate) fn count_readouts(program: &PimProgram) -> usize {
    let readout = |s: &&Step| matches!(s, Step::Readout { .. });
    program.steps.iter().filter(readout).count()
}

/// The completion record of one job.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct JobOutcome {
    /// The job's id.
    pub job_id: u64,
    /// Issue sequence number the scheduler assigned (circular-bank order).
    pub seq: u64,
    /// The PIM unit the job ran on.
    pub unit: DbcLocation,
    /// The bank that unit occupies.
    pub bank: usize,
    /// Labeled readouts, in program order.
    pub outputs: Vec<(String, Vec<u64>)>,
    /// Internal PIM latency of the job's instructions, device cycles.
    pub device_cycles: u64,
    /// Memory cycles the job waited for its bank (and bus) before its
    /// first instruction started.
    pub wait_cycles: u64,
    /// Modeled completion time, memory cycles — as accounted by the
    /// runtime's [`MemoryController`](coruscant_mem::MemoryController).
    pub completion: u64,
    /// Dispatch attempt this outcome came from (0 = first placement;
    /// higher values mean the job was re-dispatched after failing
    /// verification on another bank).
    pub attempt: u32,
    /// Executions of the program this attempt ran (1 unprotected, 2 + 2
    /// per retry under re-execute-and-compare, N under NMR).
    pub replicas: u32,
    /// Faults the attempt's protection detected (mismatching compare
    /// pairs, or voted readouts whose replicas disagreed).
    pub faults_detected: u64,
    /// Extra compare-pairs re-execute-and-compare ran after mismatches.
    pub retries: u32,
    /// Readouts where the NMR majority overruled at least one replica.
    pub votes_overturned: u64,
    /// Whether the outputs were verified by the protection policy
    /// (compare pairs agreed, or an NMR vote completed). Always `false`
    /// when protection is off.
    pub verified: bool,
    /// How many jobs shared the batched execution this outcome came from
    /// (1 = the job ran alone; ≥2 = same-bank batch fusion spliced it
    /// with co-located jobs).
    pub batch: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_binding_maps_addresses_onto_its_unit() {
        let unit = DbcLocation::new(3, 1, 0, 0);
        let addr = RowAddress::new(DbcLocation::new(6, 0, 1, 2), 9);
        let bind = |tile_relative| Binding {
            unit,
            tile_relative,
        };
        assert_eq!(bind(false).map(addr), RowAddress::new(unit, 9));
        let in_tile = DbcLocation::new(3, 1, 0, 2);
        assert_eq!(bind(true).map(addr), RowAddress::new(in_tile, 9));
    }

    #[test]
    fn a_verbatim_job_is_canonical_and_keyed_on_demand() {
        let readout_at = |home| PimProgram {
            steps: vec![Step::Readout {
                label: "x".into(),
                addr: RowAddress::new(home, 4),
                lane: 8,
            }],
        };
        let home = DbcLocation::new(2, 1, 1, 3);
        let job = PimJob::verbatim(7, readout_at(home), Placement::Unit(5));
        assert_eq!(*job.program, readout_at(cache::CANON));
        assert_eq!((job.readouts, job.key), (1, None));
        assert_eq!(job.key(), cache::fingerprint(&readout_at(cache::CANON)));
        // A tile-relative program keeps the DBC it names.
        let pin = PimJob::verbatim(8, readout_at(home), Placement::Resident(0));
        assert_eq!(*pin.program, readout_at(home));
        assert_ne!(pin.key(), job.key());
    }
}
