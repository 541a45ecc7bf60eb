//! The non-PIM baseline: a CPU computing over main memory (paper §V-C).
//!
//! Every operand crosses the memory bus before the CPU can compute, so a
//! kernel's cost is its memory-access latency (through the DRAM or DWM
//! controller timing) plus bus transfer energy plus the per-op compute
//! energy of Table II. This is the baseline the polybench comparison of
//! Figs. 10–11 normalizes against.

use crate::BaselineCost;
use coruscant_mem::timing::{DeviceTiming, Protocol};
use coruscant_racetrack::energy::CpuEnergyModel;
use serde::{Deserialize, Serialize};

/// Which main memory backs the CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CpuMemory {
    /// Conventional DRAM.
    Dram,
    /// DWM (racetrack) main memory, no PIM.
    Dwm,
}

/// A CPU + main-memory cost model for arithmetic kernels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuBaseline {
    memory: CpuMemory,
    timing: DeviceTiming,
    energy: CpuEnergyModel,
    /// Average DWM shift distance per row miss (data-placement dependent;
    /// ShiftsReduce-style placement keeps it small).
    avg_shift: u64,
}

impl CpuBaseline {
    /// CPU over DRAM with the paper's Table II timing.
    pub fn dram() -> CpuBaseline {
        CpuBaseline {
            memory: CpuMemory::Dram,
            timing: DeviceTiming::DRAM_PAPER,
            energy: CpuEnergyModel::paper(),
            avg_shift: 0,
        }
    }

    /// CPU over DWM with the paper's Table II timing and an average shift
    /// distance of 4 domains per miss.
    pub fn dwm() -> CpuBaseline {
        CpuBaseline {
            memory: CpuMemory::Dwm,
            timing: DeviceTiming::DWM_PAPER,
            energy: CpuEnergyModel::paper(),
            avg_shift: 4,
        }
    }

    /// The memory technology.
    pub fn memory(&self) -> CpuMemory {
        self.memory
    }

    /// The timing profile in use.
    pub fn timing(&self) -> &DeviceTiming {
        &self.timing
    }

    /// Average memory-access latency in memory cycles, given a row-buffer
    /// hit rate in `[0, 1]`.
    pub(crate) fn access_latency(&self, hit_rate: f64) -> f64 {
        let shift = match self.timing.protocol {
            Protocol::Dram => 0,
            Protocol::Dwm => self.avg_shift,
        };
        hit_rate * self.timing.row_hit() as f64
            + (1.0 - hit_rate) * self.timing.row_miss(shift) as f64
    }

    /// Cost of a kernel that performs `adds` additions and `mults`
    /// multiplications over `bytes_moved` bytes of operand/result traffic,
    /// issuing `accesses` memory requests at the given row hit rate.
    ///
    /// Latency assumes the kernel is memory-bound (compute overlaps with
    /// outstanding misses), which is the regime the paper's memory-wall
    /// argument addresses.
    pub fn kernel(
        &self,
        adds: u64,
        mults: u64,
        bytes_moved: u64,
        accesses: u64,
        hit_rate: f64,
    ) -> BaselineCost {
        let latency = self.access_latency(hit_rate) * accesses as f64;
        let energy = self.energy.kernel_energy_pj(adds, mults, bytes_moved);
        BaselineCost::new(latency.round() as u64, energy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dwm_beats_dram_on_access_latency() {
        // Paper §V-C: DRAM is slower than DWM because, despite the shift
        // term, DWM's peripheral circuitry is faster (9-4-S-4-4 vs
        // 20-8-8-8-8).
        let dram = CpuBaseline::dram();
        let dwm = CpuBaseline::dwm();
        for hr in [0.0, 0.3, 0.6, 0.9] {
            assert!(
                dwm.access_latency(hr) < dram.access_latency(hr),
                "hit rate {hr}"
            );
        }
    }

    #[test]
    fn energy_dominated_by_movement() {
        let cpu = CpuBaseline::dwm();
        // One 32-bit add over two operands + result = 12 bytes moved.
        let c = cpu.kernel(1, 0, 12, 3, 0.5);
        let movement = 12.0 * 1250.0;
        assert!(c.energy_pj > movement, "compute energy must add on top");
        assert!(movement / c.energy_pj > 0.9, "movement dominates");
    }

    #[test]
    fn latency_scales_with_accesses() {
        let cpu = CpuBaseline::dram();
        let one = cpu.kernel(1, 0, 12, 3, 0.5).cycles;
        let ten = cpu.kernel(10, 0, 120, 30, 0.5).cycles;
        assert_eq!(ten, one * 10);
    }

    #[test]
    fn higher_hit_rate_is_faster() {
        let cpu = CpuBaseline::dwm();
        assert!(cpu.access_latency(0.9) < cpu.access_latency(0.1));
    }
}
