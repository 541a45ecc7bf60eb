//! Aggregate energy helpers: data-movement and CPU-side energies used by the
//! memory-wall comparisons (paper Figs. 10–11).

use crate::params::CpuEnergyParams;
use serde::{Deserialize, Serialize};

/// Energy accounting for a workload executed on a conventional CPU with the
/// data resident in (DWM or DRAM) main memory: every operand crosses the
/// memory bus, then the CPU computes.
///
/// Paper §V-C: "the data movement energy ... is 30× the compute energy",
/// which drives the reported >25× average energy reduction of Fig. 11.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuEnergyModel {
    params: CpuEnergyParams,
}

impl CpuEnergyModel {
    /// Creates a model from explicit CPU energy parameters.
    pub fn new(params: CpuEnergyParams) -> CpuEnergyModel {
        CpuEnergyModel { params }
    }

    /// The model with the paper's Table II parameters.
    pub fn paper() -> CpuEnergyModel {
        CpuEnergyModel::new(CpuEnergyParams::PAPER)
    }

    /// The underlying parameters.
    pub fn params(&self) -> &CpuEnergyParams {
        &self.params
    }

    /// Energy (pJ) to move `bytes` across the memory bus.
    pub(crate) fn transfer_energy_pj(&self, bytes: u64) -> f64 {
        bytes as f64 * self.params.transfer_pj_per_byte
    }

    /// Energy (pJ) for `n` 32-bit adds on the CPU.
    pub fn add_energy_pj(&self, n: u64) -> f64 {
        n as f64 * self.params.add32_pj
    }

    /// Energy (pJ) for `n` 32-bit multiplies on the CPU.
    pub(crate) fn mult_energy_pj(&self, n: u64) -> f64 {
        n as f64 * self.params.mult32_pj
    }

    /// Total energy (pJ) for a kernel that performs `adds` additions and
    /// `mults` multiplications over operands totalling `bytes_moved` bytes
    /// of bus traffic (reads of inputs plus write-back of results).
    pub fn kernel_energy_pj(&self, adds: u64, mults: u64, bytes_moved: u64) -> f64 {
        self.add_energy_pj(adds) + self.mult_energy_pj(mults) + self.transfer_energy_pj(bytes_moved)
    }
}

impl Default for CpuEnergyModel {
    fn default() -> Self {
        CpuEnergyModel::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_dominates_compute() {
        // Paper §I: adding two 32-bit words costs 11x less than moving one
        // byte; check the constants preserve that relationship.
        let m = CpuEnergyModel::paper();
        let one_byte = m.transfer_energy_pj(1);
        let one_add = m.add_energy_pj(1);
        assert!(
            one_byte > 11.0 * one_add / 1.01,
            "byte {one_byte} add {one_add}"
        );
    }

    #[test]
    fn kernel_energy_adds_up() {
        let m = CpuEnergyModel::paper();
        let e = m.kernel_energy_pj(2, 3, 4);
        let expect = 2.0 * 111.0 + 3.0 * 164.0 + 4.0 * 1250.0;
        assert!((e - expect).abs() < 1e-9);
    }

    #[test]
    fn movement_vs_compute_ratio_near_30x_for_balanced_kernels() {
        // A representative PIM-offloadable kernel: one 4-byte result out,
        // two 4-byte operands in per op. Movement is 12 B/op = 15,000 pJ
        // vs ~137 pJ compute — two orders of magnitude, consistent with
        // the paper attributing the energy win to avoided movement.
        let m = CpuEnergyModel::paper();
        let movement = m.transfer_energy_pj(12);
        let compute = m.kernel_energy_pj(1, 1, 0) / 2.0;
        assert!(movement / compute > 30.0);
    }
}
