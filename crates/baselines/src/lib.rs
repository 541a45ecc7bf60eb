//! Baseline PIM models CORUSCANT is evaluated against (paper §II-C, §V).
//!
//! Each baseline is a command-level cost model (cycles, energy, area)
//! whose constants come from the numbers the paper reports or cites:
//!
//! * [`ambit`] — triple-row-activation bulk-bitwise PIM in commodity DRAM
//!   (Seshadri et al., MICRO'17), with RowClone copies and dual-contact
//!   cells for inversion.
//! * [`elp2im`] — pseudo-precharge bulk-bitwise PIM (Xin et al.,
//!   HPCA'20), ~3.2× faster than Ambit on bitwise workloads and 40 cycles
//!   per carry-lookahead addition step.
//! * [`dwm_pim`] — the two prior DWM PIM designs: DW-NN (GMR stacked-
//!   domain XOR + precharge sense amplifier adds) and SPIM (skyrmion
//!   compute units), parameterized to reproduce their Table III columns.
//! * [`isaac`] — the ISAAC ReRAM crossbar CNN accelerator, at the
//!   headline-number granularity the paper compares against.
//! * [`cpu`] — the non-PIM baseline: a CPU computing over data fetched
//!   across the memory bus from DRAM or DWM main memory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod ambit;
pub mod ambit_functional;
pub mod cpu;
pub mod dwm_pim;
pub mod dwnn_functional;
pub mod elp2im;
pub mod elp2im_functional;
pub mod isaac;
pub mod spim_functional;

/// A (cycles, picojoule) operation cost at the memory interface.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BaselineCost {
    /// Latency in memory cycles.
    pub cycles: u64,
    /// Energy in picojoules.
    pub energy_pj: f64,
}

impl BaselineCost {
    /// Creates a cost.
    pub fn new(cycles: u64, energy_pj: f64) -> BaselineCost {
        BaselineCost { cycles, energy_pj }
    }

    /// Sequential composition.
    #[must_use]
    pub fn then(self, other: BaselineCost) -> BaselineCost {
        BaselineCost {
            cycles: self.cycles + other.cycles,
            energy_pj: self.energy_pj + other.energy_pj,
        }
    }

    /// Repeats sequentially.
    #[must_use]
    pub fn repeat(self, n: u64) -> BaselineCost {
        BaselineCost {
            cycles: self.cycles * n,
            energy_pj: self.energy_pj * n as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_composition() {
        let a = BaselineCost::new(10, 1.0);
        let b = BaselineCost::new(5, 0.5);
        assert_eq!(a.then(b).cycles, 15);
        assert_eq!(a.repeat(3).cycles, 30);
        assert!((a.repeat(3).energy_pj - 3.0).abs() < 1e-12);
    }
}
