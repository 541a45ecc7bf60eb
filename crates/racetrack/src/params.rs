//! Device-level timing, energy, and geometry constants.
//!
//! The CORUSCANT paper (§V-A) derives device constants from NVSim, LLG
//! micromagnetic simulation, LTSPICE sense-circuit design, and 45nm ASIC
//! synthesis scaled to 32nm. None of those tools are available here, so this
//! module carries the *outputs* of that flow: per-micro-operation latencies
//! and energies calibrated so that the compound operation costs reproduce the
//! paper's Table III (e.g. an 8-bit five-operand add = 26 cycles / 22.14 pJ
//! at TRD = 7). Each constant documents its provenance.

use serde::{Deserialize, Serialize};

/// Device cycle time in nanoseconds (paper §V-B: "presuming a 1ns cycle
/// speed, consistent with values reported by NVSIM and LLG for TR").
pub const DEVICE_CYCLE_NS: f64 = 1.0;

/// Per-micro-operation latencies in device cycles.
///
/// Every point access (read, write), every single-domain shift step, every
/// transverse read and every transverse write completes in one device cycle;
/// this is the granularity at which the paper counts compound operation
/// latencies (§V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyParams {
    /// Cycles for one point read at an access port.
    pub read: u64,
    /// Cycles for one point write at an access port.
    pub write: u64,
    /// Cycles per single-domain shift step.
    pub shift_per_step: u64,
    /// Cycles for one transverse read (any span up to the TRD).
    pub transverse_read: u64,
    /// Cycles for one transverse write (write + segmented shift).
    pub transverse_write: u64,
}

impl LatencyParams {
    /// The paper's 1-cycle-per-micro-op model.
    pub const PAPER: LatencyParams = LatencyParams {
        read: 1,
        write: 1,
        shift_per_step: 1,
        transverse_read: 1,
        transverse_write: 1,
    };
}

impl Default for LatencyParams {
    fn default() -> Self {
        LatencyParams::PAPER
    }
}

/// Per-micro-operation energies in picojoules, per nanowire.
///
/// `write` follows the ~0.1 pJ/bit DWM write energy the paper quotes in
/// §I. The transverse-read sense energies are calibrated so that the 8-bit
/// addition energies of Table III come out exactly:
///
/// * TRD = 3, 2-operand add: `32·E_w + 8·E_s + 8·E_tr3 = 10.15 pJ`
/// * TRD = 7, 5-operand add: `64·E_w + 40·E_s + 8·E_tr7 = 22.14 pJ`
///
/// With `E_w = E_s = 0.1 pJ` this gives `E_tr3 = 0.769 pJ` and
/// `E_tr7 = 1.468 pJ`; TRD = 5 is interpolated. The growth with TRD reflects
/// the larger sense current and the seven-level sense amplifier.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyParams {
    /// Energy of one point read (pJ).
    pub read: f64,
    /// Energy of one point write (pJ); ~0.1 pJ per the paper.
    pub write: f64,
    /// Energy per single-domain shift step (pJ) per nanowire.
    pub shift_per_step: f64,
    /// Energy of a transverse read spanning up to 3 domains (pJ).
    pub tr3: f64,
    /// Energy of a transverse read spanning up to 5 domains (pJ).
    pub tr5: f64,
    /// Energy of a transverse read spanning up to 7 domains (pJ).
    pub tr7: f64,
    /// Energy of a transverse write (pJ): one shift-based write plus a
    /// segment shift.
    pub transverse_write: f64,
}

impl EnergyParams {
    /// Constants calibrated to the paper's Table III (see type-level docs).
    pub const PAPER: EnergyParams = EnergyParams {
        read: 0.05,
        write: 0.1,
        shift_per_step: 0.1,
        tr3: 0.769,
        tr5: 1.118,
        tr7: 1.468,
        transverse_write: 0.2,
    };

    /// Transverse-read energy for a given span in domains.
    ///
    /// Spans between the calibrated points use the next calibrated value up,
    /// matching a sense amplifier provisioned for its maximum TRD.
    ///
    /// # Panics
    ///
    /// Panics if `span` is zero or exceeds 7 (the largest TRD the paper's
    /// cited multi-domain MTJ demonstrates).
    pub fn transverse_read(&self, span: usize) -> f64 {
        assert!((1..=7).contains(&span), "TR span {span} outside 1..=7");
        match span {
            1..=3 => self.tr3,
            4..=5 => self.tr5,
            _ => self.tr7,
        }
    }
}

impl Default for EnergyParams {
    fn default() -> Self {
        EnergyParams::PAPER
    }
}

/// CPU-side energy constants used by the non-PIM comparison (paper Table II,
/// sourced from Molka et al. for the Intel Xeon X5670).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuEnergyParams {
    /// Energy of a 32-bit add on the CPU (pJ/op).
    pub add32_pj: f64,
    /// Energy of a 32-bit multiply on the CPU (pJ/op).
    pub mult32_pj: f64,
    /// Energy to move one byte across the memory bus (pJ/byte).
    pub transfer_pj_per_byte: f64,
}

impl CpuEnergyParams {
    /// Values from the paper's Table II.
    pub const PAPER: CpuEnergyParams = CpuEnergyParams {
        add32_pj: 111.0,
        mult32_pj: 164.0,
        transfer_pj_per_byte: 1250.0,
    };
}

impl Default for CpuEnergyParams {
    fn default() -> Self {
        CpuEnergyParams::PAPER
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_latencies_are_single_cycle() {
        let l = LatencyParams::default();
        assert_eq!(l.read, 1);
        assert_eq!(l.write, 1);
        assert_eq!(l.shift_per_step, 1);
        assert_eq!(l.transverse_read, 1);
        assert_eq!(l.transverse_write, 1);
    }

    #[test]
    fn tr_energy_monotone_in_span() {
        let e = EnergyParams::default();
        assert!(e.transverse_read(3) < e.transverse_read(5));
        assert!(e.transverse_read(5) < e.transverse_read(7));
        assert_eq!(e.transverse_read(1), e.transverse_read(3));
        assert_eq!(e.transverse_read(4), e.transverse_read(5));
        assert_eq!(e.transverse_read(6), e.transverse_read(7));
    }

    #[test]
    #[should_panic(expected = "outside 1..=7")]
    fn tr_energy_rejects_oversized_span() {
        EnergyParams::default().transverse_read(8);
    }

    /// Calibration check: the add energies of Table III must be reproduced
    /// by the micro-op decomposition documented on [`EnergyParams`].
    #[test]
    fn table3_add_energy_calibration() {
        let e = EnergyParams::default();
        let add_tr3 = 32.0 * e.write + 8.0 * e.shift_per_step + 8.0 * e.tr3;
        let add_tr7 = 64.0 * e.write + 40.0 * e.shift_per_step + 8.0 * e.tr7;
        assert!((add_tr3 - 10.15).abs() < 0.01, "got {add_tr3}");
        assert!((add_tr7 - 22.14).abs() < 0.01, "got {add_tr7}");
    }

    #[test]
    fn cpu_params_match_table2() {
        let c = CpuEnergyParams::default();
        assert_eq!(c.add32_pj, 111.0);
        assert_eq!(c.mult32_pj, 164.0);
        assert_eq!(c.transfer_pj_per_byte, 1250.0);
    }
}
