//! Area-overhead model (paper Table I and the Table III unit areas).
//!
//! The paper synthesizes the seven-transistor TR sense circuits and the
//! PIM logic in FreePDK45 and scales to 32 nm. That flow is not available
//! here, so this module carries an analytic component model in units of
//! F² whose constants are calibrated to reproduce the paper's reported
//! percentages exactly (Table I: 3.7% / 9.2% / 9.4% / 10.0% for one PIM
//! tile per 16-tile subarray).
//!
//! Component accounting per nanowire:
//!
//! * storage cell: 2 F² per domain (DWM is 1–4 F²/cell, §I);
//! * one access-port transistor stack per port;
//! * the baseline single-level sense amplifier, extended with one
//!   reference/comparator slice per extra TR level;
//! * the adder logic (S/C/C' derivation, wider at higher TRD);
//! * the multiplication extensions (neighbour-forwarding muxes);
//! * the remaining bulk-bitwise decode logic.
//!
//! A PIM wire also *saves* domains: the two-port TR geometry needs fewer
//! overhead domains than the single-port baseline (57 vs 63 at Y = 32,
//! TRD = 7).

use coruscant_racetrack::NanowireSpec;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Storage cell area per domain (F²).
pub(crate) const CELL_AREA_F2: f64 = 2.0;
/// Access-port stack per port per wire (F²).
pub(crate) const ACCESS_PORT_F2: f64 = 20.0;
/// Baseline single-level sense amplifier per wire (F²).
pub(crate) const SENSE_AMP_BASE_F2: f64 = 50.0;
/// Additional sense reference/comparator per extra TR level (F²).
pub(crate) const SENSE_LEVEL_F2: f64 = 40.0;
/// Adder logic (S/C/C') per wire at TRD = 3 / 5 / 7 (F²).
pub(crate) const ADDER_LOGIC_F2: [(usize, f64); 3] = [(3, 20.0), (5, 30.0), (7, 40.5)];
/// Multiplication extensions (shift muxes, predication) per wire (F²).
pub(crate) const MULT_LOGIC_F2: f64 = 6.3;
/// Remaining bulk-bitwise decode logic per wire (F²).
pub(crate) const BBO_LOGIC_F2: f64 = 18.8;

/// A PIM design point of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PimDesign {
    /// Two-operand adder only (TRD = 3).
    Add2,
    /// Five-operand adder (TRD = 7).
    Add5,
    /// Multiplication plus the five-operand adder.
    MulAdd5,
    /// Full ISA: multiplication, addition, and bulk-bitwise operations.
    MulAdd5Bbo,
}

impl PimDesign {
    /// The four design points in Table I order.
    pub const ALL: [PimDesign; 4] = [
        PimDesign::Add2,
        PimDesign::Add5,
        PimDesign::MulAdd5,
        PimDesign::MulAdd5Bbo,
    ];

    /// TRD of the design.
    pub fn trd(self) -> usize {
        match self {
            PimDesign::Add2 => 3,
            _ => 7,
        }
    }

    /// Whether the design includes the multiplication extensions.
    pub(crate) fn has_mult(self) -> bool {
        matches!(self, PimDesign::MulAdd5 | PimDesign::MulAdd5Bbo)
    }

    /// Whether the design includes the bulk-bitwise decode logic.
    pub(crate) fn has_bbo(self) -> bool {
        matches!(self, PimDesign::MulAdd5Bbo)
    }

    /// The paper's reported overhead for this design (Table I).
    pub fn paper_overhead(self) -> f64 {
        match self {
            PimDesign::Add2 => 0.037,
            PimDesign::Add5 => 0.092,
            PimDesign::MulAdd5 => 0.094,
            PimDesign::MulAdd5Bbo => 0.100,
        }
    }
}

impl fmt::Display for PimDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PimDesign::Add2 => "ADD2",
            PimDesign::Add5 => "ADD5",
            PimDesign::MulAdd5 => "MUL+ADD5",
            PimDesign::MulAdd5Bbo => "MUL+ADD5+BBO",
        };
        write!(f, "{s}")
    }
}

fn adder_logic_f2(trd: usize) -> f64 {
    ADDER_LOGIC_F2
        .iter()
        .find(|(t, _)| *t == trd)
        .map(|(_, a)| *a)
        .unwrap_or_else(|| {
            // Interpolate linearly for unusual TRDs.
            20.0 + (trd as f64 - 3.0) * 5.125
        })
}

/// Area of one baseline (single-port, non-PIM) nanowire slice, including
/// its share of sensing (F²), for `y` data rows.
pub(crate) fn baseline_wire_area_f2(y: usize) -> f64 {
    let spec = NanowireSpec::single_port(y);
    spec.total_domains as f64 * CELL_AREA_F2 + ACCESS_PORT_F2 + SENSE_AMP_BASE_F2
}

/// Extra area a PIM wire adds over the baseline wire (F²); can be partially
/// offset by the saved overhead domains.
pub(crate) fn pim_wire_extra_f2(design: PimDesign, y: usize) -> f64 {
    let trd = design.trd();
    let pim_spec = NanowireSpec::coruscant(y, trd);
    let base_spec = NanowireSpec::single_port(y);
    let domain_delta =
        (pim_spec.total_domains as f64 - base_spec.total_domains as f64) * CELL_AREA_F2;
    let extra_port = ACCESS_PORT_F2; // the second access point
    let extra_levels = (trd - 1) as f64 * SENSE_LEVEL_F2;
    let mut extra = extra_port + domain_delta + extra_levels + adder_logic_f2(trd);
    if design.has_mult() {
        extra += MULT_LOGIC_F2;
    }
    if design.has_bbo() {
        extra += BBO_LOGIC_F2;
    }
    extra
}

/// Table I: the area overhead of PIM-enabling one tile per
/// `tiles_per_subarray`-tile subarray, as a fraction of the base memory
/// area.
pub fn overhead_1pim(design: PimDesign, y: usize, tiles_per_subarray: usize) -> f64 {
    pim_wire_extra_f2(design, y) / (tiles_per_subarray as f64 * baseline_wire_area_f2(y))
}

/// Per-unit processing areas reported in Table III (µm² at 32 nm) for an
/// 8-bit CORUSCANT unit.
pub fn unit_area_um2(op: &str) -> Option<f64> {
    match op {
        "2op add (TR=3)" => Some(2.16),
        "2op add (TR=7)" => Some(3.60),
        "5op add (TR=7)" => Some(4.94),
        "mult (TR=3)" => Some(3.80),
        "mult (TR=7)" => Some(5.07),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_overheads_reproduced() {
        for design in PimDesign::ALL {
            let got = overhead_1pim(design, 32, 16);
            let want = design.paper_overhead();
            assert!(
                (got - want).abs() < 0.001,
                "{design}: got {got:.4}, paper {want:.4}"
            );
        }
    }

    #[test]
    fn overhead_ordering() {
        let o: Vec<f64> = PimDesign::ALL
            .iter()
            .map(|&d| overhead_1pim(d, 32, 16))
            .collect();
        assert!(o[0] < o[1] && o[1] < o[2] && o[2] < o[3], "{o:?}");
    }

    #[test]
    fn trd3_design_halves_the_overhead() {
        // Paper: "dropping from a five to two operand adder ... reduces the
        // overhead to < 4%".
        let full = overhead_1pim(PimDesign::MulAdd5Bbo, 32, 16);
        let add2 = overhead_1pim(PimDesign::Add2, 32, 16);
        assert!(add2 < 0.04);
        assert!(add2 < full / 2.0);
    }

    #[test]
    fn pim_wire_saves_domains() {
        // The two-port TR geometry uses fewer overhead domains than the
        // single-port baseline, partially offsetting the port cost.
        let pim = NanowireSpec::coruscant(32, 7).total_domains;
        let base = NanowireSpec::single_port(32).total_domains;
        assert!(pim < base, "pim {pim} vs base {base}");
    }

    #[test]
    fn more_pim_tiles_scale_overhead_linearly() {
        let one = overhead_1pim(PimDesign::MulAdd5Bbo, 32, 16);
        let two = overhead_1pim(PimDesign::MulAdd5Bbo, 32, 8); // denser PIM
        assert!((two / one - 2.0).abs() < 1e-9);
    }

    #[test]
    fn unit_areas_present_for_table3_rows() {
        for e in crate::cost_model::TABLE3_CORUSCANT {
            assert_eq!(unit_area_um2(e.unit), Some(e.area_um2));
        }
        assert_eq!(unit_area_um2("unknown"), None);
    }

    #[test]
    fn interpolated_adder_logic_monotone() {
        assert!(adder_logic_f2(3) < adder_logic_f2(5));
        assert!(adder_logic_f2(5) < adder_logic_f2(7));
        // Unusual TRD interpolates between the calibrated points.
        let a4 = adder_logic_f2(4);
        assert!(a4 > adder_logic_f2(3) && a4 < adder_logic_f2(5));
    }
}
