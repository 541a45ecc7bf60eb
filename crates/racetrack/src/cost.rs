//! Cycle and energy accounting for device and architecture operations.
//!
//! All CORUSCANT results are reported in device cycles (1 ns at the device
//! level, 1.25 ns per memory cycle at the DDR interface, paper Table II) and
//! picojoules. Every simulated operation returns a [`Cost`]; callers combine
//! them with [`Cost::then`] (sequential composition) or
//! [`Cost::in_parallel_with`] (lock-step parallel composition, where latency
//! is the maximum and energy still accumulates).

use crate::nanowire::NanowireSpec;
use crate::port::PortId;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign};

/// The latency and energy of one (possibly compound) operation.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Cost {
    /// Latency in device cycles.
    pub cycles: u64,
    /// Energy in picojoules.
    pub energy_pj: f64,
}

impl Cost {
    /// A zero-latency, zero-energy cost.
    pub const ZERO: Cost = Cost {
        cycles: 0,
        energy_pj: 0.0,
    };

    /// Creates a cost from a cycle count and an energy in picojoules.
    ///
    /// # Example
    ///
    /// ```
    /// use coruscant_racetrack::Cost;
    /// let c = Cost::new(2, 0.3);
    /// assert_eq!(c.cycles, 2);
    /// ```
    pub fn new(cycles: u64, energy_pj: f64) -> Cost {
        Cost { cycles, energy_pj }
    }

    /// A pure-latency cost (no energy).
    pub fn cycles(cycles: u64) -> Cost {
        Cost::new(cycles, 0.0)
    }

    /// A pure-energy cost (no latency).
    pub fn energy(energy_pj: f64) -> Cost {
        Cost::new(0, energy_pj)
    }

    /// Sequential composition: latencies and energies both add.
    #[must_use]
    pub fn then(self, next: Cost) -> Cost {
        Cost {
            cycles: self.cycles + next.cycles,
            energy_pj: self.energy_pj + next.energy_pj,
        }
    }

    /// Lock-step parallel composition: latency is the maximum of the two,
    /// energy accumulates. This models e.g. all nanowires of a domain-block
    /// cluster shifting together.
    #[must_use]
    pub fn in_parallel_with(self, other: Cost) -> Cost {
        Cost {
            cycles: self.cycles.max(other.cycles),
            energy_pj: self.energy_pj + other.energy_pj,
        }
    }

    /// Repeats this cost sequentially `n` times.
    #[must_use]
    pub fn repeat(self, n: u64) -> Cost {
        Cost {
            cycles: self.cycles * n,
            energy_pj: self.energy_pj * n as f64,
        }
    }
}

impl Add for Cost {
    type Output = Cost;

    fn add(self, rhs: Cost) -> Cost {
        self.then(rhs)
    }
}

impl AddAssign for Cost {
    fn add_assign(&mut self, rhs: Cost) {
        *self = self.then(rhs);
    }
}

impl Sum for Cost {
    fn sum<I: Iterator<Item = Cost>>(iter: I) -> Cost {
        iter.fold(Cost::ZERO, Cost::then)
    }
}

impl fmt::Display for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles, {:.2} pJ", self.cycles, self.energy_pj)
    }
}

/// The micro-operation class a charge belongs to, for energy breakdowns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpClass {
    /// Domain-wall shift steps.
    Shift,
    /// Point reads at access ports.
    Read,
    /// Point writes at access ports.
    Write,
    /// Transverse reads.
    TransverseRead,
    /// Transverse writes.
    TransverseWrite,
    /// Anything charged without a class (compound/analytic charges).
    Other,
}

impl OpClass {
    /// All classes, in declaration order: `ALL[c as usize]` is `c`.
    pub const ALL: [OpClass; 6] = [
        OpClass::Shift,
        OpClass::Read,
        OpClass::Write,
        OpClass::TransverseRead,
        OpClass::TransverseWrite,
        OpClass::Other,
    ];
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpClass::Shift => "shift",
            OpClass::Read => "read",
            OpClass::Write => "write",
            OpClass::TransverseRead => "TR",
            OpClass::TransverseWrite => "TW",
            OpClass::Other => "other",
        };
        write!(f, "{s}")
    }
}

/// Accumulates the cost of a sequence of operations.
///
/// A `CostMeter` is handed down through compound operations so that each
/// micro-operation (shift, read, transverse read, ...) can charge its cost
/// exactly once; classed charges additionally feed a per-[`OpClass`]
/// energy breakdown.
///
/// # Example
///
/// ```
/// use coruscant_racetrack::{Cost, CostMeter};
/// let mut meter = CostMeter::new();
/// meter.charge(Cost::new(1, 0.1));
/// meter.charge(Cost::new(2, 0.2));
/// assert_eq!(meter.total().cycles, 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CostMeter {
    total: Cost,
    ops: u64,
    by_class: [Cost; 6],
}

impl CostMeter {
    /// Creates an empty meter.
    pub fn new() -> CostMeter {
        CostMeter::default()
    }

    /// Adds `cost` to the running total (unclassed).
    pub fn charge(&mut self, cost: Cost) {
        self.charge_class(OpClass::Other, cost);
    }

    /// Adds `cost` under a micro-operation class.
    pub fn charge_class(&mut self, class: OpClass, cost: Cost) {
        self.total += cost;
        self.ops += 1;
        self.by_class[class as usize] += cost;
    }

    /// The accumulated cost.
    pub fn total(&self) -> Cost {
        self.total
    }

    /// The accumulated cost of one micro-operation class.
    pub fn class_total(&self, class: OpClass) -> Cost {
        self.by_class[class as usize]
    }

    /// Number of individual operations charged.
    pub fn op_count(&self) -> u64 {
        self.ops
    }

    /// Resets the meter to zero and returns the previous total.
    pub fn take(&mut self) -> Cost {
        let t = self.total;
        *self = CostMeter::default();
        t
    }
}

impl fmt::Display for CostMeter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} over {} ops", self.total, self.ops)
    }
}

/// The access-port geometry of a nanowire, expressed in *data-row*
/// coordinates at the canonical alignment.
///
/// Shift-latency reasoning (which row sits how far from which port) was
/// previously implicit in [`Nanowire`](crate::nanowire::Nanowire)'s cost
/// internals; callers that only need to *price* a shift — the compiler's
/// placement passes, the DWM cache frontend — can use this standalone
/// helper instead of instantiating a wire.
///
/// # Example
///
/// ```
/// use coruscant_racetrack::PortGeometry;
/// // Paper Table II: 32 data rows, TRD = 7.
/// let geom = PortGeometry::coruscant(32, 7);
/// assert_eq!(geom.port_count(), 2);
/// assert_eq!(geom.shift_distance(13), 0); // row under the left port
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PortGeometry {
    /// Number of data rows.
    rows: usize,
    /// Data-row index under each port at the canonical alignment, in
    /// physical port order.
    port_rows: Vec<isize>,
}

impl PortGeometry {
    /// The geometry of `spec` in data-row coordinates.
    pub fn of(spec: &NanowireSpec) -> PortGeometry {
        let off = spec.initial_offset as isize;
        PortGeometry {
            rows: spec.data_domains,
            port_rows: spec
                .ports
                .iter()
                .map(|p| p.position as isize - off)
                .collect(),
        }
    }

    /// The two-port CORUSCANT PIM geometry for `rows` data rows at
    /// transverse-read distance `trd` (paper Table II: 32 rows, TRD 7).
    pub fn coruscant(rows: usize, trd: usize) -> PortGeometry {
        PortGeometry::of(&NanowireSpec::coruscant(rows, trd))
    }

    /// Number of data rows covered.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of access ports.
    pub fn port_count(&self) -> usize {
        self.port_rows.len()
    }

    /// The signed shift offset that aligns data row `row` under `port`
    /// (positive offsets move the data window right relative to its
    /// canonical position). `None` for an out-of-range port.
    pub fn shift_offset(&self, row: usize, port: PortId) -> Option<isize> {
        Some(row as isize - self.port_rows.get(port.0)?)
    }

    /// The nearest port to data row `row` and the shift distance (in
    /// domains) to align the row under it. Ties resolve to the
    /// lower-indexed (leftmost) port.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has no ports.
    pub fn nearest_port(&self, row: usize) -> (PortId, usize) {
        assert!(!self.port_rows.is_empty(), "geometry has no ports");
        self.port_rows
            .iter()
            .enumerate()
            .map(|(i, &p)| (PortId(i), (row as isize).abs_diff(p)))
            .min_by_key(|&(id, d)| (d, id))
            .expect("at least one port")
    }

    /// Shift distance (in domains) from data row `row` to its nearest
    /// port: the shifts an access to `row` costs from the canonical
    /// alignment.
    pub fn shift_distance(&self, row: usize) -> usize {
        self.nearest_port(row).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_composition_adds_both() {
        let a = Cost::new(3, 1.5);
        let b = Cost::new(2, 0.5);
        let c = a.then(b);
        assert_eq!(c.cycles, 5);
        assert!((c.energy_pj - 2.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_composition_takes_max_latency() {
        let a = Cost::new(3, 1.0);
        let b = Cost::new(7, 2.0);
        let c = a.in_parallel_with(b);
        assert_eq!(c.cycles, 7);
        assert!((c.energy_pj - 3.0).abs() < 1e-12);
    }

    #[test]
    fn repeat_scales_both() {
        let c = Cost::new(2, 0.5).repeat(4);
        assert_eq!(c.cycles, 8);
        assert!((c.energy_pj - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sum_of_costs() {
        let total: Cost = (0..5).map(|_| Cost::new(1, 0.1)).sum();
        assert_eq!(total.cycles, 5);
        assert!((total.energy_pj - 0.5).abs() < 1e-12);
    }

    #[test]
    fn meter_charges_and_takes() {
        let mut m = CostMeter::new();
        assert_eq!(m.total(), Cost::ZERO);
        m.charge(Cost::new(4, 1.0));
        assert_eq!(m.op_count(), 1);
        let t = m.take();
        assert_eq!(t.cycles, 4);
        assert_eq!(m.total(), Cost::ZERO);
        assert_eq!(m.op_count(), 0);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!Cost::ZERO.to_string().is_empty());
        assert!(!CostMeter::new().to_string().is_empty());
        for class in OpClass::ALL {
            assert!(!class.to_string().is_empty());
        }
    }

    #[test]
    fn class_breakdown_sums_to_total() {
        let mut m = CostMeter::new();
        m.charge_class(OpClass::Shift, Cost::new(3, 0.3));
        m.charge_class(OpClass::TransverseRead, Cost::new(1, 1.5));
        m.charge_class(OpClass::Write, Cost::new(2, 0.2));
        m.charge(Cost::new(1, 0.1)); // lands in Other
        let by_class: Cost = OpClass::ALL.iter().map(|&c| m.class_total(c)).sum();
        assert_eq!(by_class.cycles, m.total().cycles);
        assert!((by_class.energy_pj - m.total().energy_pj).abs() < 1e-12);
        assert_eq!(m.class_total(OpClass::Shift).cycles, 3);
        assert_eq!(m.class_total(OpClass::Other).cycles, 1);
        assert_eq!(m.class_total(OpClass::Read), Cost::ZERO);
    }

    #[test]
    fn take_clears_breakdown() {
        let mut m = CostMeter::new();
        m.charge_class(OpClass::Read, Cost::new(5, 1.0));
        m.take();
        assert_eq!(m.class_total(OpClass::Read), Cost::ZERO);
        assert_eq!(m.op_count(), 0);
    }

    /// Table II geometry (32 rows per DBC, TRD = 7): two ports sit over
    /// data rows 13 and 19 at the canonical alignment.
    #[test]
    fn port_geometry_pins_table2() {
        let geom = PortGeometry::coruscant(32, 7);
        assert_eq!(geom.rows(), 32);
        assert_eq!(geom.port_count(), 2);
        // Row 0 sits `port row` domains left of each port.
        assert_eq!(geom.shift_offset(0, PortId::LEFT), Some(-13));
        assert_eq!(geom.shift_offset(0, PortId::RIGHT), Some(-19));
        assert_eq!(geom.shift_offset(0, PortId(2)), None);
        // Rows 13 and 19 sit under the ports.
        assert_eq!(geom.shift_distance(13), 0);
        assert_eq!(geom.shift_distance(19), 0);
    }

    #[test]
    fn port_geometry_matches_spec_derivation() {
        for trd in [3, 5, 7] {
            let spec = NanowireSpec::coruscant(32, trd);
            let geom = PortGeometry::of(&spec);
            assert_eq!(geom, PortGeometry::coruscant(32, trd), "trd {trd}");
            // Any row's offset to the left port exceeds its offset to the
            // right port by the inter-port spacing, `trd - 1`.
            for r in [0, 16, 31] {
                let left = geom.shift_offset(r, PortId::LEFT).unwrap();
                let right = geom.shift_offset(r, PortId::RIGHT).unwrap();
                assert_eq!(left - right, trd as isize - 1, "trd {trd} row {r}");
            }
            let free: Vec<usize> = (0..32).filter(|&r| geom.shift_distance(r) == 0).collect();
            assert_eq!(free.len(), 2, "trd {trd}");
            assert_eq!(free[1] - free[0], trd - 1, "trd {trd}");
        }
    }

    #[test]
    fn nearest_port_distances_pin_table2() {
        let geom = PortGeometry::coruscant(32, 7);
        // Rows under the ports are free; extremities pay the most.
        assert_eq!(geom.nearest_port(13), (PortId::LEFT, 0));
        assert_eq!(geom.nearest_port(19), (PortId::RIGHT, 0));
        assert_eq!(geom.nearest_port(0), (PortId::LEFT, 13));
        assert_eq!(geom.nearest_port(31), (PortId::RIGHT, 12));
        // Row 16 is equidistant (3 domains); ties go to the left port.
        assert_eq!(geom.nearest_port(16), (PortId::LEFT, 3));
        // The worst-case access from canonical alignment is row 0, and it
        // is within the physical overhead the spec reserves, so
        // nearest-port alignment never runs off the wire.
        let worst = (0..32).map(|r| geom.shift_distance(r)).max().unwrap();
        assert_eq!(worst, 13);
        assert!(worst <= NanowireSpec::coruscant(32, 7).overhead_domains());
    }

    #[test]
    fn shift_offsets_are_signed_row_minus_port() {
        let geom = PortGeometry::coruscant(32, 7);
        assert_eq!(geom.shift_offset(0, PortId::LEFT), Some(-13));
        assert_eq!(geom.shift_offset(31, PortId::RIGHT), Some(12));
        assert_eq!(geom.shift_offset(19, PortId::RIGHT), Some(0));
        assert_eq!(geom.shift_offset(5, PortId(9)), None);
    }

    #[test]
    fn single_port_geometry_has_no_spacing() {
        let geom = PortGeometry::of(&NanowireSpec::single_port(8));
        assert_eq!(geom.port_count(), 1);
        assert_eq!(geom.shift_offset(0, PortId::RIGHT), None);
        // Every row reaches the single port.
        for r in 0..8 {
            let (p, _) = geom.nearest_port(r);
            assert_eq!(p, PortId::LEFT);
        }
    }
}
