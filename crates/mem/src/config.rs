//! Memory geometry and system parameters (paper Table II).

use crate::error::MemError;
use crate::{Result, Row};
use serde::{Deserialize, Serialize};

/// Geometry and interface parameters of the DWM main memory.
///
/// Defaults reproduce the paper's Table II: a 1 GB (8 Gb) memory with 32
/// banks, 64 subarrays per bank, 16 tiles per subarray, and 16 DBCs per
/// tile of which one is PIM-enabled. Each DBC is 512 nanowires wide and
/// stores 32 data rows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoryConfig {
    /// Number of banks.
    pub banks: usize,
    /// Subarrays per bank.
    pub subarrays_per_bank: usize,
    /// Tiles per subarray.
    pub tiles_per_subarray: usize,
    /// DBCs per tile (including the PIM-enabled ones).
    pub dbcs_per_tile: usize,
    /// PIM-enabled DBCs per tile (paper: 1, "1-PIM").
    pub pim_dbcs_per_tile: usize,
    /// Nanowires per DBC (X; bits accessed simultaneously).
    pub nanowires_per_dbc: usize,
    /// Data domains per nanowire (Y; distinct row addresses per DBC).
    pub rows_per_dbc: usize,
    /// Transverse-read distance of the PIM-enabled DBCs.
    pub trd: usize,
    /// Bus speed in MHz.
    pub bus_mhz: u64,
    /// Memory-interface cycle time in nanoseconds.
    pub memory_cycle_ns: f64,
}

impl MemoryConfig {
    /// The paper's Table II configuration.
    pub fn paper() -> MemoryConfig {
        MemoryConfig {
            banks: 32,
            subarrays_per_bank: 64,
            tiles_per_subarray: 16,
            dbcs_per_tile: 16,
            pim_dbcs_per_tile: 1,
            nanowires_per_dbc: 512,
            rows_per_dbc: 32,
            trd: 7,
            bus_mhz: 1000,
            memory_cycle_ns: 1.25,
        }
    }

    /// A small configuration for fast tests: 2 banks, 2 subarrays, 2 tiles,
    /// 4 DBCs of 64×32 bits.
    pub fn tiny() -> MemoryConfig {
        MemoryConfig {
            banks: 2,
            subarrays_per_bank: 2,
            tiles_per_subarray: 2,
            dbcs_per_tile: 4,
            pim_dbcs_per_tile: 1,
            nanowires_per_dbc: 64,
            rows_per_dbc: 32,
            trd: 7,
            bus_mhz: 1000,
            memory_cycle_ns: 1.25,
        }
    }

    /// Sets the transverse-read distance (sensitivity study, TRD ∈ {3,5,7}).
    #[must_use]
    pub fn with_trd(mut self, trd: usize) -> MemoryConfig {
        self.trd = trd;
        self
    }

    /// Total capacity in bits.
    pub fn capacity_bits(&self) -> u64 {
        self.banks as u64
            * self.subarrays_per_bank as u64
            * self.tiles_per_subarray as u64
            * self.dbcs_per_tile as u64
            * self.nanowires_per_dbc as u64
            * self.rows_per_dbc as u64
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bits() / 8
    }

    /// Total number of PIM-enabled DBCs.
    pub fn total_pim_dbcs(&self) -> u64 {
        self.banks as u64
            * self.subarrays_per_bank as u64
            * self.tiles_per_subarray as u64
            * self.pim_dbcs_per_tile as u64
    }

    /// Whether DBC index `d` within a tile is PIM-enabled. By convention
    /// the first `pim_dbcs_per_tile` DBCs of each tile carry the second
    /// access port and the PIM sense/logic extensions.
    pub(crate) fn is_pim_dbc(&self, d: usize) -> bool {
        d < self.pim_dbcs_per_tile
    }

    /// Maximum addition operands at this TRD: the carry chain reserves the
    /// two port domains for `C` and `C'` (paper §III-C), except at TRD = 3
    /// where no super-carry exists and only the right port is reserved.
    pub fn max_add_operands(&self) -> usize {
        if self.trd <= 3 {
            self.trd - 1
        } else {
            self.trd - 2
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadConfig`] if any dimension is zero, a DBC is
    /// wider than a [`Row`] holds (512 nanowires, Table II), the PIM DBC
    /// count exceeds the DBC count, or the TRD exceeds the rows per DBC.
    pub fn validate(&self) -> Result<()> {
        let dims = [
            ("banks", self.banks),
            ("subarrays_per_bank", self.subarrays_per_bank),
            ("tiles_per_subarray", self.tiles_per_subarray),
            ("dbcs_per_tile", self.dbcs_per_tile),
            ("nanowires_per_dbc", self.nanowires_per_dbc),
            ("rows_per_dbc", self.rows_per_dbc),
        ];
        for (name, v) in dims {
            if v == 0 {
                return Err(MemError::BadConfig(format!("{name} must be nonzero")));
            }
        }
        let (wires, max) = (self.nanowires_per_dbc, Row::MAX_WIDTH);
        if wires > max {
            let too_wide = format!("nanowires_per_dbc {wires} over {max}");
            return Err(MemError::BadConfig(too_wide));
        }
        if self.pim_dbcs_per_tile > self.dbcs_per_tile {
            return Err(MemError::BadConfig(
                "more PIM DBCs than DBCs per tile".into(),
            ));
        }
        if self.trd < 2 || self.trd > self.rows_per_dbc {
            return Err(MemError::BadConfig(format!(
                "trd {} outside 2..={}",
                self.trd, self.rows_per_dbc
            )));
        }
        Ok(())
    }
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_1gb() {
        let c = MemoryConfig::paper();
        c.validate().unwrap();
        assert_eq!(c.capacity_bytes(), 1 << 30, "1 GB (8 Gb) per Table II");
    }

    #[test]
    fn paper_pim_dbc_count() {
        let c = MemoryConfig::paper();
        // 32 banks x 64 subarrays x 16 tiles x 1 PIM DBC.
        assert_eq!(c.total_pim_dbcs(), 32 * 64 * 16);
    }

    #[test]
    fn pim_dbc_convention() {
        let c = MemoryConfig::paper();
        assert!(c.is_pim_dbc(0));
        assert!(!c.is_pim_dbc(1));
        assert!(!c.is_pim_dbc(15));
    }

    #[test]
    fn max_add_operands_by_trd() {
        assert_eq!(MemoryConfig::paper().with_trd(7).max_add_operands(), 5);
        assert_eq!(MemoryConfig::paper().with_trd(5).max_add_operands(), 3);
        assert_eq!(MemoryConfig::paper().with_trd(3).max_add_operands(), 2);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = MemoryConfig::paper();
        c.banks = 0;
        assert!(c.validate().is_err());

        let mut c = MemoryConfig::paper();
        c.pim_dbcs_per_tile = 17;
        assert!(c.validate().is_err());

        let mut c = MemoryConfig::paper();
        c.trd = 1;
        assert!(c.validate().is_err());

        let mut c = MemoryConfig::paper();
        c.trd = 33;
        assert!(c.validate().is_err());
    }

    #[test]
    fn dbcs_wider_than_a_row_rejected() {
        let mut c = MemoryConfig::paper();
        c.nanowires_per_dbc = Row::MAX_WIDTH;
        c.validate().unwrap();
        c.nanowires_per_dbc = Row::MAX_WIDTH + 64;
        let err = c.validate().unwrap_err();
        assert!(matches!(err, MemError::BadConfig(m) if m == "nanowires_per_dbc 576 over 512"));
    }

    #[test]
    fn tiny_config_valid() {
        MemoryConfig::tiny().validate().unwrap();
    }
}
