//! Physical location naming and byte-address mapping.

use crate::config::MemoryConfig;
use crate::error::MemError;
use crate::Result;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifies one DBC within the memory: bank → subarray → tile → DBC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DbcLocation {
    /// Bank index.
    pub bank: usize,
    /// Subarray index within the bank.
    pub subarray: usize,
    /// Tile index within the subarray.
    pub tile: usize,
    /// DBC index within the tile.
    pub dbc: usize,
}

impl DbcLocation {
    /// Creates a location.
    pub fn new(bank: usize, subarray: usize, tile: usize, dbc: usize) -> DbcLocation {
        DbcLocation {
            bank,
            subarray,
            tile,
            dbc,
        }
    }

    /// Validates the location against a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadLocation`] if any coordinate is out of range.
    pub fn validate(&self, config: &MemoryConfig) -> Result<()> {
        if self.bank >= config.banks
            || self.subarray >= config.subarrays_per_bank
            || self.tile >= config.tiles_per_subarray
            || self.dbc >= config.dbcs_per_tile
        {
            return Err(MemError::BadLocation(self.to_string()));
        }
        Ok(())
    }

    /// Whether this DBC is PIM-enabled under the configuration's
    /// convention.
    pub fn is_pim(&self, config: &MemoryConfig) -> bool {
        config.is_pim_dbc(self.dbc)
    }
}

impl fmt::Display for DbcLocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bank {} subarray {} tile {} dbc {}",
            self.bank, self.subarray, self.tile, self.dbc
        )
    }
}

/// A row within a DBC: the unit the `cpim` instruction's `src` names
/// ("which DBC and nanowire position to align to the leftmost access
/// port", paper §III-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RowAddress {
    /// The DBC holding the row.
    pub location: DbcLocation,
    /// Row (domain) index within the DBC.
    pub row: usize,
}

impl RowAddress {
    /// Creates a row address.
    pub fn new(location: DbcLocation, row: usize) -> RowAddress {
        RowAddress { location, row }
    }

    /// Decodes a byte address into a row address plus byte offset within
    /// the row, using a row-interleaved mapping: consecutive rows walk
    /// DBC-major order so that sequential addresses spread across banks for
    /// bank-level parallelism (the SALP-style organization the paper
    /// adopts).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadLocation`] if the address exceeds capacity.
    pub fn decode(addr: u64, config: &MemoryConfig) -> Result<(RowAddress, usize)> {
        if addr >= config.capacity_bytes() {
            return Err(MemError::BadLocation(format!(
                "byte address {addr:#x} beyond capacity {:#x}",
                config.capacity_bytes()
            )));
        }
        let row_bytes = (config.nanowires_per_dbc / 8) as u64;
        let row_index = addr / row_bytes;
        let offset = (addr % row_bytes) as usize;

        // Interleave: bank is the fastest-varying coordinate.
        let bank = (row_index % config.banks as u64) as usize;
        let rest = row_index / config.banks as u64;
        let subarray = (rest % config.subarrays_per_bank as u64) as usize;
        let rest = rest / config.subarrays_per_bank as u64;
        let tile = (rest % config.tiles_per_subarray as u64) as usize;
        let rest = rest / config.tiles_per_subarray as u64;
        let dbc = (rest % config.dbcs_per_tile as u64) as usize;
        let row = (rest / config.dbcs_per_tile as u64) as usize;

        let location = DbcLocation::new(bank, subarray, tile, dbc);
        debug_assert!(row < config.rows_per_dbc);
        Ok((RowAddress { location, row }, offset))
    }

    /// Encodes this row address back to the byte address of its first byte
    /// (the inverse of [`RowAddress::decode`] at offset 0).
    pub fn encode(&self, config: &MemoryConfig) -> u64 {
        let row_bytes = (config.nanowires_per_dbc / 8) as u64;
        let l = &self.location;
        let row_index = ((((self.row as u64) * config.dbcs_per_tile as u64 + l.dbc as u64)
            * config.tiles_per_subarray as u64
            + l.tile as u64)
            * config.subarrays_per_bank as u64
            + l.subarray as u64)
            * config.banks as u64
            + l.bank as u64;
        row_index * row_bytes
    }
}

impl fmt::Display for RowAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} row {}", self.location, self.row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn location_validation() {
        let c = MemoryConfig::paper();
        DbcLocation::new(31, 63, 15, 15).validate(&c).unwrap();
        assert!(DbcLocation::new(32, 0, 0, 0).validate(&c).is_err());
        assert!(DbcLocation::new(0, 64, 0, 0).validate(&c).is_err());
        assert!(DbcLocation::new(0, 0, 16, 0).validate(&c).is_err());
        assert!(DbcLocation::new(0, 0, 0, 16).validate(&c).is_err());
    }

    #[test]
    fn decode_encode_roundtrip() {
        let c = MemoryConfig::tiny();
        let row_bytes = (c.nanowires_per_dbc / 8) as u64;
        for addr in (0..c.capacity_bytes()).step_by((row_bytes * 7 + row_bytes) as usize) {
            let (ra, off) = RowAddress::decode(addr, &c).unwrap();
            ra.location.validate(&c).unwrap();
            assert!(ra.row < c.rows_per_dbc);
            assert_eq!(ra.encode(&c) + off as u64, addr);
        }
    }

    #[test]
    fn sequential_rows_interleave_across_banks() {
        let c = MemoryConfig::paper();
        let row_bytes = (c.nanowires_per_dbc / 8) as u64;
        let (r0, _) = RowAddress::decode(0, &c).unwrap();
        let (r1, _) = RowAddress::decode(row_bytes, &c).unwrap();
        assert_eq!(r0.location.bank, 0);
        assert_eq!(r1.location.bank, 1, "bank is the fastest coordinate");
    }

    #[test]
    fn address_beyond_capacity_rejected() {
        let c = MemoryConfig::tiny();
        assert!(RowAddress::decode(c.capacity_bytes(), &c).is_err());
    }

    #[test]
    fn pim_location_follows_config_convention() {
        let c = MemoryConfig::paper();
        assert!(DbcLocation::new(0, 0, 0, 0).is_pim(&c));
        assert!(!DbcLocation::new(0, 0, 0, 5).is_pim(&c));
    }
}
