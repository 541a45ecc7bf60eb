//! Memory-wide fault planning: per-bank fault configurations with
//! deterministic per-DBC seed derivation.
//!
//! A [`FaultPlan`] describes how a whole memory misbehaves: a base
//! [`FaultConfig`] applied to every bank plus per-bank overrides (e.g. one
//! marginal bank at an accelerated rate for a quarantine campaign). The
//! controller materializes DBCs lazily, so the plan also fixes how each
//! DBC's injector seed is derived from the plan seed — the same plan and
//! seed always produce the same fault stream regardless of
//! materialization order, which keeps campaigns reproducible.

use crate::address::DbcLocation;
use crate::config::MemoryConfig;
use crate::Result;
use coruscant_racetrack::FaultConfig;
use serde::{Deserialize, Serialize};

/// SplitMix64 finalizer: decorrelates consecutive DBC indices so the
/// per-wire spreading inside [`crate::Dbc::with_faults`] (an additive
/// golden-ratio walk) cannot collide across neighbouring DBCs.
pub(crate) fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded, per-bank fault model for a whole memory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    base: FaultConfig,
    /// Per-bank overrides, kept sorted by bank for deterministic lookup.
    overrides: Vec<(usize, FaultConfig)>,
    seed: u64,
}

impl FaultPlan {
    /// A plan applying `base` to every bank.
    ///
    /// # Errors
    ///
    /// Returns a device error if `base` fails
    /// [`FaultConfig::validate`].
    pub fn uniform(base: FaultConfig, seed: u64) -> Result<FaultPlan> {
        base.validate()?;
        Ok(FaultPlan {
            base,
            overrides: Vec::new(),
            seed,
        })
    }

    /// A fault-free plan (useful as a base for per-bank overrides).
    pub fn healthy(seed: u64) -> FaultPlan {
        FaultPlan {
            base: FaultConfig::NONE,
            overrides: Vec::new(),
            seed,
        }
    }

    /// Overrides the configuration of one bank (replacing any previous
    /// override for that bank).
    ///
    /// # Errors
    ///
    /// Returns a device error if `config` fails
    /// [`FaultConfig::validate`].
    pub fn with_bank(mut self, bank: usize, config: FaultConfig) -> Result<FaultPlan> {
        config.validate()?;
        self.overrides.retain(|&(b, _)| b != bank);
        self.overrides.push((bank, config));
        self.overrides.sort_by_key(|&(b, _)| b);
        Ok(self)
    }

    /// The plan seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The base configuration applied to non-overridden banks.
    pub fn base(&self) -> &FaultConfig {
        &self.base
    }

    /// The effective configuration of `bank`.
    pub(crate) fn config_for_bank(&self, bank: usize) -> FaultConfig {
        self.overrides
            .iter()
            .find(|&&(b, _)| b == bank)
            .map_or(self.base, |&(_, c)| c)
    }

    /// Whether any bank can inject faults under this plan.
    pub fn is_active(&self) -> bool {
        self.base.is_active() || self.overrides.iter().any(|(_, c)| c.is_active())
    }

    /// The injector seed for the DBC at `location`: a SplitMix64 mix of
    /// the plan seed and the DBC's linear index, so every DBC draws an
    /// independent, reproducible fault stream.
    pub(crate) fn dbc_seed(&self, location: DbcLocation, config: &MemoryConfig) -> u64 {
        let idx = ((location.bank * config.subarrays_per_bank + location.subarray)
            * config.tiles_per_subarray
            + location.tile)
            * config.dbcs_per_tile
            + location.dbc;
        mix(self
            .seed
            .wrapping_add((idx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
    }
}

/// The outcome of a position-code scrub pass over a DBC or bank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScrubOutcome {
    /// Wires checked.
    pub wires_checked: u64,
    /// Wires commanded back to canonical alignment before the check.
    pub realigned: u64,
    /// Wires whose position code detected and repaired a misalignment.
    pub repaired: u64,
    /// Wires whose misalignment exceeded the code's detection range.
    pub out_of_range: u64,
}

impl ScrubOutcome {
    /// Accumulates another outcome into this one.
    pub fn merge(&mut self, other: ScrubOutcome) {
        self.wires_checked += other.wires_checked;
        self.realigned += other.realigned;
        self.repaired += other.repaired;
        self.out_of_range += other.out_of_range;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemError;

    #[test]
    fn uniform_plan_applies_base_everywhere() {
        let base = FaultConfig::NONE.with_tr_fault_rate(1e-3);
        let plan = FaultPlan::uniform(base, 7).unwrap();
        assert_eq!(plan.config_for_bank(0), base);
        assert_eq!(plan.config_for_bank(31), base);
        assert!(plan.is_active());
        assert!(!FaultPlan::healthy(7).is_active());
    }

    #[test]
    fn bank_overrides_shadow_the_base() {
        let hot = FaultConfig::NONE.with_tr_fault_rate(0.5);
        let plan = FaultPlan::healthy(1).with_bank(3, hot).unwrap();
        assert_eq!(plan.config_for_bank(3), hot);
        assert_eq!(plan.config_for_bank(2), FaultConfig::NONE);
        assert!(plan.is_active());

        // Replacing an override keeps one entry per bank.
        let plan = plan.with_bank(3, FaultConfig::NONE).unwrap();
        assert!(!plan.is_active());
    }

    #[test]
    fn invalid_configs_are_rejected_with_typed_error() {
        let bad = FaultConfig::NONE.with_tr_fault_rate(f64::NAN);
        assert!(matches!(
            FaultPlan::uniform(bad, 0).unwrap_err(),
            MemError::Device(coruscant_racetrack::Error::BadFaultConfig(_))
        ));
        assert!(FaultPlan::healthy(0).with_bank(0, bad).is_err());
    }

    #[test]
    fn dbc_seeds_are_distinct_and_reproducible() {
        let config = MemoryConfig::tiny();
        let plan = FaultPlan::healthy(42);
        let mut seeds = Vec::new();
        for bank in 0..config.banks {
            for sub in 0..config.subarrays_per_bank {
                for tile in 0..config.tiles_per_subarray {
                    for dbc in 0..config.dbcs_per_tile {
                        seeds.push(plan.dbc_seed(DbcLocation::new(bank, sub, tile, dbc), &config));
                    }
                }
            }
        }
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "every DBC draws its own stream");
        assert_eq!(
            plan.dbc_seed(DbcLocation::new(1, 1, 1, 1), &config),
            FaultPlan::healthy(42).dbc_seed(DbcLocation::new(1, 1, 1, 1), &config)
        );
        assert_ne!(
            plan.dbc_seed(DbcLocation::new(0, 0, 0, 0), &config),
            FaultPlan::healthy(43).dbc_seed(DbcLocation::new(0, 0, 0, 0), &config)
        );
    }

    #[test]
    fn scrub_outcome_merges() {
        let mut a = ScrubOutcome {
            wires_checked: 64,
            realigned: 3,
            repaired: 2,
            out_of_range: 1,
        };
        a.merge(a);
        assert_eq!(a.wires_checked, 128);
        assert_eq!(a.repaired, 4);
    }
}
