//! Fault injection for shift and transverse-read operations.
//!
//! DWM shifting is imprecise: a shift pulse may move the domain train one
//! position too far ("over-shift") or not far enough ("under-shift"), and a
//! transverse read may report the count one level too high or too low under
//! process variation (paper §II-A, §V-F). The paper determines a TR fault
//! probability of circa `1e-6` for four domains and notes that faults off by
//! two or more levels are negligible.
//!
//! [`FaultInjector`] draws these events from a seeded RNG so that fault
//! campaigns are reproducible.

use crate::error::Error;
use crate::Result;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The intrinsic transverse-read fault probability the paper derives from
/// LLG simulation and the total-differential method (§V-F).
pub const TR_FAULT_PROBABILITY: f64 = 1e-6;

/// Kinds of injectable device fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// The domain train moved one step further than commanded.
    OverShift,
    /// The domain train moved one step less than commanded.
    UnderShift,
    /// A transverse read reported one level too high.
    TrLevelUp,
    /// A transverse read reported one level too low.
    TrLevelDown,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::OverShift => write!(f, "over-shift"),
            FaultKind::UnderShift => write!(f, "under-shift"),
            FaultKind::TrLevelUp => write!(f, "TR level +1"),
            FaultKind::TrLevelDown => write!(f, "TR level -1"),
        }
    }
}

/// Probabilities of each fault class.
///
/// All probabilities are per-operation. The default is fault-free; use
/// [`FaultConfig::paper`] for the paper's intrinsic TR fault rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Probability a shift step over-shifts by one domain.
    pub p_over_shift: f64,
    /// Probability a shift step under-shifts by one domain.
    pub p_under_shift: f64,
    /// Probability a transverse read reports one level too high.
    pub p_tr_up: f64,
    /// Probability a transverse read reports one level too low.
    pub p_tr_down: f64,
}

impl FaultConfig {
    /// A configuration that never injects faults.
    pub const NONE: FaultConfig = FaultConfig {
        p_over_shift: 0.0,
        p_under_shift: 0.0,
        p_tr_up: 0.0,
        p_tr_down: 0.0,
    };

    /// The paper's reliability assumptions (§V-F): TR faults at `1e-6`
    /// split evenly between up and down level errors; shifting faults are
    /// assumed corrected by orthogonal fault-tolerance schemes (Ollivier
    /// et al. DSN'19) with negligible overhead, so they default to zero.
    pub fn paper() -> FaultConfig {
        FaultConfig {
            p_over_shift: 0.0,
            p_under_shift: 0.0,
            p_tr_up: TR_FAULT_PROBABILITY / 2.0,
            p_tr_down: TR_FAULT_PROBABILITY / 2.0,
        }
    }

    /// Sets both TR fault directions to `p / 2` (total TR fault rate `p`).
    #[must_use]
    pub fn with_tr_fault_rate(mut self, p: f64) -> FaultConfig {
        self.p_tr_up = p / 2.0;
        self.p_tr_down = p / 2.0;
        self
    }

    /// Sets both shift fault directions to `p / 2` (total shift fault rate
    /// `p`).
    #[must_use]
    pub fn with_shift_fault_rate(mut self, p: f64) -> FaultConfig {
        self.p_over_shift = p / 2.0;
        self.p_under_shift = p / 2.0;
        self
    }

    /// Whether any fault class has a nonzero probability.
    pub fn is_active(&self) -> bool {
        self.p_over_shift > 0.0
            || self.p_under_shift > 0.0
            || self.p_tr_up > 0.0
            || self.p_tr_down > 0.0
    }

    /// Checks that every field is a probability and that the directional
    /// pairs describe a distribution: each shift step is exactly one of
    /// over-shifted / under-shifted / correct, and each transverse read is
    /// exactly one of level-up / level-down / correct, so each pair must
    /// sum to at most one.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadFaultConfig`] naming the offending field if any
    /// probability is NaN, infinite, or outside `[0, 1]`, or if a
    /// direction pair sums past one.
    pub fn validate(&self) -> Result<()> {
        let fields = [
            ("p_over_shift", self.p_over_shift),
            ("p_under_shift", self.p_under_shift),
            ("p_tr_up", self.p_tr_up),
            ("p_tr_down", self.p_tr_down),
        ];
        for (name, p) in fields {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(Error::BadFaultConfig(format!(
                    "{name} = {p} is not a probability in [0, 1]"
                )));
            }
        }
        let pairs = [
            (
                "p_over_shift + p_under_shift",
                self.p_over_shift + self.p_under_shift,
            ),
            ("p_tr_up + p_tr_down", self.p_tr_up + self.p_tr_down),
        ];
        for (name, sum) in pairs {
            if sum > 1.0 {
                return Err(Error::BadFaultConfig(format!(
                    "{name} = {sum} exceeds 1 (the directions are mutually exclusive per operation)"
                )));
            }
        }
        Ok(())
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::NONE
    }
}

/// A seeded source of fault events.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    config: FaultConfig,
    rng: SmallRng,
    injected: u64,
}

impl FaultInjector {
    /// Creates an injector with the given configuration and RNG seed.
    pub fn new(config: FaultConfig, seed: u64) -> FaultInjector {
        FaultInjector {
            config,
            rng: SmallRng::seed_from_u64(seed),
            injected: 0,
        }
    }

    /// Creates an injector after [validating](FaultConfig::validate) the
    /// configuration — the entry point fault campaigns should use, so a
    /// NaN or out-of-range probability fails loudly instead of silently
    /// skewing every draw.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadFaultConfig`] on an invalid configuration.
    pub fn validated(config: FaultConfig, seed: u64) -> Result<FaultInjector> {
        config.validate()?;
        Ok(FaultInjector::new(config, seed))
    }

    /// The active configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Number of faults injected so far.
    pub fn injected_count(&self) -> u64 {
        self.injected
    }

    /// Draws the shift perturbation for one shift step: `-1` (under-shift),
    /// `0` (correct), or `+1` (over-shift) additional domains.
    pub fn shift_perturbation(&mut self) -> isize {
        let u: f64 = self.rng.random();
        if u < self.config.p_over_shift {
            self.injected += 1;
            1
        } else if u < self.config.p_over_shift + self.config.p_under_shift {
            self.injected += 1;
            -1
        } else {
            0
        }
    }

    /// Draws the level perturbation for one transverse read: `-1`, `0`, or
    /// `+1` levels. Faults of magnitude two or more are negligible per the
    /// paper and are not modeled.
    pub fn tr_perturbation(&mut self) -> i8 {
        let u: f64 = self.rng.random();
        if u < self.config.p_tr_up {
            self.injected += 1;
            1
        } else if u < self.config.p_tr_up + self.config.p_tr_down {
            self.injected += 1;
            -1
        } else {
            0
        }
    }

    /// What a transverse read over `span` domains holding `count` ones
    /// senses: one [`FaultInjector::tr_perturbation`] draw applied and
    /// clamped to the levels the span can produce.
    pub fn sense(&mut self, count: u8, span: u8) -> u8 {
        (count as i8 + self.tr_perturbation()).clamp(0, span as i8) as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_config_injects_nothing() {
        let mut inj = FaultInjector::new(FaultConfig::NONE, 42);
        for _ in 0..10_000 {
            assert_eq!(inj.shift_perturbation(), 0);
            assert_eq!(inj.tr_perturbation(), 0);
        }
        assert_eq!(inj.injected_count(), 0);
    }

    #[test]
    fn paper_config_rate_is_1e6() {
        let c = FaultConfig::paper();
        assert!((c.p_tr_up + c.p_tr_down - TR_FAULT_PROBABILITY).abs() < 1e-18);
        assert!(c.is_active());
        assert!(!FaultConfig::NONE.is_active());
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = FaultConfig::NONE.with_tr_fault_rate(0.3);
        let mut a = FaultInjector::new(cfg, 7);
        let mut b = FaultInjector::new(cfg, 7);
        let sa: Vec<i8> = (0..100).map(|_| a.tr_perturbation()).collect();
        let sb: Vec<i8> = (0..100).map(|_| b.tr_perturbation()).collect();
        assert_eq!(sa, sb);
    }

    #[test]
    fn high_rate_injects_roughly_expected_fraction() {
        let cfg = FaultConfig::NONE.with_tr_fault_rate(0.5);
        let mut inj = FaultInjector::new(cfg, 1);
        let n = 20_000;
        let faults: u64 = (0..n).map(|_| u64::from(inj.tr_perturbation() != 0)).sum();
        let rate = faults as f64 / n as f64;
        assert!((rate - 0.5).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn shift_faults_drawn_from_both_directions() {
        let cfg = FaultConfig::NONE.with_shift_fault_rate(0.8);
        let mut inj = FaultInjector::new(cfg, 3);
        let mut saw = [false; 3];
        for _ in 0..1000 {
            match inj.shift_perturbation() {
                -1 => saw[0] = true,
                0 => saw[1] = true,
                1 => saw[2] = true,
                _ => unreachable!("perturbation magnitude > 1"),
            }
        }
        assert!(saw.iter().all(|&s| s), "saw {saw:?}");
    }

    #[test]
    fn validate_accepts_sane_configs() {
        FaultConfig::NONE.validate().unwrap();
        FaultConfig::paper().validate().unwrap();
        FaultConfig::NONE
            .with_tr_fault_rate(1.0)
            .validate()
            .unwrap();
        FaultInjector::validated(FaultConfig::paper(), 1).unwrap();
    }

    #[test]
    fn validate_rejects_nan_infinite_and_out_of_range() {
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.1, 1.5];
        for v in bad {
            for field in 0..4 {
                let mut c = FaultConfig::NONE;
                match field {
                    0 => c.p_over_shift = v,
                    1 => c.p_under_shift = v,
                    2 => c.p_tr_up = v,
                    _ => c.p_tr_down = v,
                }
                let err = c.validate().unwrap_err();
                assert!(
                    matches!(err, Error::BadFaultConfig(_)),
                    "field {field} value {v}: {err}"
                );
            }
        }
        assert!(
            FaultInjector::validated(FaultConfig::NONE.with_tr_fault_rate(f64::NAN), 0).is_err()
        );
    }

    #[test]
    fn validate_rejects_direction_pairs_past_one() {
        let c = FaultConfig {
            p_over_shift: 0.7,
            p_under_shift: 0.7,
            ..FaultConfig::NONE
        };
        assert!(matches!(
            c.validate().unwrap_err(),
            Error::BadFaultConfig(_)
        ));
        let c = FaultConfig {
            p_tr_up: 0.6,
            p_tr_down: 0.6,
            ..FaultConfig::NONE
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn display_of_kinds() {
        for k in [
            FaultKind::OverShift,
            FaultKind::UnderShift,
            FaultKind::TrLevelUp,
            FaultKind::TrLevelDown,
        ] {
            assert!(!k.to_string().is_empty());
        }
    }
}
