//! Magnetization direction of a single domain.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The magnetization direction of one magnetic domain.
///
/// Binary values are represented by the magnetization direction of each
/// domain, parallel or antiparallel to a fixed reference layer (paper
/// §II-A). We adopt the convention that [`Magnetization::Up`] stores a
/// logical `1` and [`Magnetization::Down`] stores a logical `0`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub(crate) enum Magnetization {
    /// Antiparallel to the reference layer; stores logical `0`.
    #[default]
    Down,
    /// Parallel to the reference layer; stores logical `1`.
    Up,
}

impl Magnetization {
    /// The logical bit stored by this magnetization.
    pub(crate) fn bit(self) -> bool {
        matches!(self, Magnetization::Up)
    }
}

impl From<bool> for Magnetization {
    fn from(bit: bool) -> Self {
        if bit {
            Magnetization::Up
        } else {
            Magnetization::Down
        }
    }
}

impl From<Magnetization> for bool {
    fn from(m: Magnetization) -> bool {
        m.bit()
    }
}

impl fmt::Display for Magnetization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Magnetization::Up => write!(f, "+Z"),
            Magnetization::Down => write!(f, "-Z"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bool_roundtrip() {
        for b in [false, true] {
            assert_eq!(bool::from(Magnetization::from(b)), b);
        }
    }

    #[test]
    fn default_is_down() {
        assert_eq!(Magnetization::default(), Magnetization::Down);
        assert!(!Magnetization::default().bit());
    }

    #[test]
    fn display() {
        assert_eq!(Magnetization::Up.to_string(), "+Z");
        assert_eq!(Magnetization::Down.to_string(), "-Z");
    }
}
