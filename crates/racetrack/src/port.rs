//! Access ports along a nanowire.

use serde::{Deserialize, Serialize};
use std::fmt;

/// What a port's stack of fixed layers and transistors can do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PortKind {
    /// A read-only port: a fixed magnetic layer sensed through `RWL`
    /// (paper Fig. 1, left port).
    ReadOnly,
    /// A read/write port using shift-based writing (paper Fig. 1, right
    /// port): `WWL` steers current between `BL` and `BL̅` through the fin.
    ReadWrite,
}

impl PortKind {
    /// Whether this port can write.
    pub fn can_write(self) -> bool {
        matches!(self, PortKind::ReadWrite)
    }
}

impl fmt::Display for PortKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortKind::ReadOnly => write!(f, "read-only"),
            PortKind::ReadWrite => write!(f, "read/write"),
        }
    }
}

/// Identifier of a port on a particular nanowire (index into its port list,
/// ordered by physical position from the left extremity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PortId(pub usize);

impl PortId {
    /// The leftmost port of a CORUSCANT PIM nanowire.
    pub const LEFT: PortId = PortId(0);
    /// The rightmost port of a two-port CORUSCANT PIM nanowire.
    pub const RIGHT: PortId = PortId(1);
}

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "port{}", self.0)
    }
}

impl From<usize> for PortId {
    fn from(i: usize) -> Self {
        PortId(i)
    }
}

/// An access point fabricated at a fixed physical position along the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AccessPort {
    /// Physical domain position under the port (0 = left extremity).
    pub position: usize,
    /// Read/write capability of the port.
    pub kind: PortKind,
}

impl AccessPort {
    /// Creates a read/write access port at `position`.
    pub(crate) fn read_write(position: usize) -> AccessPort {
        AccessPort {
            position,
            kind: PortKind::ReadWrite,
        }
    }
}

impl fmt::Display for AccessPort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} port at domain {}", self.kind, self.position)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds() {
        assert!(PortKind::ReadWrite.can_write());
        assert!(!PortKind::ReadOnly.can_write());
    }

    #[test]
    fn constructors() {
        let p = AccessPort::read_write(14);
        assert_eq!(p.position, 14);
        assert!(p.kind.can_write());
    }

    #[test]
    fn port_id_ordering() {
        assert!(PortId::LEFT < PortId::RIGHT);
        assert_eq!(PortId::from(0), PortId::LEFT);
    }

    #[test]
    fn display() {
        assert_eq!(PortId(3).to_string(), "port3");
        assert!(AccessPort::read_write(5).to_string().contains("read/write"));
    }
}
