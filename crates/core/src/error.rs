use std::fmt;

/// Errors produced by CORUSCANT PIM operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PimError {
    /// A memory-layer error bubbled up.
    Mem(coruscant_mem::MemError),
    /// Too many operands for the configured transverse-read distance.
    TooManyOperands {
        /// Requested operand count.
        requested: usize,
        /// Maximum for this operation at the configured TRD.
        max: usize,
    },
    /// The operation needs at least this many operands.
    TooFewOperands {
        /// Requested operand count.
        requested: usize,
        /// Minimum for this operation.
        min: usize,
    },
    /// The block size is not one of the supported power-of-two widths.
    BadBlockSize(usize),
    /// The target DBC is not PIM-enabled.
    NotPim,
    /// Operand bit-width too large for the requested lane layout.
    WidthOverflow {
        /// Operand bits requested.
        bits: usize,
        /// Lane width available.
        lane: usize,
    },
    /// An instruction failed to decode.
    BadInstruction(String),
    /// Two operand lists that pair up element by element differ in length.
    LengthMismatch {
        /// Values in the first list.
        left: usize,
        /// Values in the second list.
        right: usize,
    },
}

impl fmt::Display for PimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PimError::Mem(e) => write!(f, "memory error: {e}"),
            PimError::TooManyOperands { requested, max } => {
                write!(
                    f,
                    "{requested} operands exceed the maximum of {max} at this TRD"
                )
            }
            PimError::TooFewOperands { requested, min } => {
                write!(f, "{requested} operands below the minimum of {min}")
            }
            PimError::BadBlockSize(b) => write!(
                f,
                "block size {b} unsupported (expected a power of two in 8..=512)"
            ),
            PimError::NotPim => write!(f, "target DBC is not PIM-enabled"),
            PimError::WidthOverflow { bits, lane } => {
                write!(f, "{bits}-bit operands do not fit a {lane}-bit lane")
            }
            PimError::BadInstruction(s) => write!(f, "bad cpim instruction: {s}"),
            PimError::LengthMismatch { left, right } => {
                write!(f, "operand lists of {left} and {right} values differ")
            }
        }
    }
}

impl std::error::Error for PimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PimError::Mem(e) => Some(e),
            _ => None,
        }
    }
}

impl From<coruscant_mem::MemError> for PimError {
    fn from(e: coruscant_mem::MemError) -> Self {
        PimError::Mem(e)
    }
}

impl From<coruscant_racetrack::Error> for PimError {
    fn from(e: coruscant_racetrack::Error) -> Self {
        PimError::Mem(coruscant_mem::MemError::Device(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_nonempty() {
        let cases = [
            PimError::Mem(coruscant_mem::MemError::BadConfig("x".into())),
            PimError::TooManyOperands {
                requested: 9,
                max: 5,
            },
            PimError::TooFewOperands {
                requested: 0,
                min: 1,
            },
            PimError::BadBlockSize(13),
            PimError::NotPim,
            PimError::WidthOverflow { bits: 16, lane: 8 },
            PimError::BadInstruction("opcode 31".into()),
            PimError::LengthMismatch { left: 2, right: 1 },
        ];
        for c in cases {
            assert!(!c.to_string().is_empty());
        }
    }

    #[test]
    fn conversions_chain() {
        use std::error::Error as _;
        let e: PimError = coruscant_racetrack::Error::UnknownPort(2).into();
        assert!(e.source().is_some());
    }
}
