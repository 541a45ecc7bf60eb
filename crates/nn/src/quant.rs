//! BWN / TWN weight quantization (paper §IV-A, §V-E).
//!
//! The DRAM PIM comparison points approximate CNN inference with binary
//! weight networks (NID-style, weights in {0, 1}) or ternary weight
//! networks (DrAcc-style, weights in {−1, 0, 1}). Both replace the
//! point-wise multiplications with bulk-bitwise operations (e.g. XNOR),
//! leaving the reduction additions as the dominant cost.

use serde::{Deserialize, Serialize};

/// The numeric mode of an inference run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Precision {
    /// 8-bit integer weights and activations.
    Full,
    /// Binary weights (NID-style).
    Bwn,
    /// Ternary weights (DrAcc-style).
    Twn,
}
