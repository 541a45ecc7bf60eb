//! The `cpim` instruction set (paper §III-E).
//!
//! CORUSCANT reserves part of the physical address space for PIM and adds
//! one instruction family, `cpim op, src, blocksize`, that the CPU hands
//! to the memory controller. `src` names the DBC and the row to align to
//! the leftmost access port, `op` selects the PIM-block output multiplexer,
//! and `blocksize` programs the carry-chain masking for packed arithmetic.
//!
//! This module defines the instruction, its operand validation, and a
//! compact 64-bit binary encoding so traces can be stored and replayed.

use crate::{PimError, Result};
use coruscant_mem::{DbcLocation, RowAddress};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The operation field of a `cpim` instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum CpimOpcode {
    /// Multi-operand AND.
    And = 0,
    /// Multi-operand NAND.
    Nand = 1,
    /// Multi-operand OR.
    Or = 2,
    /// Multi-operand NOR.
    Nor = 3,
    /// Multi-operand XOR.
    Xor = 4,
    /// Multi-operand XNOR.
    Xnor = 5,
    /// Bitwise NOT.
    Not = 6,
    /// Multi-operand addition.
    Add = 7,
    /// Carry-save 7→3 (or 3→2) reduction.
    Reduce = 8,
    /// Two-operand multiplication.
    Mult = 9,
    /// Max across operand words.
    Max = 10,
    /// ReLU (predicated row refresh on the lane MSB).
    Relu = 11,
    /// Majority vote over replicated results (N = operand count).
    Vote = 12,
    /// Row copy through the row-buffer hierarchy.
    Copy = 13,
    /// Two-operand subtraction (two's complement via the NOT path).
    Sub = 14,
    /// Min across operand words (inverted max).
    Min = 15,
}

impl CpimOpcode {
    /// Decodes an opcode field.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::BadInstruction`] for unknown values.
    pub fn from_bits(v: u8) -> Result<CpimOpcode> {
        use CpimOpcode::*;
        Ok(match v {
            0 => And,
            1 => Nand,
            2 => Or,
            3 => Nor,
            4 => Xor,
            5 => Xnor,
            6 => Not,
            7 => Add,
            8 => Reduce,
            9 => Mult,
            10 => Max,
            11 => Relu,
            12 => Vote,
            13 => Copy,
            14 => Sub,
            15 => Min,
            other => return Err(PimError::BadInstruction(format!("opcode {other}"))),
        })
    }
}

impl fmt::Display for CpimOpcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CpimOpcode::And => "and",
            CpimOpcode::Nand => "nand",
            CpimOpcode::Or => "or",
            CpimOpcode::Nor => "nor",
            CpimOpcode::Xor => "xor",
            CpimOpcode::Xnor => "xnor",
            CpimOpcode::Not => "not",
            CpimOpcode::Add => "add",
            CpimOpcode::Reduce => "reduce",
            CpimOpcode::Mult => "mult",
            CpimOpcode::Max => "max",
            CpimOpcode::Relu => "relu",
            CpimOpcode::Vote => "vote",
            CpimOpcode::Copy => "copy",
            CpimOpcode::Sub => "sub",
            CpimOpcode::Min => "min",
        };
        write!(f, "cpim.{s}")
    }
}

/// A validated block size: a power of two in `8..=512` (paper §III-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BlockSize(u16);

impl BlockSize {
    /// Creates a block size.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::BadBlockSize`] unless `v` is a power of two in
    /// `8..=512`.
    pub fn new(v: usize) -> Result<BlockSize> {
        if v.is_power_of_two() && (8..=512).contains(&v) {
            Ok(BlockSize(v as u16))
        } else {
            Err(PimError::BadBlockSize(v))
        }
    }

    /// The width in bits.
    pub fn bits(self) -> usize {
        self.0 as usize
    }

    /// Encodes as `log2(bits) - 3` (0..=6).
    fn to_field(self) -> u64 {
        (self.0.trailing_zeros() - 3) as u64
    }

    fn from_field(f: u64) -> Result<BlockSize> {
        if f > 6 {
            return Err(PimError::BadInstruction(format!("blocksize field {f}")));
        }
        BlockSize::new(1usize << (f + 3))
    }
}

impl fmt::Display for BlockSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// One `cpim` instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CpimInstr {
    /// The operation.
    pub opcode: CpimOpcode,
    /// Source: the DBC and the row aligned to the leftmost access port;
    /// operands occupy consecutive rows from here.
    pub src: RowAddress,
    /// Operand count (1..=7; interpretation depends on the opcode).
    pub operands: u8,
    /// Block size for packed arithmetic / predication.
    pub blocksize: BlockSize,
    /// Optional destination row (result write-back or copy target).
    pub dst: Option<RowAddress>,
}

impl CpimInstr {
    /// Creates an instruction with validation.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::BadInstruction`] for a zero or >7 operand
    /// count.
    pub fn new(
        opcode: CpimOpcode,
        src: RowAddress,
        operands: u8,
        blocksize: BlockSize,
        dst: Option<RowAddress>,
    ) -> Result<CpimInstr> {
        if operands == 0 || operands > 7 {
            return Err(PimError::BadInstruction(format!(
                "operand count {operands}"
            )));
        }
        Ok(CpimInstr {
            opcode,
            src,
            operands,
            blocksize,
            dst,
        })
    }

    /// Coarse planning estimate of the internal operation latency in
    /// device cycles at transverse-read distance `trd`, following the
    /// paper's Table III anchors (2/5-op add = 19 cycles at TRD 3, 26 at
    /// TRD 7; mult = 105 / 64). Schedulers use this to order issue before
    /// the exact cost is known; functional execution reports the exact
    /// cost afterwards.
    pub fn estimated_device_cycles(&self, trd: usize) -> u64 {
        let add = crate::cost_model::add_cycles(trd, self.blocksize.bits().min(64));
        match self.opcode {
            // One transverse read resolves the whole operand stack, plus
            // the sense/write-back step.
            CpimOpcode::And
            | CpimOpcode::Nand
            | CpimOpcode::Or
            | CpimOpcode::Nor
            | CpimOpcode::Xor
            | CpimOpcode::Xnor
            | CpimOpcode::Not => 3,
            CpimOpcode::Add | CpimOpcode::Reduce => add,
            CpimOpcode::Sub => add + 2,
            CpimOpcode::Mult => {
                if trd >= 7 {
                    64
                } else {
                    105
                }
            }
            // Bit-serial scans walk the block width.
            CpimOpcode::Max | CpimOpcode::Min => self.blocksize.bits() as u64 + 2,
            CpimOpcode::Relu => 2,
            CpimOpcode::Vote => 3,
            CpimOpcode::Copy => 4,
        }
    }

    fn encode_addr(a: RowAddress) -> u64 {
        // bank:5 | subarray:6 | tile:4 | dbc:4 | row:5 = 24 bits.
        ((a.location.bank as u64) << 19)
            | ((a.location.subarray as u64) << 13)
            | ((a.location.tile as u64) << 9)
            | ((a.location.dbc as u64) << 5)
            | a.row as u64
    }

    fn decode_addr(v: u64) -> RowAddress {
        RowAddress::new(
            DbcLocation::new(
                (v >> 19 & 0x1F) as usize,
                (v >> 13 & 0x3F) as usize,
                (v >> 9 & 0xF) as usize,
                (v >> 5 & 0xF) as usize,
            ),
            (v & 0x1F) as usize,
        )
    }

    /// Packs the instruction into 64 bits:
    /// `opcode:4 | operands:3 | blocksize:3 | dst_valid:1 | src:24 | dst:24`.
    pub fn encode(&self) -> u64 {
        let mut v = (self.opcode as u64) << 55;
        v |= u64::from(self.operands) << 52;
        v |= self.blocksize.to_field() << 49;
        v |= u64::from(self.dst.is_some()) << 48;
        v |= Self::encode_addr(self.src) << 24;
        if let Some(d) = self.dst {
            v |= Self::encode_addr(d);
        }
        v
    }

    /// Unpacks a 64-bit encoding.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::BadInstruction`] for unknown opcode or field
    /// values.
    pub fn decode(v: u64) -> Result<CpimInstr> {
        let opcode = CpimOpcode::from_bits((v >> 55 & 0xF) as u8)?;
        let operands = (v >> 52 & 0x7) as u8;
        let blocksize = BlockSize::from_field(v >> 49 & 0x7)?;
        let dst_valid = v >> 48 & 1 == 1;
        let src = Self::decode_addr(v >> 24 & 0xFF_FFFF);
        let dst = dst_valid.then(|| Self::decode_addr(v & 0xFF_FFFF));
        CpimInstr::new(opcode, src, operands, blocksize, dst)
    }
}

impl fmt::Display for CpimInstr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} x{} {}",
            self.opcode, self.src, self.operands, self.blocksize
        )?;
        if let Some(d) = self.dst {
            write!(f, " -> {d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(bank: usize, row: usize) -> RowAddress {
        RowAddress::new(DbcLocation::new(bank, 7, 3, 0), row)
    }

    #[test]
    fn blocksize_validation() {
        for good in [8usize, 16, 32, 64, 128, 256, 512] {
            assert_eq!(BlockSize::new(good).unwrap().bits(), good);
        }
        for bad in [0usize, 1, 4, 7, 24, 1024] {
            assert!(BlockSize::new(bad).is_err(), "blocksize {bad}");
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let cases = [
            CpimInstr::new(
                CpimOpcode::Add,
                addr(5, 12),
                5,
                BlockSize::new(8).unwrap(),
                None,
            )
            .unwrap(),
            CpimInstr::new(
                CpimOpcode::Mult,
                addr(31, 31),
                2,
                BlockSize::new(512).unwrap(),
                Some(addr(0, 0)),
            )
            .unwrap(),
            CpimInstr::new(
                CpimOpcode::Xor,
                addr(0, 0),
                7,
                BlockSize::new(64).unwrap(),
                Some(addr(17, 9)),
            )
            .unwrap(),
        ];
        for instr in cases {
            let enc = instr.encode();
            let dec = CpimInstr::decode(enc).unwrap();
            assert_eq!(dec, instr);
        }
    }

    #[test]
    fn operand_count_validated() {
        assert!(CpimInstr::new(
            CpimOpcode::Or,
            addr(0, 0),
            0,
            BlockSize::new(8).unwrap(),
            None
        )
        .is_err());
        assert!(CpimInstr::new(
            CpimOpcode::Or,
            addr(0, 0),
            8,
            BlockSize::new(8).unwrap(),
            None
        )
        .is_err());
    }

    #[test]
    fn bad_encodings_rejected() {
        // Opcode 16 does not fit the 4-bit field; 255 is out of range.
        assert!(CpimOpcode::from_bits(16).is_err());
        assert!(CpimOpcode::from_bits(255).is_err());
    }

    #[test]
    fn opcode_roundtrip() {
        for v in 0..=15u8 {
            let op = CpimOpcode::from_bits(v).unwrap();
            assert_eq!(op as u8, v);
        }
    }

    #[test]
    fn display_forms() {
        let i = CpimInstr::new(
            CpimOpcode::Add,
            addr(1, 2),
            5,
            BlockSize::new(8).unwrap(),
            Some(addr(2, 3)),
        )
        .unwrap();
        let s = i.to_string();
        assert!(s.contains("cpim.add"));
        assert!(s.contains("->"));
        assert!(s.contains("b8"));
    }
}
