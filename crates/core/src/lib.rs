//! CORUSCANT: processing-in-memory for Domain-Wall (Racetrack) Memory.
//!
//! This crate implements the paper's primary contribution: treating a
//! segment of DWM nanowire between two access ports as a *polymorphic
//! gate*. A transverse read (TR) senses the number of ones in the segment;
//! a seven-level sense amplifier ([`sense::SenseLevels`]) exposes the
//! thresholds, and a small logic block ([`pimblock::PimBlock`]) derives
//! multi-operand logic and arithmetic outputs from them:
//!
//! * bulk-bitwise AND/NAND/OR/NOR/XOR/XNOR/NOT over up to TRD operand rows
//!   in a single sense ([`bulk`]);
//! * multi-operand addition with a spatial carry chain — sum `S`, carry
//!   `C`, and super-carry `C'` routed to neighbouring nanowires
//!   ([`add`], paper Fig. 6);
//! * two-operand multiplication built from logical shifting, predicated
//!   partial products, and carry-save `7 → 3` reductions ([`mult`]);
//! * a max function using transverse writes and predicated row-buffer
//!   resets ([`maxpool`]), plus ReLU ([`relu`]);
//! * N-modular redundancy voting through the super-carry majority
//!   ([`nmr`], paper §III-F);
//! * the `cpim` instruction set and a memory-controller-level executor
//!   ([`isa`], [`dispatch`]);
//! * closed-form cycle/energy/area models calibrated to the paper's
//!   Tables I–III ([`cost_model`], [`area`]).
//!
//! # Example: five-operand addition in one pass
//!
//! ```
//! use coruscant_core::add::MultiOperandAdder;
//! use coruscant_mem::{Dbc, MemoryConfig, Row};
//! use coruscant_racetrack::CostMeter;
//!
//! # fn main() -> Result<(), coruscant_core::PimError> {
//! let config = MemoryConfig::tiny(); // 64-bit rows, TRD = 7
//! let mut dbc = Dbc::pim_enabled(&config);
//! let adder = MultiOperandAdder::new(&config);
//!
//! // Five rows of packed 8-bit integers, added lane-wise in one pass.
//! let operands: Vec<Row> = (1..=5u64)
//!     .map(|k| Row::pack(64, 8, &[k, 10 * k, 7, 30, 2, 0, 1, 100]))
//!     .collect();
//! let mut meter = CostMeter::new();
//! let sum = adder.add_rows(&mut dbc, &operands, 8, &mut meter)?;
//! assert_eq!(sum.unpack(8)[0], 1 + 2 + 3 + 4 + 5);
//! assert_eq!(meter.total().cycles, 26, "Table III: 5-op 8-bit add = 26 cycles");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod add;
pub mod area;
pub mod arith;
pub mod bulk;
pub mod cost_model;
pub mod dispatch;
pub mod isa;
pub mod maxpool;
pub mod mult;
pub mod nmr;
pub mod pimblock;
pub mod program;
pub mod relu;
pub mod sense;
pub mod shift_logic;

mod error;

pub use error::PimError;

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, PimError>;
