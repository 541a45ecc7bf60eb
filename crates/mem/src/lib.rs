//! DWM main-memory architecture for CORUSCANT (paper §II-B, Fig. 2).
//!
//! The memory keeps the DRAM-compatible organization of channel → bank →
//! subarray → tile, and subdivides each tile into *domain-block clusters*
//! (DBCs): groups of `X` parallel nanowires, `Y` data domains deep, sharing
//! sensing circuitry and shifting in lock step. One DBC per tile is
//! PIM-enabled with a second access port spaced for transverse reads.
//!
//! Provided here:
//!
//! * [`MemoryConfig`] — the paper's Table II geometry (1 GB, 32 banks, 64
//!   subarrays/bank, 16 tiles/subarray, 15 + 1-PIM DBCs/tile).
//! * [`Dbc`] — a functional domain-block cluster built from
//!   [`coruscant_racetrack::Nanowire`]s, with lock-step shifting, row
//!   read/write, and the per-wire accesses PIM needs.
//! * [`Row`] — a 512-bit row with word packing/unpacking helpers.
//! * [`timing`] — DDR3-1600-style timing for DRAM and DWM (where the
//!   precharge slot is replaced by shift time, Table II).
//! * [`controller`] — a command-level memory controller with per-bank
//!   queuing, open-row tracking, and bank-major PIM unit numbering for
//!   the *high-throughput* dispatch of §V-C.
//!
//! # Example
//!
//! ```
//! use coruscant_mem::{Dbc, MemoryConfig, Row};
//!
//! # fn main() -> Result<(), coruscant_mem::MemError> {
//! let config = MemoryConfig::paper();
//! let mut dbc = Dbc::pim_enabled(&config);
//!
//! let mut meter = coruscant_racetrack::CostMeter::new();
//! let row = Row::from_u64_words(config.nanowires_per_dbc, &[0xDEAD_BEEF]);
//! dbc.write_row(5, &row, &mut meter)?;
//! assert_eq!(dbc.read_row(5, &mut meter)?.to_u64_words()[0], 0xDEAD_BEEF);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod address;
mod config;
pub mod controller;
mod dbc;
mod fault;
mod row;
pub mod timing;
pub mod trace;
pub mod transfer;
pub mod transpose;

mod error;

pub use address::{DbcLocation, RowAddress};
pub use config::MemoryConfig;
pub use controller::{MemoryController, Request};
pub use dbc::{Dbc, TrCounts};
pub use error::MemError;
pub use fault::{FaultPlan, ScrubOutcome};
pub use row::Row;
pub use timing::{DeviceTiming, Protocol};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, MemError>;
