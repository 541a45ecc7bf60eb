//! The repo's benchmark: four seeded workloads over the CORUSCANT
//! serving stack, nine end-to-end metrics with fixed regression bounds,
//! and a per-layer ledger measured from outside. See `README.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calib;
pub mod cli;
pub mod compare;
pub mod host;
pub mod layers;
pub mod report;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
