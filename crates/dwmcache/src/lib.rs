//! Trace-driven DWM last-level-cache frontend for the CORUSCANT stack.
//!
//! Everything below the serving frontend in this workspace is
//! *job-shaped*: programs go in, results come out. Real memory systems
//! are *access-shaped* — a stream of reads and writes whose locality
//! decides how much of the racetrack's shift latency actually shows up.
//! This crate bridges the two with a trace-driven set-associative cache
//! model whose data blocks live on DBC rows:
//!
//! * [`trace`] — the `R/W <addr>` text format ([`parse_trace`] /
//!   [`emit_trace`]) and seeded synthetic generators with controllable
//!   locality ([`SynthSpec`], [`Mix`]).
//! * `policy` — the [`PlacementPolicy`] trait and three shift-aware
//!   placement/port policies: [`NaiveStatic`], [`EagerRestore`], and
//!   [`HotnessWeighted`] (port-proximal placement with heat-driven
//!   migration, after the racetrack-survey data-placement taxonomy).
//! * `cache` — the [`DwmCache`] model itself: SRAM tags, per-set tape
//!   state, and a cycle/energy cost account built on
//!   [`coruscant_racetrack::PortGeometry`] and the paper's device
//!   parameters.
//! * [`replay`] — miss-to-PIM job conversion: [`replay`](replay::replay)
//!   turns configurable miss classes into real fill(+filter) jobs served
//!   end to end through `coruscant-server`, bit-deterministically for
//!   any runtime shard count.
//! * `stats` — the deterministic [`CacheStats`] / [`PolicyReport`]
//!   accounting the bench harness serializes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod cache;
mod policy;
pub mod replay;
mod stats;
pub mod trace;

pub use cache::{AccessOutcome, CacheConfig, CacheError, DwmCache};
pub use policy::{EagerRestore, HotnessWeighted, NaiveStatic, PlacementPolicy, SetView};
pub use replay::{JobConfig, ReplayConfig, ReplayError, ReplayOutcome};
pub use stats::{CacheStats, PolicyReport};
pub use trace::{emit_trace, parse_trace, Access, Mix, Op, SynthSpec, TraceError};
