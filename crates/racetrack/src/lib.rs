//! Device-level model of Domain-Wall Memory (DWM), also known as Racetrack
//! Memory, as used by the CORUSCANT processing-in-memory architecture
//! (Ollivier et al., MICRO 2022).
//!
//! A DWM *nanowire* is a ferromagnetic strip holding a train of magnetic
//! *domains* separated by domain walls. Each domain stores one bit as its
//! magnetization direction. Domains do not have individual access devices;
//! instead one or more *access ports* are fabricated along the wire and the
//! whole domain train is *shifted* under the ports by lateral current pulses.
//!
//! This crate models:
//!
//! * [`Nanowire`] — the domain train, shift semantics (including overflow
//!   of data into overhead domains), point read/write at ports, and
//!   shift-based writes.
//! * **Transverse read** ([`Nanowire::transverse_read`]) — an aggregate
//!   access along the wire that senses the *number of ones* between two
//!   ports, the primitive CORUSCANT turns into a polymorphic logic gate.
//! * **Transverse write** ([`Nanowire::transverse_write`]) — writing a bit
//!   under one port while advancing only the segment between the ports
//!   (*segmented shifting*, paper §IV-B / Fig. 9).
//! * `fault` — injection of shift (over/under-shift) and transverse-read
//!   (level off-by-one) faults.
//! * `cost` / [`params`] / [`energy`] — cycle and energy accounting with
//!   constants calibrated to the paper's device assumptions (§V-A).
//!
//! # Example
//!
//! ```
//! use coruscant_racetrack::{Nanowire, NanowireSpec};
//!
//! # fn main() -> Result<(), coruscant_racetrack::Error> {
//! // 32 data domains, two ports spaced for a transverse-read distance of 7.
//! let spec = NanowireSpec::coruscant(32, 7);
//! let mut wire = Nanowire::new(spec);
//!
//! // Store a bit pattern into the segment between the two access ports.
//! for (i, bit) in [true, false, true, true, false, true, true].iter().enumerate() {
//!     wire.set_segment_bit(i, *bit)?;
//! }
//! // Transverse read counts the ones in the whole segment.
//! assert_eq!(wire.transverse_read_full()?.value, 5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod align;
mod cost;
pub mod energy;
mod fault;
mod magnet;
mod nanowire;
pub mod params;
pub mod port;

mod error;

pub use align::{Alignment, PositionCode};
pub use cost::{Cost, CostMeter, OpClass, PortGeometry};
pub use error::Error;
pub use fault::{FaultConfig, FaultInjector};
pub use nanowire::{walk_shift, Nanowire, NanowireSpec, TrOutcome};
pub use port::{AccessPort, PortId, PortKind};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, Error>;
