//! Reliability analysis for transverse-read PIM (paper §V-F, Tables V–VI).
//!
//! A transverse-read fault moves the sensed ones-count one level up or
//! down (faults off by two or more levels are negligible). Whether that
//! flips an operation's output depends on which level *transitions* the
//! output is sensitive to:
//!
//! * `XOR`/`S` flips on **every** transition (parity) — error rate `p`;
//! * `AND`, `OR` and `C'` have a single decisive boundary — rate `p/TRD`
//!   under the uniform-level assumption;
//! * `C` (count bit 1) has 1 / 2 / 3 boundaries at TRD 3 / 5 / 7 —
//!   rate `p·boundaries/TRD`.
//!
//! Compound operations accumulate: an 8-bit addition performs 8 TRs, a
//! multiplication a few hundred. N-modular redundancy then suppresses the
//! per-bit rate `q` to `Σ_{k ≥ ⌈N/2⌉+…} C(N,k) q^k (1−q)^{N−k}`.
//!
//! [`montecarlo`] cross-checks the analytic rates by injecting faults
//! into the functional simulators at elevated probability.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod model;
pub mod montecarlo;
pub mod nmr;
pub mod retry;
pub mod variation;
