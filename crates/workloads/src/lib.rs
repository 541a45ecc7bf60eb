//! Workload generators for the CORUSCANT evaluation (paper §V-C, §V-D).
//!
//! * [`polybench`] — models of the polyhedral-benchmark kernels the paper
//!   selects for its memory-wall study (Figs. 10–11): per-kernel
//!   addition/multiplication counts and cache-filtered traffic, validated
//!   against instrumented reference implementations of the kernels.
//! * [`bitmap`] — the bitmap-index database query of Fig. 12: how many
//!   male users were active in each of the last `w` weeks, over
//!   synthetically generated user bitmaps, runnable functionally on the
//!   CORUSCANT PIM DBCs and analytically on the DRAM PIM baselines.
//! * `datagen` — deterministic synthetic-data helpers shared by the
//!   workloads.
//! * [`serve`] — the workloads expressed as jobs for the
//!   `coruscant-runtime` request-serving engine: bitmap-query chunks and
//!   compiled matmul programs dispatched bank-parallel (§V-C).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod bitmap;
pub mod compile;
mod datagen;
pub mod memwall;
pub mod polybench;
pub mod serve;
