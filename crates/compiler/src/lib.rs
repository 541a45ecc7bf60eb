//! `coruscant-compiler`: an optimizing pass pipeline over
//! [`PimProgram`]s.
//!
//! CORUSCANT's advantage over conventional PIM is architectural — one
//! transverse read resolves up to TRD operands (§III-B), and operands
//! kept adjacent under the access ports make shifts cheap (§II-B) — but
//! how much of that the hardware realizes is decided by the *instruction
//! stream*. This crate rewrites programs before they reach the memory
//! controller:
//!
//! * `TrFusionPass` — collapses pairwise AND/OR/XOR accumulator chains
//!   into k-operand transverse-read instructions, `k ≤ min(TRD, 7)`;
//! * `ConstFoldPass` — drops boundary operands that hold the opcode's
//!   identity row, which the hardware's padding supplies anyway;
//! * `DeadStepPass` — removes dead loads, unread bulk results and
//!   redundant copies;
//! * `ShiftSchedulePass` — reorders independent steps so consecutive
//!   row accesses are close, minimizing net shift distance;
//! * [`differential_verify`] — executes original and optimized programs
//!   through the functional path and asserts identical outputs, wired
//!   into the test suite and available as a debug option in release via
//!   [`CompileOptions::verify`].
//!
//! The [`Compiler`] bundles a configured `PassManager` with the
//! verifier; the execution runtime optimizes jobs on enqueue through it
//! (see `coruscant-runtime`'s `RuntimeOptions::compile`).
//!
//! ```
//! use coruscant_compiler::{CompileOptions, Compiler};
//! use coruscant_core::program::PimProgram;
//! use coruscant_mem::MemoryConfig;
//!
//! let config = MemoryConfig::tiny();
//! let compiler = Compiler::new(config, &CompileOptions::default().with_verify(true));
//! let (optimized, report) = compiler.optimize(&PimProgram::default()).unwrap();
//! assert!(optimized.is_empty());
//! assert_eq!(report.cycles_saved(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod batch;
mod constfold;
mod dce;
mod effects;
mod fuse;
mod pass;
mod schedule;
mod stats;
mod verify;

pub use batch::{splice_programs, BatchSlot, SplicedBatch};
pub(crate) use constfold::ConstFoldPass;
pub(crate) use dce::DeadStepPass;
pub(crate) use fuse::TrFusionPass;
pub(crate) use pass::PassManager;
pub use pass::{Pass, PassContext, PassReport, PipelineReport};
pub(crate) use schedule::ShiftSchedulePass;
pub use stats::ProgramStats;
pub use verify::{differential_verify, VerifyOutcome};

use coruscant_core::program::PimProgram;
use coruscant_core::PimError;
use coruscant_mem::MemoryConfig;
use std::fmt;

/// Errors surfaced while optimizing a program.
#[derive(Debug)]
pub enum CompileError {
    /// A pass or the verifier hit an underlying PIM/ISA error.
    Pim(PimError),
    /// The differential verifier caught an output mismatch — a compiler
    /// bug, never a program bug.
    Diverged {
        /// Human-readable mismatch description.
        detail: String,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Pim(e) => write!(f, "compile failed: {e}"),
            CompileError::Diverged { detail } => {
                write!(f, "differential verification failed: {detail}")
            }
        }
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileError::Pim(e) => Some(e),
            CompileError::Diverged { .. } => None,
        }
    }
}

impl From<PimError> for CompileError {
    fn from(e: PimError) -> CompileError {
        CompileError::Pim(e)
    }
}

/// Whether the pass pipeline runs, and whether every optimized program is
/// differentially verified against its original.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileOptions {
    /// Master switch; `false` passes programs through untouched, `true`
    /// runs every pass (see [`Compiler::new`]).
    pub enabled: bool,
    /// Execute original vs optimized through the functional path and
    /// require identical outputs. Off by default (it runs every program
    /// twice); tests and debugging turn it on — including in release
    /// builds.
    pub verify: bool,
}

impl Default for CompileOptions {
    fn default() -> CompileOptions {
        CompileOptions {
            enabled: true,
            verify: false,
        }
    }
}

impl CompileOptions {
    /// Options that pass programs through untouched.
    pub fn disabled() -> CompileOptions {
        CompileOptions {
            enabled: false,
            verify: false,
        }
    }

    /// The same options with verification toggled.
    #[must_use]
    pub fn with_verify(mut self, verify: bool) -> CompileOptions {
        self.verify = verify;
        self
    }
}

/// A configured pipeline: pass manager plus optional differential
/// verification.
pub struct Compiler {
    manager: PassManager,
    options: CompileOptions,
}

impl Compiler {
    /// Builds the standard pipeline for a configuration: fusion, then
    /// constant folding, then dead-step elimination, then shift
    /// scheduling (fusion first so the scheduler sees the final access
    /// pattern).
    pub fn new(config: MemoryConfig, options: &CompileOptions) -> Compiler {
        let passes: Vec<Box<dyn Pass>> = if options.enabled {
            vec![
                Box::new(TrFusionPass),
                Box::new(ConstFoldPass),
                Box::new(DeadStepPass),
                Box::new(ShiftSchedulePass),
            ]
        } else {
            Vec::new()
        };
        Compiler {
            manager: PassManager::new(config, passes),
            options: *options,
        }
    }

    /// Optimizes one program.
    ///
    /// With verification enabled, a program whose *original* form fails
    /// to execute on a fresh machine (it depends on pre-loaded state) is
    /// returned untouched rather than rejected — equivalence cannot be
    /// judged, and the error surfaces at execution exactly as before.
    ///
    /// # Errors
    ///
    /// Propagates pass failures and verifier divergence.
    pub fn optimize(
        &self,
        program: &PimProgram,
    ) -> Result<(PimProgram, PipelineReport), CompileError> {
        if !self.options.enabled {
            return Ok((
                program.clone(),
                PipelineReport::identity(ProgramStats::of(program, &self.manager.ctx.config)),
            ));
        }
        let (optimized, mut report) = self.manager.run(program)?;
        if self.options.verify {
            match differential_verify(program, &optimized, &self.manager.ctx.config)? {
                VerifyOutcome::Match => report.verified = true,
                VerifyOutcome::OriginalFailed => {
                    return Ok((program.clone(), PipelineReport::identity(report.before)));
                }
            }
        }
        Ok((optimized, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_compiler_is_identity() {
        let config = MemoryConfig::tiny();
        let compiler = Compiler::new(config, &CompileOptions::disabled());
        let program = PimProgram::default();
        let (out, report) = compiler.optimize(&program).unwrap();
        assert_eq!(out, program);
        assert!(report.passes.is_empty());
    }

    #[test]
    fn standard_pipeline_orders_passes() {
        let config = MemoryConfig::tiny();
        let compiler = Compiler::new(config, &CompileOptions::default());
        let (_, report) = compiler.optimize(&PimProgram::default()).unwrap();
        let names: Vec<&str> = report.passes.iter().map(|p| p.pass.as_str()).collect();
        assert_eq!(
            names,
            vec!["tr-fusion", "const-fold", "dead-step", "shift-schedule"]
        );
    }
}
