//! The [`Pass`] trait and the `PassManager` that snapshots per-pass
//! before/after statistics.

use crate::stats::ProgramStats;
use crate::CompileError;
use coruscant_core::program::PimProgram;
use coruscant_mem::MemoryConfig;
use serde::Serialize;

/// Shared state passes read (geometry, TRD).
#[derive(Debug, Clone)]
pub struct PassContext {
    /// The memory configuration the program will run on.
    pub config: MemoryConfig,
}

/// One rewrite over a program. Passes must preserve the program's
/// observable outputs (the ordered `ProgramOutcome.outputs` of the
/// functional `execute()` path) for *any* initial memory state — the
/// differential verifier enforces exactly this invariant.
pub trait Pass: Send + Sync {
    /// Short stable name, used in reports.
    fn name(&self) -> &'static str;

    /// Rewrites the program.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] if a rewrite cannot be expressed (e.g.
    /// an instruction fails validation); passes must fail rather than
    /// emit an unsound program.
    fn run(&self, program: PimProgram, ctx: &PassContext) -> Result<PimProgram, CompileError>;
}

/// One pass's contribution to a pipeline run.
#[derive(Debug, Clone, Serialize)]
pub struct PassReport {
    /// The pass name.
    pub pass: String,
    /// Program statistics entering the pass.
    pub before: ProgramStats,
    /// Program statistics leaving the pass.
    pub after: ProgramStats,
}

impl PassReport {
    /// Estimated device cycles the pass removed.
    pub fn cycles_saved(&self) -> u64 {
        self.before
            .est_device_cycles
            .saturating_sub(self.after.est_device_cycles)
    }

    /// Estimated shift domains the pass removed.
    pub fn shifts_saved(&self) -> u64 {
        self.before.est_shifts.saturating_sub(self.after.est_shifts)
    }
}

/// The report of one full pipeline run over one program.
#[derive(Debug, Clone, Serialize)]
pub struct PipelineReport {
    /// Per-pass before/after snapshots, in execution order.
    pub passes: Vec<PassReport>,
    /// Statistics of the input program.
    pub before: ProgramStats,
    /// Statistics of the optimized program.
    pub after: ProgramStats,
    /// Whether the differential verifier compared the optimized program
    /// against the original on this run.
    pub verified: bool,
}

impl PipelineReport {
    /// A report for a program the pipeline left untouched.
    pub fn identity(stats: ProgramStats) -> PipelineReport {
        PipelineReport {
            passes: Vec::new(),
            before: stats,
            after: stats,
            verified: false,
        }
    }

    /// Total estimated device cycles removed.
    pub fn cycles_saved(&self) -> u64 {
        self.before
            .est_device_cycles
            .saturating_sub(self.after.est_device_cycles)
    }

    /// Total instructions removed.
    pub fn instructions_saved(&self) -> u64 {
        (self
            .before
            .instructions
            .saturating_sub(self.after.instructions)) as u64
    }

    /// Fraction of estimated device cycles removed (0 for an empty
    /// program).
    pub fn cycle_reduction(&self) -> f64 {
        if self.before.est_device_cycles == 0 {
            0.0
        } else {
            self.cycles_saved() as f64 / self.before.est_device_cycles as f64
        }
    }

    /// Renders a fixed-width per-pass table (used by the inspection
    /// example and the compiler bench).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<18} {:>6} {:>7} {:>12} {:>10}\n",
            "pass", "steps", "instrs", "est_cycles", "est_shifts"
        ));
        out.push_str(&format!(
            "{:<18} {:>6} {:>7} {:>12} {:>10}\n",
            "(input)",
            self.before.steps,
            self.before.instructions,
            self.before.est_device_cycles,
            self.before.est_shifts
        ));
        for p in &self.passes {
            out.push_str(&format!(
                "{:<18} {:>6} {:>7} {:>12} {:>10}\n",
                p.pass,
                p.after.steps,
                p.after.instructions,
                p.after.est_device_cycles,
                p.after.est_shifts
            ));
        }
        out.push_str(&format!(
            "total: -{} instrs, -{} est cycles ({:.1}%), -{} est shifts{}\n",
            self.instructions_saved(),
            self.cycles_saved(),
            self.cycle_reduction() * 100.0,
            self.before.est_shifts.saturating_sub(self.after.est_shifts),
            if self.verified { ", verified" } else { "" }
        ));
        out
    }
}

/// Runs an ordered list of passes, snapshotting statistics around each.
pub(crate) struct PassManager {
    ctx: PassContext,
    passes: Vec<Box<dyn Pass>>,
}

impl PassManager {
    /// An empty manager for a configuration.
    pub(crate) fn new(config: MemoryConfig) -> PassManager {
        PassManager {
            ctx: PassContext { config },
            passes: Vec::new(),
        }
    }

    /// Appends a pass.
    #[must_use]
    pub(crate) fn with_pass(mut self, pass: Box<dyn Pass>) -> PassManager {
        self.passes.push(pass);
        self
    }

    /// Runs the pipeline.
    ///
    /// # Errors
    ///
    /// Propagates the first pass failure.
    pub(crate) fn run(
        &self,
        program: &PimProgram,
    ) -> Result<(PimProgram, PipelineReport), CompileError> {
        let before = ProgramStats::of(program, &self.ctx.config);
        let mut current = program.clone();
        let mut reports = Vec::with_capacity(self.passes.len());
        for pass in &self.passes {
            let entering = ProgramStats::of(&current, &self.ctx.config);
            current = pass.run(current, &self.ctx)?;
            reports.push(PassReport {
                pass: pass.name().to_string(),
                before: entering,
                after: ProgramStats::of(&current, &self.ctx.config),
            });
        }
        let after = ProgramStats::of(&current, &self.ctx.config);
        Ok((
            current,
            PipelineReport {
                passes: reports,
                before,
                after,
                verified: false,
            },
        ))
    }
}
