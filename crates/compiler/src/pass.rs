//! The [`Pass`] trait and the `PassManager` that snapshots statistics
//! once per pass boundary.

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
        let mut out = format!(
            "{:<18} {:>6} {:>7} {:>12} {:>10}\n",
            "pass", "steps", "instrs", "est_cycles", "est_shifts"
        );
        let passes = self.passes.iter().map(|p| (p.pass.as_str(), &p.after));
        for (name, s) in std::iter::once(("(input)", &self.before)).chain(passes) {
            out.push_str(&format!(
                "{name:<18} {:>6} {:>7} {:>12} {:>10}\n",
                s.steps, s.instructions, s.est_device_cycles, s.est_shifts
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

/// Runs an ordered list of passes, snapshotting statistics at each
/// boundary: a pass's `before` is the previous pass's `after`.
pub(crate) struct PassManager {
    pub(crate) ctx: PassContext,
    passes: Vec<Box<dyn Pass>>,
}

impl PassManager {
    /// A manager running `passes` in order on a configuration.
    pub(crate) fn new(config: MemoryConfig, passes: Vec<Box<dyn Pass>>) -> PassManager {
        PassManager {
            ctx: PassContext { config },
            passes,
        }
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
        let mut after = before;
        let mut current = program.clone();
        let mut reports = Vec::with_capacity(self.passes.len());
        for pass in &self.passes {
            let entering = after;
            current = pass.run(current, &self.ctx)?;
            after = ProgramStats::of(&current, &self.ctx.config);
            reports.push(PassReport {
                pass: pass.name().to_string(),
                before: entering,
                after,
            });
        }
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
