//! Serving the workloads through the execution runtime: the bitmap query
//! and the matmul kernel expressed as [`PimProgram`] jobs submitted to
//! [`coruscant_runtime::Runtime`].
//!
//! The bitmap query (§V-D) decomposes naturally into one job per
//! DBC-width chunk of the bitmaps — a `(w + 1)`-operand bulk AND plus a
//! result readout — and those chunks are exactly the independent
//! bank-parallel work the paper's high-throughput dispatch overlaps
//! (§V-C). The matmul front end submits one compiled program per matrix
//! pair.

use crate::bitmap::BitmapDataset;
use crate::compile::{compile_matmul, fold_products, PimProgram, ProgramOutcome, Step};
use coruscant_core::isa::{BlockSize, CpimInstr, CpimOpcode};
use coruscant_core::Result;
use coruscant_mem::{DbcLocation, MemoryConfig, RowAddress};
use coruscant_runtime::{run_batch, RuntimeError, RuntimeOptions, RuntimeReport};
use coruscant_server::{
    JobDone, ServeError, Server, ServerError, ServerOptions, ServerStats, SubmitOptions,
};

/// First operand row of a query-chunk program (clear of controller
/// scratch conventions; binding to a unit preserves row offsets).
const OPERAND_BASE: usize = 4;
/// Result row of a query-chunk program.
const RESULT_ROW: usize = 20;

/// A dense row-major matrix of 64-bit words.
pub type Matrix = Vec<Vec<u64>>;
/// One multiplicand pair for [`serve_matmul_batch`].
pub type MatrixPair = (Matrix, Matrix);

/// How the bitmap-query conjunction is emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryPlan {
    /// One multi-operand AND resolves the whole conjunction in a single
    /// transverse read (CORUSCANT-native emission, §III-B).
    #[default]
    Fused,
    /// A pairwise accumulator chain, one 2-operand AND per week — the
    /// instruction stream a conventional bulk-bitwise PIM (Ambit-style)
    /// code generator produces. The chain folds *downward* (each step
    /// accumulates in place, consuming operand rows top to bottom) so the
    /// placement residue each bulk op leaves lands only on rows already
    /// consumed. The `coruscant-compiler` TR-fusion pass collapses this
    /// back to the fused form.
    PairwiseChain,
}

/// Compiles the `w`-week bitmap query into one program per DBC-width
/// chunk: load `w + 1` operand rows, resolve the conjunction per `plan`,
/// read the result row back for the population count.
///
/// # Errors
///
/// Returns an ISA error if `w + 1` operands exceed what one instruction
/// encodes.
pub fn compile_bitmap_query_with(
    dataset: &BitmapDataset,
    w: usize,
    config: &MemoryConfig,
    plan: QueryPlan,
) -> Result<Vec<PimProgram>> {
    let operands = dataset.operands(w);
    let width = config.nanowires_per_dbc;
    let chunks = dataset.users().div_ceil(width);
    let loc = DbcLocation::new(0, 0, 0, 0); // nominal; the executor binds it to a unit
    let bs = BlockSize::new(64.min(width))?;

    let mut programs = Vec::with_capacity(chunks);
    for c in 0..chunks {
        let mut steps = Vec::with_capacity(operands.len() + 2);
        for (k, words) in operands.iter().enumerate() {
            steps.push(Step::Load {
                addr: RowAddress::new(loc, OPERAND_BASE + k),
                values: chunk_words(words, c, width, dataset.users()),
                lane: 64,
            });
        }
        match plan {
            QueryPlan::Fused => {
                steps.push(Step::Exec(CpimInstr::new(
                    CpimOpcode::And,
                    RowAddress::new(loc, OPERAND_BASE),
                    operands.len() as u8,
                    bs,
                    Some(RowAddress::new(loc, RESULT_ROW)),
                )?));
            }
            QueryPlan::PairwiseChain => {
                // Fold rows pairwise from the top down, accumulating in
                // place so each op's placement residue only hits rows
                // already consumed; the last pair lands on the result row.
                let n = operands.len();
                for j in 0..n - 1 {
                    let src = OPERAND_BASE + n - 2 - j;
                    let dst = if j == n - 2 { RESULT_ROW } else { src };
                    steps.push(Step::Exec(CpimInstr::new(
                        CpimOpcode::And,
                        RowAddress::new(loc, src),
                        2,
                        bs,
                        Some(RowAddress::new(loc, dst)),
                    )?));
                }
            }
        }
        steps.push(Step::Readout {
            label: format!("chunk{c}"),
            addr: RowAddress::new(loc, RESULT_ROW),
            lane: 64,
        });
        programs.push(PimProgram { steps });
    }
    Ok(programs)
}

/// [`compile_bitmap_query_with`] using the native fused plan.
///
/// # Errors
///
/// Returns an ISA error if `w + 1` operands exceed what one instruction
/// encodes.
pub fn compile_bitmap_query(
    dataset: &BitmapDataset,
    w: usize,
    config: &MemoryConfig,
) -> Result<Vec<PimProgram>> {
    compile_bitmap_query_with(dataset, w, config, QueryPlan::Fused)
}

/// The 64-bit words of one DBC-width chunk of a bitmap, with bits past
/// `total_bits` masked off.
fn chunk_words(words: &[u64], chunk: usize, width: usize, total_bits: usize) -> Vec<u64> {
    let lanes = width.div_ceil(64);
    (0..lanes)
        .map(|lane| {
            let mut out = 0u64;
            for bit in 0..64 {
                let global = chunk * width + lane * 64 + bit;
                if global < total_bits && (words[global / 64] >> (global % 64)) & 1 == 1 {
                    out |= 1 << bit;
                }
            }
            out
        })
        .collect()
}

/// Runs the `w`-week query through the runtime — one job per chunk,
/// placed by the runtime's dispatch mode — and returns the matching-user
/// count with the runtime report (modeled makespan, per-bank occupancy).
///
/// # Errors
///
/// Propagates compilation and runtime errors.
pub fn serve_bitmap_query(
    dataset: &BitmapDataset,
    w: usize,
    config: &MemoryConfig,
    options: RuntimeOptions,
) -> std::result::Result<(u64, RuntimeReport), RuntimeError> {
    serve_bitmap_query_with(dataset, w, config, options, QueryPlan::Fused)
}

/// [`serve_bitmap_query`] with an explicit emission plan. A
/// [`QueryPlan::PairwiseChain`] submission exercises the runtime's
/// on-enqueue compiler: with compilation enabled the chains are fused
/// back to multi-operand TRs before they reach the scheduler.
///
/// # Errors
///
/// Propagates compilation and runtime errors.
pub fn serve_bitmap_query_with(
    dataset: &BitmapDataset,
    w: usize,
    config: &MemoryConfig,
    options: RuntimeOptions,
    plan: QueryPlan,
) -> std::result::Result<(u64, RuntimeReport), RuntimeError> {
    let programs =
        compile_bitmap_query_with(dataset, w, config, plan).map_err(RuntimeError::Pim)?;
    let report = run_batch(config, programs, options)?;
    let count = report
        .outcomes
        .iter()
        .flat_map(|o| &o.outputs)
        .flat_map(|(_, words)| words)
        .map(|w| w.count_ones() as u64)
        .sum();
    Ok((count, report))
}

/// Runs a batch of `n × n` matrix multiplies through the runtime — one
/// job per pair — and returns the result matrices (in input order) with
/// the report.
///
/// # Errors
///
/// Propagates compilation and runtime errors.
pub fn serve_matmul_batch(
    pairs: &[MatrixPair],
    config: &MemoryConfig,
    options: RuntimeOptions,
) -> std::result::Result<(Vec<Matrix>, RuntimeReport), RuntimeError> {
    let programs = pairs
        .iter()
        .map(|(a, b)| compile_matmul(a, b, config))
        .collect::<Result<Vec<_>>>()
        .map_err(RuntimeError::Pim)?;
    let report = run_batch(config, programs, options)?;
    let results = report
        .outcomes
        .iter()
        .zip(pairs)
        .map(|(out, (a, _))| {
            let outcome = ProgramOutcome {
                outputs: out.outputs.clone(),
                device_cycles: out.device_cycles,
                completion: out.completion,
            };
            fold_products(&outcome, a.len())
        })
        .collect();
    Ok((results, report))
}

/// A streamed serving run that could not deliver every member's result.
#[derive(Debug)]
pub enum ServeStreamError {
    /// Starting or draining the serving frontend failed.
    Server(ServerError),
    /// One stream member resolved without outputs (shed, expired,
    /// cancelled, or failed in execution). Only possible when the caller
    /// enabled admission control or deadlines; the default deterministic
    /// configuration completes every member.
    Member {
        /// The member's position in the submitted workload.
        index: usize,
        /// Why it produced no result.
        error: ServeError,
    },
}

impl std::fmt::Display for ServeStreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeStreamError::Server(e) => write!(f, "serving frontend: {e}"),
            ServeStreamError::Member { index, error } => {
                write!(f, "stream member {index}: {error}")
            }
        }
    }
}

impl std::error::Error for ServeStreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeStreamError::Server(e) => Some(e),
            ServeStreamError::Member { error, .. } => Some(error),
        }
    }
}

impl From<ServerError> for ServeStreamError {
    fn from(e: ServerError) -> ServeStreamError {
        ServeStreamError::Server(e)
    }
}

/// Serves a workload through the async frontend: starts a [`Server`],
/// submits every program as one ordered stream, collects the per-job
/// results as the banks retire them, and drains. Returns the results in
/// submission order with the final balanced [`ServerStats`].
///
/// With admission control disabled (the [`ServerOptions`] default) this
/// is the deterministic serving path: its outputs are bit-identical to a
/// direct [`run_batch`] over the same programs. Note the submission is
/// blocking in that mode — a paused runtime whose queue is smaller than
/// the workload will deadlock, so pair `start_paused` only with
/// admission control.
///
/// # Errors
///
/// [`ServeStreamError::Server`] on start/drain failure,
/// [`ServeStreamError::Member`] on the first member without a result.
pub fn serve_programs_streamed(
    config: &MemoryConfig,
    programs: Vec<PimProgram>,
    options: ServerOptions,
) -> std::result::Result<(Vec<JobDone>, ServerStats), ServeStreamError> {
    let server = Server::start(config.clone(), options)?;
    let client = server.client();
    let stream = client.submit_stream(programs, SubmitOptions::default());
    let mut results = Vec::with_capacity(stream.remaining());
    for (index, completion) in stream.enumerate() {
        match completion {
            Ok(done) => results.push(done),
            // The dropped server drains the runtime before the error
            // propagates, so no threads are left behind.
            Err(error) => return Err(ServeStreamError::Member { index, error }),
        }
    }
    let stats = server.shutdown()?;
    Ok((results, stats))
}

/// [`serve_bitmap_query`] routed through the async serving frontend:
/// chunk results stream back as banks retire them and the count
/// accumulates in submission order.
///
/// # Errors
///
/// Propagates compilation failures and [`serve_programs_streamed`]
/// errors.
pub fn serve_bitmap_query_streamed(
    dataset: &BitmapDataset,
    w: usize,
    config: &MemoryConfig,
    options: ServerOptions,
    plan: QueryPlan,
) -> std::result::Result<(u64, ServerStats), ServeStreamError> {
    let programs = compile_bitmap_query_with(dataset, w, config, plan)
        .map_err(|e| ServeStreamError::Server(ServerError::Runtime(RuntimeError::Pim(e))))?;
    let (results, stats) = serve_programs_streamed(config, programs, options)?;
    let count = results
        .iter()
        .flat_map(|d| &d.outputs)
        .flat_map(|(_, words)| words)
        .map(|w| w.count_ones() as u64)
        .sum();
    Ok((count, stats))
}

/// [`serve_matmul_batch`] routed through the async serving frontend.
///
/// # Errors
///
/// Propagates compilation failures and [`serve_programs_streamed`]
/// errors.
pub fn serve_matmul_batch_streamed(
    pairs: &[MatrixPair],
    config: &MemoryConfig,
    options: ServerOptions,
) -> std::result::Result<(Vec<Matrix>, ServerStats), ServeStreamError> {
    let programs = pairs
        .iter()
        .map(|(a, b)| compile_matmul(a, b, config))
        .collect::<Result<Vec<_>>>()
        .map_err(|e| ServeStreamError::Server(ServerError::Runtime(RuntimeError::Pim(e))))?;
    let (results, stats) = serve_programs_streamed(config, programs, options)?;
    let matrices = results
        .iter()
        .zip(pairs)
        .map(|(done, (a, _))| {
            let outcome = ProgramOutcome {
                outputs: done.outputs.clone(),
                device_cycles: 0,
                completion: 0,
            };
            fold_products(&outcome, a.len())
        })
        .collect();
    Ok((matrices, stats))
}

/// Every program the workload front ends emit, for the given config:
/// each bitmap query width under both emission plans, plus a small
/// matmul. Used to differentially verify the compiler pipeline (and the
/// runtime's same-bank batch fusion) over the full program corpus.
///
/// # Panics
///
/// Panics if the fixed corpus fails to compile under `config` — only
/// possible with a geometry too small for the built-in shapes.
#[must_use]
pub fn all_workload_programs(config: &MemoryConfig) -> Vec<PimProgram> {
    let ds = BitmapDataset::generate(300, 4, 11);
    let mut programs = Vec::new();
    for w in 1..=4 {
        programs.extend(compile_bitmap_query_with(&ds, w, config, QueryPlan::Fused).unwrap());
        programs
            .extend(compile_bitmap_query_with(&ds, w, config, QueryPlan::PairwiseChain).unwrap());
    }
    let n = 3;
    let a: Matrix = (0..n)
        .map(|i| (0..n).map(|j| ((i * 5 + j * 3) % 100) as u64).collect())
        .collect();
    let b: Matrix = (0..n)
        .map(|i| (0..n).map(|j| ((i * 7 + j * 11) % 100) as u64).collect())
        .collect();
    programs.push(compile_matmul(&a, &b, config).unwrap());
    programs
}

#[cfg(test)]
mod tests {
    use super::*;
    use coruscant_compiler::{CompileOptions, Compiler, VerifyOutcome};
    use coruscant_runtime::DispatchMode;

    #[test]
    fn every_workload_program_passes_differential_verification() {
        let config = MemoryConfig::tiny();
        let compiler = Compiler::new(config.clone(), &CompileOptions::default());
        for (i, program) in all_workload_programs(&config).iter().enumerate() {
            let (optimized, _) = compiler
                .optimize(program)
                .unwrap_or_else(|e| panic!("program {i}: {e}"));
            assert_eq!(
                coruscant_compiler::differential_verify(program, &optimized, &config)
                    .unwrap_or_else(|e| panic!("program {i}: {e}")),
                VerifyOutcome::Match,
                "program {i}"
            );
        }
    }

    #[test]
    fn chain_queries_fuse_on_enqueue() {
        let config = MemoryConfig::tiny();
        let ds = BitmapDataset::generate(1000, 4, 42);
        let w = 4;
        // Verification on — every optimized chunk is proven
        // output-equivalent as it is submitted.
        let options =
            RuntimeOptions::default().with_compile(CompileOptions::default().with_verify(true));
        let (count, report) =
            serve_bitmap_query_with(&ds, w, &config, options, QueryPlan::PairwiseChain).unwrap();
        assert_eq!(count, ds.reference_count(w));
        let chunks = 1000usize.div_ceil(64) as u64;
        // w+1 = 5 operands: the 4-instruction chain fuses to 1 TR.
        assert_eq!(report.stats.instructions, chunks);
        assert_eq!(report.stats.optimized_jobs, chunks);
        assert_eq!(report.stats.instructions_eliminated, 3 * chunks);
        assert!(report.stats.est_device_cycles_saved > 0);

        // Same chains submitted verbatim: correct too, but 4 TRs each.
        let raw = RuntimeOptions::default().with_compile(CompileOptions::disabled());
        let (raw_count, raw_report) =
            serve_bitmap_query_with(&ds, w, &config, raw, QueryPlan::PairwiseChain).unwrap();
        assert_eq!(raw_count, ds.reference_count(w));
        assert_eq!(raw_report.stats.instructions, 4 * chunks);
        assert_eq!(raw_report.stats.optimized_jobs, 0);
        assert!(
            report.stats.device_cycles < raw_report.stats.device_cycles,
            "fusion saves measured device cycles: {} < {}",
            report.stats.device_cycles,
            raw_report.stats.device_cycles
        );
    }

    #[test]
    fn served_bitmap_query_matches_reference() {
        let config = MemoryConfig::tiny();
        let ds = BitmapDataset::generate(1000, 4, 42);
        for w in 1..=4 {
            let (count, report) =
                serve_bitmap_query(&ds, w, &config, RuntimeOptions::default()).unwrap();
            assert_eq!(count, ds.reference_count(w), "w={w}");
            assert_eq!(report.stats.jobs as usize, 1000usize.div_ceil(64));
        }
    }

    #[test]
    fn circular_chunks_overlap_single_bank_serializes() {
        let config = MemoryConfig::tiny(); // 2 banks
        let ds = BitmapDataset::generate(1000, 3, 7);
        let circular = serve_bitmap_query(
            &ds,
            3,
            &config,
            RuntimeOptions::default().with_dispatch(DispatchMode::Circular),
        )
        .unwrap()
        .1;
        let serial = serve_bitmap_query(
            &ds,
            3,
            &config,
            RuntimeOptions::default().with_dispatch(DispatchMode::SingleBank),
        )
        .unwrap()
        .1;
        assert!(
            circular.stats.makespan_cycles < serial.stats.makespan_cycles,
            "circular {} vs single-bank {}",
            circular.stats.makespan_cycles,
            serial.stats.makespan_cycles
        );
        let busy_banks = circular
            .stats
            .per_bank
            .iter()
            .filter(|b| b.jobs > 0)
            .count();
        assert_eq!(busy_banks, config.banks, "chunks spread over both banks");
    }

    #[test]
    fn served_matmul_batch_matches_reference() {
        let config = MemoryConfig::tiny();
        let pairs: Vec<MatrixPair> = (0..4)
            .map(|t| {
                let n = 3;
                let a = (0..n)
                    .map(|i| {
                        (0..n)
                            .map(|j| ((t * 13 + i * 5 + j * 3) % 100) as u64)
                            .collect()
                    })
                    .collect();
                let b = (0..n)
                    .map(|i| {
                        (0..n)
                            .map(|j| ((t * 11 + i * 7 + j * 2) % 100) as u64)
                            .collect()
                    })
                    .collect();
                (a, b)
            })
            .collect();
        let (results, report) =
            serve_matmul_batch(&pairs, &config, RuntimeOptions::default()).unwrap();
        assert_eq!(report.stats.jobs, 4);
        for (t, (a, b)) in pairs.iter().enumerate() {
            let n = a.len();
            for i in 0..n {
                for j in 0..n {
                    let want: u64 = (0..n).map(|k| a[i][k] * b[k][j]).sum();
                    assert_eq!(results[t][i][j], want, "pair {t} C[{i}][{j}]");
                }
            }
        }
    }

    #[test]
    fn streamed_bitmap_query_matches_reference_and_balances() {
        let config = MemoryConfig::tiny();
        let ds = BitmapDataset::generate(1000, 4, 42);
        let (count, stats) = serve_bitmap_query_streamed(
            &ds,
            3,
            &config,
            ServerOptions::default(),
            QueryPlan::Fused,
        )
        .unwrap();
        assert_eq!(count, ds.reference_count(3));
        let chunks = 1000u64.div_ceil(64);
        assert_eq!(stats.submitted, chunks);
        assert_eq!(stats.completed, chunks);
        assert!(stats.balanced(), "{stats:?}");
    }

    #[test]
    fn streamed_matmul_matches_reference() {
        let config = MemoryConfig::tiny();
        let n = 3;
        let a: Matrix = (0..n)
            .map(|i| (0..n).map(|j| ((i * 5 + j * 3) % 100) as u64).collect())
            .collect();
        let b: Matrix = (0..n)
            .map(|i| (0..n).map(|j| ((i * 7 + j * 11) % 100) as u64).collect())
            .collect();
        let pairs = vec![(a.clone(), b.clone()); 3];
        let (results, stats) =
            serve_matmul_batch_streamed(&pairs, &config, ServerOptions::default()).unwrap();
        assert_eq!(stats.completed, 3);
        for (t, result) in results.iter().enumerate() {
            for i in 0..n {
                for j in 0..n {
                    let want: u64 = (0..n).map(|k| a[i][k] * b[k][j]).sum();
                    assert_eq!(result[i][j], want, "pair {t} C[{i}][{j}]");
                }
            }
        }
    }

    #[test]
    fn served_query_stays_correct_under_faults_with_protection() {
        use coruscant_mem::FaultPlan;
        use coruscant_racetrack::FaultConfig;
        use coruscant_runtime::{HealthPolicy, ProtectionPolicy};

        let config = MemoryConfig::tiny();
        let ds = BitmapDataset::generate(1000, 3, 11);
        // Uniform accelerated TR faults on every bank: don't quarantine,
        // just detect and retry until each chunk verifies.
        let plan = FaultPlan::uniform(FaultConfig::NONE.with_tr_fault_rate(2e-3), 0xFA117).unwrap();
        let health = HealthPolicy {
            suspect_after: 10_000,
            quarantine_after: 100_000,
            scrub_on_suspect: false,
            ..HealthPolicy::default()
        };
        let options = RuntimeOptions::default()
            .with_faults(plan)
            .with_health(health)
            .with_protection(ProtectionPolicy::Reexecute { max_retries: 6 });
        let (count, report) = serve_bitmap_query(&ds, 3, &config, options).unwrap();
        assert_eq!(count, ds.reference_count(3), "protected count is exact");
        assert_eq!(report.stats.faults.unverified_jobs, 0);
        assert_eq!(
            report.stats.faults.protected_jobs,
            1000u64.div_ceil(64),
            "every chunk ran protected"
        );
    }
}
