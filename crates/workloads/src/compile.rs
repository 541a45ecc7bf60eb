//! A small `cpim` compiler: lowering arithmetic kernels to instruction
//! streams (paper §III-E: "these cpim operations can be generated by the
//! compiler either automatically or through user directives").
//!
//! The compiler plans data placement in a PIM-enabled DBC — staging
//! operands *above* the multiplier's scratch region (rows `0..=TRD` form
//! the reduction window and the rows above it the partial-product pool) —
//! and emits an interleaved program of loads and `cpim` instructions. The
//! program/step model itself lives in
//! [`coruscant_core::program`] (re-exported here) so the execution
//! runtime can schedule programs without depending on this crate. A
//! matrix-multiply front end demonstrates the flow end to end.

use coruscant_core::isa::{BlockSize, CpimInstr, CpimOpcode};
use coruscant_core::Result;
use coruscant_mem::{DbcLocation, MemoryConfig, RowAddress};

pub use coruscant_core::program::{execute, execute_on, PimProgram, ProgramOutcome, Step};

/// Compiles an `n × n` 8-bit matrix multiply `C = A·B` into a `cpim`
/// program: per output element, one lane-parallel `mult` over the staged
/// operand rows (lane `k` computes `a[i][k] · b[k][j]`), with the product
/// row read out for the row-buffer horizontal fold.
///
/// Staging rows sit above the multiplier scratch (window rows
/// `0..=TRD`, partial-product pool above that), so repeated instructions
/// never corrupt live data.
///
/// # Errors
///
/// Returns a width error if `n` exceeds the row's 16-bit lane count.
pub fn compile_matmul(a: &[Vec<u64>], b: &[Vec<u64>], config: &MemoryConfig) -> Result<PimProgram> {
    let n = a.len();
    let lane = 16; // 8-bit operands, 16-bit products
    let lanes = config.nanowires_per_dbc / lane;
    if n > lanes {
        return Err(coruscant_core::PimError::WidthOverflow {
            bits: n * lane,
            lane: config.nanowires_per_dbc,
        });
    }
    let bs = BlockSize::new(lane)?;
    let pim = DbcLocation::new(0, 0, 0, 0);
    // Multiplier scratch: rows 0..=trd (window + C' slot) and the PP pool
    // at trd+1 .. trd+1+bits+1. Stage operands and products above that.
    let scratch_top = config.trd + 1 + 8 + 1;
    let op_a = scratch_top + 1;
    let op_b = scratch_top + 2;
    let prod = scratch_top + 3;
    debug_assert!(prod < config.rows_per_dbc);

    let mut program = PimProgram::default();
    for (i, a_row) in a.iter().enumerate() {
        // Column gathers of b index by j; a range loop reads clearest here.
        #[allow(clippy::needless_range_loop)]
        for j in 0..n {
            let av: Vec<u64> = a_row[..n].to_vec();
            let bv: Vec<u64> = (0..n).map(|k| b[k][j]).collect();
            program.steps.push(Step::Load {
                addr: RowAddress::new(pim, op_a),
                values: av,
                lane,
            });
            program.steps.push(Step::Load {
                addr: RowAddress::new(pim, op_b),
                values: bv,
                lane,
            });
            program.steps.push(Step::Exec(CpimInstr::new(
                CpimOpcode::Mult,
                RowAddress::new(pim, op_a),
                2,
                bs,
                Some(RowAddress::new(pim, prod)),
            )?));
            program.steps.push(Step::Readout {
                label: format!("c[{i}][{j}]"),
                addr: RowAddress::new(pim, prod),
                lane,
            });
        }
    }
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrices(n: usize) -> (Vec<Vec<u64>>, Vec<Vec<u64>>) {
        let a: Vec<Vec<u64>> = (0..n)
            .map(|i| (0..n).map(|j| ((i * 5 + j * 3) % 200) as u64).collect())
            .collect();
        let b: Vec<Vec<u64>> = (0..n)
            .map(|i| (0..n).map(|j| ((i * 7 + j * 11) % 200) as u64).collect())
            .collect();
        (a, b)
    }

    #[test]
    fn compiled_matmul_matches_reference() {
        let config = MemoryConfig::tiny();
        let n = 4;
        let (a, b) = matrices(n);
        let program = compile_matmul(&a, &b, &config).unwrap();
        assert_eq!(program.instruction_count(), n * n, "one mult per element");
        let outcome = execute(&program, &config).unwrap();
        assert_eq!(outcome.outputs.len(), n * n);
        for (e, (label, lanes)) in outcome.outputs.iter().enumerate() {
            let (i, j) = (e / n, e % n);
            assert_eq!(label, &format!("c[{i}][{j}]"));
            // The row buffer's read-out sums the element's product lanes.
            let want: u64 = (0..n).map(|k| a[i][k] * b[k][j]).sum();
            assert_eq!(lanes[..n].iter().sum::<u64>(), want, "C[{i}][{j}]");
        }
        assert!(outcome.device_cycles > 0);
        assert!(outcome.completion > 0);
    }

    #[test]
    fn programs_roundtrip_through_the_trace_encoding() {
        let config = MemoryConfig::tiny();
        let (a, b) = matrices(3);
        let program = compile_matmul(&a, &b, &config).unwrap();
        let words = program.encode_instructions();
        let decoded = PimProgram::decode_instructions(&words).unwrap();
        let original: Vec<CpimInstr> = program
            .steps
            .iter()
            .filter_map(|s| match s {
                Step::Exec(i) => Some(*i),
                _ => None,
            })
            .collect();
        assert_eq!(decoded, original);
    }

    #[test]
    fn oversized_matrices_rejected() {
        let config = MemoryConfig::tiny(); // 4 lanes of 16 bits
        let n = 5;
        let (a, b) = matrices(n);
        assert!(compile_matmul(&a, &b, &config).is_err());
    }

    #[test]
    fn empty_program_executes() {
        let config = MemoryConfig::tiny();
        let program = PimProgram::default();
        assert!(program.is_empty());
        let outcome = execute(&program, &config).unwrap();
        assert_eq!(outcome.device_cycles, 0);
    }
}
