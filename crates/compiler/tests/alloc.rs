//! The pass pipeline allocates in proportion to the program it keeps,
//! not to the analyses it runs: one `Compiler::optimize` of the stack
//! benchmark's `compile_cold` program (five loads, a four-step pairwise
//! AND chain, one readout) stays within a fixed allocation budget.
//!
//! Its own test binary, because it installs a counting global allocator.
//! What remains is the copy of the input, fusion's output vector,
//! dead-step's liveness sets, the scheduler's dependence graph, and the
//! report with its pass names.

use coruscant_compiler::{CompileOptions, Compiler};
use coruscant_core::isa::{BlockSize, CpimInstr, CpimOpcode};
use coruscant_core::program::{PimProgram, Step};
use coruscant_mem::{DbcLocation, MemoryConfig, RowAddress};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Allocation calls (fresh and growing), process-wide.
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call forwards to `System` unchanged; the counter is a
// statistic that no allocation depends on.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What `optimize` may allocate for the program below.
const BUDGET: usize = 50;

/// The `compile_cold` geometry: 8 banks of 2 × 2 tiles, four 64-wire,
/// 32-row DBCs per tile, TRD 7.
fn config() -> MemoryConfig {
    MemoryConfig {
        banks: 8,
        subarrays_per_bank: 2,
        tiles_per_subarray: 2,
        dbcs_per_tile: 4,
        pim_dbcs_per_tile: 1,
        nanowires_per_dbc: 64,
        rows_per_dbc: 32,
        trd: 7,
        bus_mhz: 1000,
        memory_cycle_ns: 1.25,
    }
}

/// A 4-week bitmap query chunk as a pairwise-chain code generator emits
/// it: operand rows 4..=8 folded top-down, the last fold into row 20.
fn chain() -> PimProgram {
    let loc = DbcLocation::new(0, 0, 0, 0);
    let at = |row| RowAddress::new(loc, row);
    let mut steps: Vec<Step> = (0..5u32)
        .map(|k| Step::Load {
            addr: at(4 + k as usize),
            values: vec![0x5a5a_a5a5_0ff0_f00f_u64.rotate_left(7 * k)],
            lane: 64,
        })
        .collect();
    for src in (4..8).rev() {
        let dst = if src == 4 { 20 } else { src };
        let and = CpimInstr::new(
            CpimOpcode::And,
            at(src),
            2,
            BlockSize::new(64).unwrap(),
            Some(at(dst)),
        );
        steps.push(Step::Exec(and.unwrap()));
    }
    steps.push(Step::Readout {
        label: "chunk0".into(),
        addr: at(20),
        lane: 64,
    });
    PimProgram { steps }
}

#[test]
fn optimize_of_the_compile_cold_chain_stays_within_budget() {
    let compiler = Compiler::new(config(), &CompileOptions::default());
    let program = chain();
    let (warm, _) = compiler.optimize(&program).unwrap();
    assert_eq!(warm.instruction_count(), 1, "the chain fuses to one AND");

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = compiler.optimize(&program).unwrap();
    let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
    drop(out);
    println!("optimize made {made} allocations");
    assert!(
        made <= BUDGET,
        "optimize made {made} allocations, budget {BUDGET}"
    );
}
