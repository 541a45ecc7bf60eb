//! The pass pipeline's output is pinned: for each corpus, an FNV-1a
//! digest of the `Debug` text of every `(optimized program,
//! PipelineReport)` that `Compiler::optimize` returns under
//! `CompileOptions::default()`. A change that means to make the compiler
//! cheaper, not different, leaves every digest where it is.
//!
//! The same corpora check the report's shape: each pass starts from the
//! statistics the previous one left, and the pipeline's own before/after
//! are the first pass's before and the last pass's after.

use coruscant::compiler::{CompileOptions, Compiler, PipelineReport};
use coruscant::core::dispatch::PimMachine;
use coruscant::core::isa::{BlockSize, CpimInstr, CpimOpcode};
use coruscant::core::program::{execute_on, PimProgram, Step};
use coruscant::mem::{DbcLocation, MemoryConfig, RowAddress};
use coruscant::nn::infer::{proxy_lenet5, synth_image, synth_weights};
use coruscant::nn::quant::Precision;
use coruscant::pipeline::Pipeline;
use coruscant::runtime::{ProgramSource, ResidentPin};
use coruscant::workloads::bitmap::BitmapDataset;
use coruscant::workloads::compile::compile_matmul;
use coruscant::workloads::serve::{all_workload_programs, compile_bitmap_query_with, QueryPlan};

/// The stack benchmark's geometry: `banks` banks of 2 × 2 tiles, four
/// 32-row DBCs per tile (one PIM), TRD 7.
fn geometry(banks: usize, wires: usize) -> MemoryConfig {
    MemoryConfig {
        banks,
        subarrays_per_bank: 2,
        tiles_per_subarray: 2,
        dbcs_per_tile: 4,
        pim_dbcs_per_tile: 1,
        nanowires_per_dbc: wires,
        rows_per_dbc: 32,
        trd: 7,
        bus_mhz: 1000,
        memory_cycle_ns: 1.25,
    }
}

/// 64-bit FNV-1a, streamed.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Checks the report's pass boundaries line up.
fn check_boundaries(report: &PipelineReport, corpus: &str, index: usize) {
    let passes = &report.passes;
    assert_eq!(passes.len(), 4, "{corpus}[{index}]: the standard pipeline");
    for k in 1..passes.len() {
        assert_eq!(
            passes[k].before,
            passes[k - 1].after,
            "{corpus}[{index}]: {} starts where {} ended",
            passes[k].pass,
            passes[k - 1].pass
        );
    }
    assert_eq!(report.before, passes[0].before, "{corpus}[{index}]: input");
    assert_eq!(
        report.after,
        passes[passes.len() - 1].after,
        "{corpus}[{index}]: output"
    );
}

/// Optimizes every program, checks each report's boundaries, and
/// returns the corpus digest.
fn digest(config: &MemoryConfig, programs: &[PimProgram], corpus: &str) -> u64 {
    let compiler = Compiler::new(config.clone(), &CompileOptions::default());
    let mut h = Fnv::new();
    for (i, program) in programs.iter().enumerate() {
        let (optimized, report) = compiler.optimize(program).expect("corpus compiles");
        check_boundaries(&report, corpus, i);
        h.write(format!("{:?}", (&optimized, &report)).as_bytes());
    }
    h.0
}

/// `compile_cold`'s programs: distinct 4-week pairwise AND chains.
fn bitmap_chains(config: &MemoryConfig) -> Vec<PimProgram> {
    let dataset = BitmapDataset::generate(64 * 1_024, 4, 0x5EED);
    compile_bitmap_query_with(&dataset, 4, config, QueryPlan::PairwiseChain).unwrap()
}

/// xorshift64*: a seeded stream for the synthetic corpus.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const OPCODES: [CpimOpcode; 16] = [
    CpimOpcode::And,
    CpimOpcode::Nand,
    CpimOpcode::Or,
    CpimOpcode::Nor,
    CpimOpcode::Xor,
    CpimOpcode::Xnor,
    CpimOpcode::Not,
    CpimOpcode::Add,
    CpimOpcode::Reduce,
    CpimOpcode::Mult,
    CpimOpcode::Max,
    CpimOpcode::Relu,
    CpimOpcode::Vote,
    CpimOpcode::Copy,
    CpimOpcode::Sub,
    CpimOpcode::Min,
];

/// Seeded programs over every step kind and opcode on one to three DBCs:
/// identity-constant loads for const-fold, descending chains for fusion,
/// unread results for dead-step, scattered rows for the scheduler.
fn synthetic_programs(count: usize) -> Vec<PimProgram> {
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let instr = |op, loc, src, k: usize, bs, dst: Option<usize>| {
        let at = |row| RowAddress::new(loc, row);
        Step::Exec(CpimInstr::new(op, at(src), k as u8, bs, dst.map(at)).unwrap())
    };
    (0..count)
        .map(|_| {
            let dbcs = 1 + rng.below(3);
            let len = 4 + rng.below(28);
            let mut steps = Vec::with_capacity(len + 8);
            while steps.len() < len {
                let loc = DbcLocation::new(0, 0, 0, rng.below(dbcs));
                let row = rng.below(32);
                let bs = BlockSize::new(8 << rng.below(4)).unwrap();
                match rng.below(8) {
                    0..=2 => {
                        let v = match rng.below(3) {
                            0 => u64::MAX,
                            1 => 0,
                            _ => rng.next(),
                        };
                        steps.push(Step::Load {
                            addr: RowAddress::new(loc, row),
                            values: vec![v],
                            lane: 64,
                        });
                    }
                    3 => steps.push(Step::Readout {
                        label: format!("r{}", steps.len()),
                        addr: RowAddress::new(loc, row),
                        lane: 64,
                    }),
                    4 => {
                        let op = OPCODES[[0, 2, 4][rng.below(3)]];
                        let n = 3 + rng.below(7);
                        let base = rng.below(32 - n);
                        let dst = rng.below(32);
                        for j in 0..n - 1 {
                            let src = base + n - 2 - j;
                            let d = if j == n - 2 { dst } else { src };
                            steps.push(instr(op, loc, src, 2, bs, Some(d)));
                        }
                    }
                    _ => {
                        let k = 1 + rng.below(7);
                        let src = rng.below(33 - k);
                        let dst = (rng.below(4) != 0).then(|| rng.below(32));
                        steps.push(instr(OPCODES[rng.below(16)], loc, src, k, bs, dst));
                    }
                }
            }
            PimProgram { steps }
        })
        .collect()
}

/// `program` moved onto `unit`'s tile, DBC index and row kept.
fn relocate_to_tile(program: &PimProgram, unit: DbcLocation) -> PimProgram {
    let mut program = program.clone();
    for step in &mut program.steps {
        let mv = |a: &mut RowAddress| {
            a.location = DbcLocation::new(unit.bank, unit.subarray, unit.tile, a.location.dbc);
        };
        match step {
            Step::Load { addr, .. } | Step::Readout { addr, .. } => mv(addr),
            Step::Exec(i) => {
                mv(&mut i.src);
                if let Some(d) = i.dst.as_mut() {
                    mv(d);
                }
            }
        }
    }
    program
}

/// One LeNet-proxy frame's pin and layer programs at `precision`,
/// relocated to their tiles and chained through a bare machine: each
/// deferred layer is built from its predecessor's outputs.
fn lenet_frame(config: &MemoryConfig, precision: Precision) -> Vec<PimProgram> {
    let net = proxy_lenet5();
    let layers = net.layers.len();
    let weights = synth_weights(&net, precision, 3);
    let image = synth_image(&net, 0);
    let pipeline = Pipeline::new(config, net, weights, 0).expect("pipeline fits");
    let mut machine = PimMachine::new(config.clone());
    let units: Vec<DbcLocation> = (0..layers)
        .map(|li| machine.controller().pim_unit(pipeline.unit_for(li)))
        .collect();
    let mut programs: Vec<PimProgram> = pipeline
        .pin_programs()
        .iter()
        .zip(&units)
        .map(|(p, &u)| relocate_to_tile(p, u))
        .collect();
    for p in &programs {
        execute_on(p, &mut machine).expect("pin program executes");
    }
    let receipts: Vec<ResidentPin> = (0..layers as u64)
        .map(|k| ResidentPin { res: k, job: k })
        .collect();
    let chain = pipeline.lower(&image, &receipts).expect("frame lowers");
    let mut previous = Vec::new();
    for (member, &u) in chain.into_iter().zip(&units) {
        let program = match member.source {
            ProgramSource::Ready(p) => p,
            ProgramSource::Deferred { build, .. } => {
                build(&[previous]).expect("binder builds the layer")
            }
        };
        let program = relocate_to_tile(&program, u);
        previous = execute_on(&program, &mut machine)
            .expect("layer program executes")
            .outputs;
        programs.push(program);
    }
    programs
}

#[test]
fn optimized_programs_and_reports_match_the_recorded_digests() {
    let cold = geometry(8, 64);
    let wide = geometry(8, 512);
    let a: Vec<Vec<u64>> = (0..3)
        .map(|i| (0..3).map(|j| (i * 9 + j * 4 + 1) % 97).collect())
        .collect();
    let b: Vec<Vec<u64>> = (0..3)
        .map(|i| (0..3).map(|j| (i * 13 + j * 6 + 2) % 89).collect())
        .collect();
    let lenet = geometry(4, 64);
    let got = [
        (
            "synthetic",
            digest(&cold, &synthetic_programs(1_000), "synthetic"),
        ),
        (
            "bitmap_chains",
            digest(&cold, &bitmap_chains(&cold), "chains"),
        ),
        (
            "workloads_64",
            digest(&cold, &all_workload_programs(&cold), "workloads_64"),
        ),
        (
            "workloads_512",
            digest(&wide, &all_workload_programs(&wide), "workloads_512"),
        ),
        (
            "matmul_3x3",
            digest(&cold, &[compile_matmul(&a, &b, &cold).unwrap()], "matmul"),
        ),
        (
            "lenet_full",
            digest(&lenet, &lenet_frame(&lenet, Precision::Full), "lenet_full"),
        ),
        (
            "lenet_bwn",
            digest(&lenet, &lenet_frame(&lenet, Precision::Bwn), "lenet_bwn"),
        ),
        (
            "lenet_twn",
            digest(&lenet, &lenet_frame(&lenet, Precision::Twn), "lenet_twn"),
        ),
    ];
    // A digest moves only with what the compiler emits or reports.
    let want: [(&str, u64); 8] = [
        ("synthetic", 0xff43a09ea65dbd08),
        ("bitmap_chains", 0x0eb18aba107db1db),
        ("workloads_64", 0x3a6f2a046b381cc0),
        ("workloads_512", 0xc59ae4b2a0a7152a),
        ("matmul_3x3", 0x465ed259afec4e6a),
        ("lenet_full", 0xfd623581c7673f5e),
        ("lenet_bwn", 0xf1d619548adf972d),
        ("lenet_twn", 0x4f12eedf480cd285),
    ];
    for ((name, g), (_, w)) in got.iter().zip(&want) {
        assert_eq!(g, w, "{name}: got {g:#018x}");
    }
}
