//! Golden digests of the device model, recorded from the `Vec<bool>`
//! nanowire model before the bit-plane DBC replaced it: two `core`
//! programs per opcode (64-wire and paper-width DBCs) and three seeded
//! `FaultPlan` campaigns. Every digest folds the data left in the DBCs,
//! the results, the modeled cost (energy as raw `f64` bits) and the
//! injected-fault count, so a layout change that moves one bit, one
//! cycle, one ulp of energy or one RNG draw fails here.
//!
//! The fixture is `tests/fixtures/device_golden.txt`. On a mismatch the
//! test prints the digest it computed; replace the fixture only when a
//! PR means to change modeled behaviour and says so.

use coruscant::core::dispatch::PimMachine;
use coruscant::core::isa::{BlockSize, CpimInstr, CpimOpcode};
use coruscant::mem::{DbcLocation, FaultPlan, MemoryConfig, Row, RowAddress};
use coruscant::qos::SplitMix64;
use coruscant::racetrack::{CostMeter, FaultConfig, OpClass};
use std::fmt::Write as _;

/// FNV-1a over a stream of words.
struct Digest {
    hash: u64,
    /// Operations that returned an error (folded in as their message).
    errors: u64,
}

impl Digest {
    fn new() -> Digest {
        Digest {
            hash: 0xCBF2_9CE4_8422_2325,
            errors: 0,
        }
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn text(&mut self, s: &str) {
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }

    fn error(&mut self, e: &dyn std::fmt::Display) {
        self.errors += 1;
        self.text(&e.to_string());
    }

    fn row(&mut self, row: &Row) {
        self.word(row.width() as u64);
        for w in row.to_u64_words() {
            self.word(w);
        }
    }

    fn meter(&mut self, m: &CostMeter) {
        self.word(m.total().cycles);
        self.word(m.total().energy_pj.to_bits());
        self.word(m.op_count());
        for class in OpClass::ALL {
            self.word(m.class_total(class).cycles);
            self.word(m.class_total(class).energy_pj.to_bits());
        }
    }

    /// Every row and every wire offset of the DBC at `loc`, if it was
    /// ever touched.
    fn dbc(&mut self, machine: &PimMachine, loc: DbcLocation) {
        let Some(dbc) = machine.controller().dbc(loc) else {
            self.text("untouched");
            return;
        };
        for r in 0..dbc.rows() {
            self.row(&dbc.peek_row(r).expect("row in range"));
        }
        for s in dbc.peek_segment_rows() {
            self.row(&s);
        }
        for i in 0..dbc.width() {
            self.word(dbc.wire(i).offset() as u64);
        }
        self.word(dbc.injected_fault_count());
    }
}

fn config(width: usize) -> MemoryConfig {
    MemoryConfig {
        banks: 3,
        nanowires_per_dbc: width,
        ..MemoryConfig::tiny()
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

/// Operand count of the `variant`-th (0 or 1) program of `op`.
fn operands(op: CpimOpcode, variant: usize) -> u8 {
    use CpimOpcode::*;
    match op {
        Not | Relu | Copy => 1,
        Mult | Sub => 2,
        Vote => [3, 5][variant],
        Add => [5, 2][variant],
        Reduce => [7, 4][variant],
        Max => [4, 7][variant],
        Min => [3, 2][variant],
        _ => [7, 3][variant],
    }
}

/// Loads `k` seeded operand rows at `base..`, executes `op` with a
/// write-back, and folds the outcome into `d`.
fn run_instr(
    machine: &mut PimMachine,
    rng: &mut SplitMix64,
    op: CpimOpcode,
    k: u8,
    bs: usize,
    loc: DbcLocation,
    d: &mut Digest,
) {
    let width = machine.controller().config().nanowires_per_dbc;
    let base = 9;
    let mut meter = CostMeter::new();
    // Multiplication needs operands that fit half a lane.
    let value_bits = if op == CpimOpcode::Mult { bs / 2 } else { bs };
    for i in 0..k as usize {
        let values: Vec<u64> = (0..width / bs)
            .map(|_| rng.next_u64() >> (64 - value_bits.min(64)))
            .collect();
        machine
            .controller_mut()
            .store_row(
                RowAddress::new(loc, base + i),
                &Row::pack(width, bs, &values),
                &mut meter,
            )
            .expect("operand row lands");
    }
    let dst = if op == CpimOpcode::Copy {
        RowAddress::new(DbcLocation::new(loc.bank, 0, 0, 1), 9)
    } else {
        RowAddress::new(loc, 27)
    };
    let instr = CpimInstr::new(
        op,
        RowAddress::new(loc, base),
        k,
        BlockSize::new(bs).expect("block size"),
        Some(dst),
    )
    .expect("instruction");
    match machine.execute(&instr) {
        Ok(out) => {
            if let Some(row) = &out.result {
                d.row(row);
            }
            d.word(out.cost.cycles);
            d.word(out.cost.energy_pj.to_bits());
            d.word(out.completion);
        }
        Err(e) => d.error(&e),
    }
    match machine.controller_mut().load_row(dst, &mut meter) {
        Ok(row) => d.row(&row),
        Err(e) => d.error(&e),
    }
    d.meter(&meter);
}

fn finish(machine: &PimMachine, locs: &[DbcLocation], d: &mut Digest) {
    for &loc in locs {
        d.dbc(machine, loc);
    }
    let stats = machine.controller().stats();
    d.word(stats.requests);
    d.word(stats.energy_pj.to_bits());
    d.word(machine.controller().injected_fault_count());
}

/// Two fault-free programs per opcode: 64 wires × 8-bit blocks, then
/// paper width × 16-bit blocks.
fn opcode_digests(out: &mut String) {
    for op in OPCODES {
        for (variant, (width, bs)) in [(64, 8), (512, 16)].into_iter().enumerate() {
            let mut machine = PimMachine::new(config(width));
            let mut rng = SplitMix64::new(0xC0DE + op as u64 * 2 + variant as u64);
            let mut d = Digest::new();
            let loc = DbcLocation::new(variant, 1, 0, 0);
            run_instr(
                &mut machine,
                &mut rng,
                op,
                operands(op, variant),
                bs,
                loc,
                &mut d,
            );
            finish(
                &machine,
                &[loc, DbcLocation::new(loc.bank, 0, 0, 1)],
                &mut d,
            );
            writeln!(out, "{op}/{width} {:016x}", d.hash).unwrap();
        }
    }
}

/// One seeded campaign: rounds of mixed instructions, plain row traffic
/// and bank scrubs on a machine under `plan`.
fn campaign(name: &str, width: usize, plan: FaultPlan, out: &mut String) {
    let mut machine = PimMachine::with_faults(config(width), plan);
    let mut rng = SplitMix64::new(0xFA17 ^ width as u64);
    let mut d = Digest::new();
    let pim = [DbcLocation::new(0, 0, 0, 0), DbcLocation::new(1, 1, 1, 0)];
    // One DBC per bank: recorded when `scrub_bank` still walked a bank's
    // DBCs in hash order, which the energy additions could not depend on.
    let storage = DbcLocation::new(2, 0, 1, 2);
    let ops = [
        CpimOpcode::Add,
        CpimOpcode::Or,
        CpimOpcode::Max,
        CpimOpcode::Mult,
        CpimOpcode::Vote,
        CpimOpcode::Xor,
        CpimOpcode::Sub,
        CpimOpcode::Reduce,
    ];
    let mut traffic = CostMeter::new();
    for round in 0..6 {
        for (i, &op) in ops.iter().enumerate() {
            let k = operands(op, (round + i) % 2);
            run_instr(
                &mut machine,
                &mut rng,
                op,
                k,
                8,
                pim[(round + i) % 2],
                &mut d,
            );
        }
        // Plain row traffic, far rows first so alignment shifts are long.
        for &loc in pim.iter().chain([&storage]) {
            for r in [2, 29, 11, 30, 0] {
                let addr = RowAddress::new(loc, r);
                let words: Vec<u64> = (0..width.div_ceil(64)).map(|_| rng.next_u64()).collect();
                let row = Row::from_u64_words(width, &words);
                if let Err(e) = machine.controller_mut().store_row(addr, &row, &mut traffic) {
                    d.error(&e);
                }
                match machine.controller_mut().load_row(addr, &mut traffic) {
                    Ok(got) => d.row(&got),
                    Err(e) => d.error(&e),
                }
            }
        }
        if round % 2 == 1 {
            for bank in 0..3 {
                match machine.controller_mut().scrub_bank(bank, &mut traffic) {
                    Ok(s) => {
                        d.word(s.wires_checked);
                        d.word(s.realigned);
                        d.word(s.repaired);
                        d.word(s.out_of_range);
                    }
                    Err(e) => d.error(&e),
                }
            }
        }
    }
    d.meter(&traffic);
    finish(&machine, &[pim[0], pim[1], storage], &mut d);
    writeln!(
        out,
        "{name} {:016x} injected={} errors={}",
        d.hash,
        machine.controller().injected_fault_count(),
        d.errors
    )
    .unwrap();
}

#[test]
fn device_model_reproduces_the_recorded_digests() {
    let mut got = String::new();
    opcode_digests(&mut got);
    let tr = FaultConfig::NONE.with_tr_fault_rate(2e-2);
    let shift = FaultConfig::NONE.with_shift_fault_rate(1e-2);
    let both = FaultConfig {
        p_over_shift: 2e-3,
        p_under_shift: 4e-3,
        p_tr_up: 1e-2,
        p_tr_down: 5e-3,
    };
    campaign(
        "campaign/tr",
        64,
        FaultPlan::uniform(tr, 11).unwrap(),
        &mut got,
    );
    campaign(
        "campaign/shift",
        96,
        FaultPlan::uniform(shift, 22).unwrap(),
        &mut got,
    );
    campaign(
        "campaign/mixed",
        512,
        FaultPlan::healthy(33).with_bank(1, both).unwrap(),
        &mut got,
    );
    let want = include_str!("fixtures/device_golden.txt");
    assert!(
        got.trim_end() == want.trim_end(),
        "device model digests moved; computed:\n{got}\nrecorded:\n{want}"
    );
}
