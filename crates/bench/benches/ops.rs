//! Criterion benches of the CORUSCANT PIM operations (Table III's
//! operation set) running on the functional simulator.

use coruscant_core::add::MultiOperandAdder;
use coruscant_core::arith::ArithmeticUnit;
use coruscant_core::bulk::{BulkExecutor, BulkOp};
use coruscant_core::dispatch::PimMachine;
use coruscant_core::isa::{BlockSize, CpimInstr, CpimOpcode};
use coruscant_core::maxpool::MaxExecutor;
use coruscant_core::mult::{CsaReducer, Multiplier};
use coruscant_mem::{Dbc, DbcLocation, MemoryConfig, Row, RowAddress};
use coruscant_racetrack::CostMeter;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("pim_ops");
    for trd in [3usize, 5, 7] {
        let config = MemoryConfig::tiny().with_trd(trd);
        let adder = MultiOperandAdder::new(&config);
        let k = config.max_add_operands();
        let ops: Vec<Row> = (1..=k as u64)
            .map(|v| Row::pack(64, 8, &[v * 31 % 256; 8]))
            .collect();
        g.bench_with_input(BenchmarkId::new("add", trd), &trd, |b, _| {
            b.iter(|| {
                let mut dbc = Dbc::pim_enabled(&config);
                let mut m = CostMeter::new();
                black_box(adder.add_rows(&mut dbc, &ops, 8, &mut m).unwrap())
            });
        });
        let mult = Multiplier::new(&config);
        g.bench_with_input(BenchmarkId::new("mult", trd), &trd, |b, _| {
            b.iter(|| {
                let mut dbc = Dbc::pim_enabled(&config);
                let mut m = CostMeter::new();
                black_box(
                    mult.multiply_values(
                        &mut dbc,
                        &[173, 250, 3, 99],
                        &[219, 2, 255, 44],
                        8,
                        &mut m,
                    )
                    .unwrap(),
                )
            });
        });
        // One carry-save step over a full window of TRD rows.
        let reducer = CsaReducer::new(trd);
        let mut window = Dbc::pim_enabled(&config);
        for v in 0..trd {
            let row = Row::pack(64, 8, &[v as u64 * 53 % 256; 8]);
            window.poke_row(2 + v, &row).unwrap();
        }
        g.bench_with_input(BenchmarkId::new("reduce", trd), &trd, |b, _| {
            b.iter(|| {
                let mut dbc = window.clone();
                let mut m = CostMeter::new();
                black_box(reducer.reduce(&mut dbc, 2, trd, 8, &mut m).unwrap())
            });
        });
    }
    let config = MemoryConfig::tiny();
    let exec = BulkExecutor::new(&config);
    let operands: Vec<Row> = (0..7u64)
        .map(|v| Row::from_u64_words(64, &[v * 0x1234_5678]))
        .collect();
    g.bench_function("bulk_and_7op", |b| {
        b.iter(|| {
            let mut dbc = Dbc::pim_enabled(&config);
            let mut m = CostMeter::new();
            black_box(
                exec.execute(&mut dbc, BulkOp::And, &operands, &mut m)
                    .unwrap(),
            )
        });
    });
    let maxe = MaxExecutor::new(&config);
    let cands: Vec<Row> = (0..7u64)
        .map(|v| Row::pack(64, 8, &[v * 37 % 256; 8]))
        .collect();
    g.bench_function("max_7words", |b| {
        b.iter(|| {
            let mut dbc = Dbc::pim_enabled(&config);
            let mut m = CostMeter::new();
            black_box(maxe.max_rows(&mut dbc, &cands, 8, &mut m).unwrap())
        });
    });
    let unit = ArithmeticUnit::new(&config);
    g.bench_function("min_3words", |b| {
        b.iter(|| {
            let mut dbc = Dbc::pim_enabled(&config);
            let mut m = CostMeter::new();
            black_box(unit.min_rows(&mut dbc, &cands[..3], 8, &mut m).unwrap())
        });
    });
    g.finish();
}

/// `PimMachine::execute` on one warm machine at the served CNN's geometry
/// (64 wires, TRD 7, 16-bit lanes): the multiply, 2-operand add and copy
/// a `cnn_frames` layer runs, with the operand gather, the write-back and
/// the controller's accounting around each kernel.
fn bench_warm_machine(c: &mut Criterion) {
    let mut g = c.benchmark_group("warm_machine");
    let mut machine = PimMachine::new(MemoryConfig::tiny());
    let (mult_dbc, add_dbc) = (DbcLocation::new(0, 0, 0, 0), DbcLocation::new(1, 0, 0, 0));
    let at = RowAddress::new;
    let mut meter = CostMeter::new();
    // Above the multiplier's scratch rows (0..=16 at TRD 7, 8-bit values).
    for (dbc, r, values) in [
        (mult_dbc, 24, [173u64, 250, 3, 99]),
        (mult_dbc, 25, [219, 2, 255, 44]),
        (add_dbc, 20, [40_000, 7, 65_535, 12_345]),
        (add_dbc, 21, [30_000, 9, 1, 54_321]),
    ] {
        let row = Row::pack(64, 16, &values);
        let ctrl = machine.controller_mut();
        ctrl.store_row(at(dbc, r), &row, &mut meter).unwrap();
    }
    let lanes = BlockSize::new(16).unwrap();
    let instr = |opcode, src, k, dst| CpimInstr::new(opcode, src, k, lanes, Some(dst)).unwrap();
    let storage = DbcLocation::new(0, 0, 0, 1);
    let mult = instr(CpimOpcode::Mult, at(mult_dbc, 24), 2, at(mult_dbc, 30));
    let add = instr(CpimOpcode::Add, at(add_dbc, 20), 2, at(add_dbc, 30));
    let copy = instr(CpimOpcode::Copy, at(mult_dbc, 24), 1, at(storage, 3));
    for (name, instr) in [("mult", mult), ("add_2op", add), ("copy", copy)] {
        g.bench_function(name, |b| {
            b.iter(|| black_box(machine.execute(&instr).unwrap()));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_ops, bench_warm_machine);
criterion_main!(benches);
