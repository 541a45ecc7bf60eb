//! Criterion benches of the CORUSCANT PIM operations (Table III's
//! operation set) running on the functional simulator.

use coruscant_core::add::MultiOperandAdder;
use coruscant_core::arith::ArithmeticUnit;
use coruscant_core::bulk::{BulkExecutor, BulkOp};
use coruscant_core::maxpool::MaxExecutor;
use coruscant_core::mult::{CsaReducer, Multiplier};
use coruscant_mem::{Dbc, MemoryConfig, Row};
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

criterion_group!(benches, bench_ops);
criterion_main!(benches);
