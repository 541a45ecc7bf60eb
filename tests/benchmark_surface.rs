//! The device-model surface `benchmark/src/layers.rs` compiles against.
//! `benchmark/` is a nested workspace the root build never sees and a PR
//! that changes the device model may not edit, so the calls it makes are
//! pinned here, with the shapes it relies on: a by-value wire view, rows
//! built from words, lanes packed 64 bits wide.

use coruscant::mem::{Dbc, MemoryConfig, MemoryController, Row, RowAddress};
use coruscant::racetrack::{CostMeter, Nanowire, NanowireSpec};
use std::hint::black_box;

#[test]
fn the_calls_the_stack_benchmark_makes_keep_their_shape() {
    let mut meter = CostMeter::new();

    // `layers::racetrack`: one paper-geometry wire.
    let mut wire = Nanowire::new(NanowireSpec::coruscant(32, 7));
    for r in (0..32).step_by(3) {
        wire.set_row(r, true).expect("row in range");
    }
    let (left, _) = wire.shift_slack();
    let first = if left > 0 { -1 } else { 1 };
    wire.shift(first, &mut meter).expect("one step stays on");
    wire.shift(-first, &mut meter).expect("and back");
    assert_eq!(wire.transverse_read_full().expect("two ports").span, 7);

    // `layers::mem`: one PIM DBC and one controller at paper width.
    let config = MemoryConfig {
        nanowires_per_dbc: 512,
        ..MemoryConfig::tiny()
    };
    let width = config.nanowires_per_dbc;
    let words: Vec<u64> = (0..width.div_ceil(64) as u64).map(|w| !w).collect();
    let row = Row::from_u64_words(width, &words);
    let mut dbc = Dbc::pim_enabled(&config);
    dbc.poke_row(10, &row).expect("row in range");
    let first = if dbc.wire(0).shift_slack().0 > 0 {
        -1
    } else {
        1
    };
    dbc.shift_all(first, &mut meter).expect("one step");
    dbc.shift_all(-first, &mut meter).expect("and back");
    black_box(dbc.transverse_read_all(&mut meter).expect("PIM DBC"));
    assert_eq!(dbc.read_row(10, &mut meter).expect("row in range"), row);
    dbc.write_row(11, &row, &mut meter).expect("row in range");

    let mut ctrl = MemoryController::new(config.clone());
    let addr = RowAddress::new(ctrl.pim_unit(0), 10);
    ctrl.store_row(addr, &row, &mut meter)
        .expect("unit 0 exists");
    assert_eq!(ctrl.load_row(addr, &mut meter).expect("unit 0 exists"), row);

    let lanes: Vec<u64> = (0..width as u64 / 64).map(|l| l * 0x0101_0101).collect();
    assert_eq!(Row::pack(width, 64, &lanes).unpack(64), lanes);
}
