//! The fused carry-chain kernel against the per-step `Row` loop it
//! replaced, kept here as the oracle: one masked transverse read, then
//! the S/C/C′ writes through `write_bits`, per step. Twin DBCs run the
//! same operands through both; after every add the rows, the segment, the
//! meter (f64 bits, op count, per-class totals) and the fault streams must
//! agree — fault-free and under transverse-read faults.

use coruscant_core::add::MultiOperandAdder;
use coruscant_mem::{Dbc, MemoryConfig, Row};
use coruscant_racetrack::{CostMeter, FaultConfig, PortId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The carry chain as `MultiOperandAdder::add_in_place` stepped it before
/// the kernel: a `Row` lane mask per step, a masked transverse read, the
/// carries shifted within their lanes, and one `write_bits` of S, C and
/// (above TRD 3) C′.
fn oracle_chain(dbc: &mut Dbc, trd: usize, blocksize: usize, meter: &mut CostMeter) -> Row {
    let width = dbc.width();
    for j in 0..blocksize {
        let lanes = Row::lane_bit(width, blocksize, j);
        let counts = dbc.transverse_read_wires(&lanes, meter).unwrap();
        let carry = counts.carry.shl_lanes(1, blocksize);
        let carry_lanes = lanes.shl_lanes(1, blocksize);
        let super_carry = counts.super_carry.shl_lanes(2, blocksize);
        let super_lanes = lanes.shl_lanes(2, blocksize);
        let writes = [
            (PortId::LEFT, &counts.sum, &lanes),
            (PortId::RIGHT, &carry, &carry_lanes),
            (PortId::LEFT, &super_carry, &super_lanes),
        ];
        let routed = if trd >= 4 { 3 } else { 2 };
        dbc.write_bits(&writes[..routed], meter).unwrap();
    }
    dbc.peek_segment_rows().swap_remove(0)
}

fn random_row(rng: &mut StdRng, width: usize) -> Row {
    let words: Vec<u64> = (0..width.div_ceil(64)).map(|_| rng.random()).collect();
    Row::from_u64_words(width, &words)
}

fn assert_twins(kernel: &Dbc, oracle: &Dbc, what: &str) {
    for r in 0..kernel.rows() {
        assert_eq!(kernel.peek_row(r), oracle.peek_row(r), "{what}: row {r}");
    }
    assert_eq!(
        kernel.peek_segment_rows(),
        oracle.peek_segment_rows(),
        "{what}: segment"
    );
    assert_eq!(
        kernel.injected_fault_count(),
        oracle.injected_fault_count(),
        "{what}: fault count"
    );
}

/// Three rounds of placement on twin DBCs, each followed by a chain over
/// the placed operands and one straight over what it left behind.
fn run_twins(width: usize, blocksize: usize, trd: usize, p: f64, rng: &mut StdRng) {
    let what = format!("width {width} blocksize {blocksize} trd {trd} p {p}");
    let config = MemoryConfig {
        nanowires_per_dbc: width,
        ..MemoryConfig::tiny().with_trd(trd)
    };
    let mut kernel = Dbc::pim_enabled(&config);
    if p > 0.0 {
        let faults = FaultConfig::NONE.with_tr_fault_rate(p);
        kernel = kernel.with_faults(faults, rng.random());
    }
    let mut oracle = kernel.clone();
    let adder = MultiOperandAdder::new(&config);
    let (mut km, mut om) = (CostMeter::new(), CostMeter::new());
    for round in 0..3 {
        let k = adder.max_operands().min(2 + round);
        let operands: Vec<Row> = (0..k).map(|_| random_row(rng, width)).collect();
        adder
            .place_operands(&mut kernel, &operands, &mut km)
            .unwrap();
        adder
            .place_operands(&mut oracle, &operands, &mut om)
            .unwrap();
        for pass in 0..2 {
            let what = format!("{what} round {round} pass {pass}");
            let got = adder.add_in_place(&mut kernel, blocksize, &mut km).unwrap();
            let want = oracle_chain(&mut oracle, trd, blocksize, &mut om);
            assert_eq!(got, want, "{what}: sum");
            if p == 0.0 && pass == 0 {
                let reference = MultiOperandAdder::reference(&operands, blocksize);
                assert_eq!(got, reference, "{what}: reference");
            }
            assert_eq!(km, om, "{what}: meter");
            assert_twins(&kernel, &oracle, &what);
        }
    }
    if p >= 0.3 {
        assert!(kernel.injected_fault_count() > 0, "{what}: no faults drawn");
    }
}

#[test]
fn the_kernel_is_the_per_step_row_loop() {
    let mut rng = StdRng::seed_from_u64(0xC4A1);
    for width in [64usize, 96, 512] {
        let blocksizes = [8usize, 16, 32, 64, 128, 256, 512];
        for blocksize in blocksizes.into_iter().filter(|&b| width % b == 0) {
            for trd in [3usize, 5, 7] {
                for p in [0.0, 0.05, 0.3] {
                    run_twins(width, blocksize, trd, p, &mut rng);
                }
            }
        }
    }
}
