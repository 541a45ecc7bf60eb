//! The transverse-write max kernel against the per-round `Row` loop it
//! replaced, kept here as the oracle: per bit position one
//! `transverse_read_all`, then per round a `read_port` of the right port
//! (charged unclassed), the elimination in `Row` operators, and a
//! `transverse_write_all`. Twin DBCs run the same candidates through
//! `MaxExecutor::max_in_place` (and `ArithmeticUnit::min_rows`, which
//! reaches the same kernel) and through the oracle. After every operation
//! the results, every row, the segment, the meter (f64 bits, op count,
//! per-class totals) and the fault counts must agree — fault-free and
//! under transverse-read faults.

use coruscant_core::arith::ArithmeticUnit;
use coruscant_core::maxpool::MaxExecutor;
use coruscant_core::sense::at_least;
use coruscant_mem::{Dbc, MemoryConfig, Row};
use coruscant_racetrack::{Cost, CostMeter, FaultConfig, PortId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `MaxExecutor::max_in_place` as it was, past its checks.
fn oracle_max_in_place(dbc: &mut Dbc, trd: usize, blocksize: usize, meter: &mut CostMeter) -> Row {
    for j in (0..blocksize).rev() {
        let positive = at_least(&dbc.transverse_read_all(meter).unwrap(), 1);
        for _ in 0..trd {
            let mut read = CostMeter::new();
            let word = dbc.read_port(PortId::RIGHT, &mut read).unwrap();
            meter.charge(read.total());
            let loses = (&positive & &!&word).spread_lanes(j, blocksize);
            dbc.transverse_write_all(&(&word & &!&loses), meter)
                .unwrap();
        }
    }
    at_least(&dbc.transverse_read_all(meter).unwrap(), 1)
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

/// Two maxima and a minimum on twin DBCs, each over a fresh number of
/// random candidates.
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
    let (max, unit) = (MaxExecutor::new(&config), ArithmeticUnit::new(&config));
    let (mut km, mut om) = (CostMeter::new(), CostMeter::new());
    for round in 0..3 {
        let what = format!("{what} round {round}");
        let k = 1 + rng.random_range(0..trd);
        let candidates: Vec<Row> = (0..k).map(|_| random_row(rng, width)).collect();
        let (got, want) = if round < 2 {
            let got = max.max_rows(&mut kernel, &candidates, blocksize, &mut km);
            max.place_candidates(&mut oracle, &candidates, &mut om)
                .unwrap();
            (
                got,
                oracle_max_in_place(&mut oracle, trd, blocksize, &mut om),
            )
        } else {
            // `min_rows`: NOT max(NOT c), the inversions billed one cycle
            // per candidate.
            let got = unit.min_rows(&mut kernel, &candidates, blocksize, &mut km);
            om.charge(Cost::cycles(k as u64));
            let inverted: Vec<Row> = candidates.iter().map(|c| !c).collect();
            max.place_candidates(&mut oracle, &inverted, &mut om)
                .unwrap();
            let inv_max = oracle_max_in_place(&mut oracle, trd, blocksize, &mut om);
            (got, !&inv_max)
        };
        let got = got.unwrap();
        assert_eq!(got, want, "{what}: result");
        if p == 0.0 && round == 0 && blocksize <= 64 {
            let reference = MaxExecutor::reference(&candidates, blocksize);
            assert_eq!(got, reference, "{what}: reference");
        }
        assert_eq!(km, om, "{what}: meter");
        assert_twins(&kernel, &oracle, &what);
    }
    if p >= 0.3 {
        assert!(kernel.injected_fault_count() > 0, "{what}: no faults drawn");
    }
}

#[test]
fn the_max_kernel_is_the_per_round_row_loop() {
    let mut rng = StdRng::seed_from_u64(0x3A7);
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
