//! The multiplier's plane kernels against the `Row`-level loops they
//! replaced, kept here as the oracles:
//! - the predicated partial-product loop: per product a `spread_lanes`, an
//!   `&` and a `shl_lanes`, written through an aligned `write_bits` of
//!   every wire (what `Dbc::write_row` did);
//! - the carry-save step: `transverse_read_all`, the carries moved with
//!   `shl_lanes`, one `write_bits` of S and C, then the C′ shift and write.
//!
//! Twin DBCs run the same operands through `Multiplier::multiply_packed` /
//! `CsaReducer::reduce` and through the oracles. After every operation the
//! results, every row, the segment, the meter (f64 bits, op count,
//! per-class totals) and the fault counts must agree — fault-free and
//! under transverse-read faults.

use coruscant_core::add::MultiOperandAdder;
use coruscant_core::mult::{CsaReducer, Multiplier, Reduced};
use coruscant_mem::{Dbc, MemoryConfig, Row};
use coruscant_racetrack::{CostMeter, FaultConfig, PortId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `Dbc::write_row` as it was: align under the nearest port, then one
/// `write_bits` of every wire.
fn oracle_write_row(dbc: &mut Dbc, r: usize, data: &Row, meter: &mut CostMeter) {
    let port = dbc.nearest_port(r).unwrap();
    dbc.align_row(r, port, meter).unwrap();
    let every_wire = Row::ones(dbc.width());
    dbc.write_bits(&[(port, data, &every_wire)], meter).unwrap();
}

/// `CsaReducer::reduce` past its checks, as it was.
fn oracle_reduce(
    dbc: &mut Dbc,
    base: usize,
    trd: usize,
    blocksize: usize,
    meter: &mut CostMeter,
) -> Reduced {
    dbc.align_row(base, PortId::LEFT, meter).unwrap();
    let counts = dbc.transverse_read_all(meter).unwrap();
    let carry = counts.carry.shl_lanes(1, blocksize);
    let every_wire = Row::ones(dbc.width());
    let writes = [
        (PortId::LEFT, &counts.sum, &every_wire),
        (PortId::RIGHT, &carry, &every_wire),
    ];
    dbc.write_bits(&writes, meter).unwrap();
    let (s, c) = (base, base + trd - 1);
    if trd < 4 {
        return Reduced { s, c, cp: None };
    }
    dbc.shift_all(1, meter).unwrap();
    let super_carry = counts.super_carry.shl_lanes(2, blocksize);
    dbc.write_bits(&[(PortId::LEFT, &super_carry, &every_wire)], meter)
        .unwrap();
    let cp = Some(base - 1);
    Reduced { s, c, cp }
}

/// `Multiplier::best_window` as it is: the window base overlapping the
/// most chosen rows that spares the survivors and the C′ slot below it.
fn best_window(rows: usize, trd: usize, chosen: &[usize], remaining: &[usize]) -> usize {
    let safe = |b: usize| {
        let span = b..b + trd;
        !remaining.iter().any(|r| span.contains(r) || *r + 1 == b)
    };
    let (mut best, mut best_hits) = (1, 0);
    for b in (1..=rows.saturating_sub(trd)).filter(|&b| safe(b)) {
        let hits = chosen.iter().filter(|r| (b..b + trd).contains(r)).count();
        if hits > best_hits {
            (best, best_hits) = (b, hits);
        }
    }
    if best == 1 && !safe(1) {
        return (1..=rows.saturating_sub(trd))
            .find(|&b| safe(b))
            .unwrap_or(1);
    }
    best
}

/// The carry-save `Multiplier::multiply_packed` as it was, past its checks:
/// the `Row` partial-product loop, the reductions through
/// [`oracle_reduce`] with stragglers gathered by aligned reads and
/// [`oracle_write_row`]s, then the final additions.
fn oracle_multiply(
    dbc: &mut Dbc,
    a: &Row,
    b: &Row,
    bits: usize,
    trd: usize,
    meter: &mut CostMeter,
) -> Row {
    let (lane, pool) = (2 * bits, trd + 1);
    let mut cur = a.clone();
    for i in 0..bits {
        oracle_write_row(dbc, pool + i, &(&cur & &b.spread_lanes(i, lane)), meter);
        cur = cur.shl_lanes(1, lane);
    }
    let max_ops = if trd <= 3 { trd - 1 } else { trd - 2 };
    let mut live: Vec<usize> = (pool..pool + bits).collect();
    while live.len() > max_ops {
        let t = trd.min(live.len());
        let in_place = t == trd
            && live[..t].windows(2).all(|w| w[1] == w[0] + 1)
            && live[0] >= 1
            && !live.contains(&(live[0] - 1));
        let chosen: Vec<usize> = live.drain(..t).collect();
        let base = if in_place {
            chosen[0]
        } else {
            let base = best_window(dbc.rows(), trd, &chosen, &live);
            let inside = |r: &usize| (base..base + trd).contains(r);
            let mut occupied = vec![false; trd];
            chosen
                .iter()
                .filter(|r| inside(r))
                .for_each(|r| occupied[r - base] = true);
            let mut free = (0..trd)
                .filter(|&s| !occupied[s])
                .collect::<Vec<_>>()
                .into_iter();
            for &r in chosen.iter().filter(|r| !inside(r)) {
                let s = free.next().unwrap();
                let data = dbc.read_row(r, meter).unwrap();
                oracle_write_row(dbc, base + s, &data, meter);
                occupied[s] = true;
            }
            let zero = Row::zeros(dbc.width());
            for s in (0..trd).filter(|&s| !occupied[s]) {
                oracle_write_row(dbc, base + s, &zero, meter);
            }
            base
        };
        let out = oracle_reduce(dbc, base, trd, lane, meter);
        for r in out.rows().into_iter().rev() {
            live.insert(0, r);
        }
    }
    let adder = MultiOperandAdder::with_trd(trd);
    let slot = pool + bits;
    while live.len() > 1 {
        let take = max_ops.min(live.len());
        let chunk: Vec<Row> = live
            .drain(..take)
            .map(|r| dbc.read_row(r, meter).unwrap())
            .collect();
        let sum = adder.add_rows_at(dbc, &chunk, 1, lane, meter).unwrap();
        oracle_write_row(dbc, slot, &sum, meter);
        live.insert(0, slot);
    }
    dbc.peek_row(live[0]).unwrap()
}

fn random_row(rng: &mut StdRng, width: usize) -> Row {
    let words: Vec<u64> = (0..width.div_ceil(64)).map(|_| rng.random()).collect();
    Row::from_u64_words(width, &words)
}

/// Twin DBCs of `width` wires at `trd`, with transverse-read faults at
/// rate `p` when it is positive (both twins draw from the same streams).
fn twins(width: usize, trd: usize, p: f64, rng: &mut StdRng) -> (MemoryConfig, Dbc, Dbc) {
    let config = MemoryConfig {
        nanowires_per_dbc: width,
        rows_per_dbc: 48,
        ..MemoryConfig::tiny().with_trd(trd)
    };
    let mut kernel = Dbc::pim_enabled(&config);
    if p > 0.0 {
        let faults = FaultConfig::NONE.with_tr_fault_rate(p);
        kernel = kernel.with_faults(faults, rng.random());
    }
    let oracle = kernel.clone();
    (config, kernel, oracle)
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

#[test]
fn the_multiplier_is_the_row_level_loop() {
    let mut rng = StdRng::seed_from_u64(0x3017);
    for width in [64usize, 96, 512] {
        for bits in [4usize, 8, 16, 32] {
            if !width.is_multiple_of(2 * bits) {
                continue;
            }
            for trd in [3usize, 5, 7] {
                for p in [0.0, 0.05, 0.3] {
                    let what = format!("width {width} bits {bits} trd {trd} p {p}");
                    let (config, mut kernel, mut oracle) = twins(width, trd, p, &mut rng);
                    let mult = Multiplier::new(&config);
                    let (mut km, mut om) = (CostMeter::new(), CostMeter::new());
                    for round in 0..3 {
                        let what = format!("{what} round {round}");
                        let lanes = width / (2 * bits);
                        let mut values = || -> Vec<u64> {
                            (0..lanes)
                                .map(|_| rng.random::<u64>() >> (64 - bits))
                                .collect()
                        };
                        let (av, bv) = (values(), values());
                        let a = Row::pack(width, 2 * bits, &av);
                        let b = Row::pack(width, 2 * bits, &bv);
                        let got = mult
                            .multiply_packed(&mut kernel, &a, &b, bits, &mut km)
                            .unwrap();
                        let want = oracle_multiply(&mut oracle, &a, &b, bits, trd, &mut om);
                        assert_eq!(got, want, "{what}: product");
                        if p == 0.0 {
                            let product = Multiplier::reference(&av, &bv);
                            assert_eq!(got.unpack(2 * bits), product, "{what}: reference");
                        }
                        assert_eq!(km, om, "{what}: meter");
                        assert_twins(&kernel, &oracle, &what);
                    }
                    if p >= 0.3 {
                        assert!(kernel.injected_fault_count() > 0, "{what}: no faults");
                    }
                }
            }
        }
    }
}

/// Every lane width the `Reduce` opcode and `sum_rows` accept, over rows
/// placed at random and then over what the first step left behind.
#[test]
fn the_reduction_is_the_row_level_step() {
    let mut rng = StdRng::seed_from_u64(0x7A3);
    for width in [64usize, 96, 512] {
        let blocksizes = [8usize, 16, 32, 64, 128, 256, 512];
        for blocksize in blocksizes.into_iter().filter(|&b| width % b == 0) {
            for trd in [3usize, 5, 7] {
                for p in [0.0, 0.05, 0.3] {
                    let what = format!("width {width} blocksize {blocksize} trd {trd} p {p}");
                    let (_, mut kernel, mut oracle) = twins(width, trd, p, &mut rng);
                    let reducer = CsaReducer::new(trd);
                    let (mut km, mut om) = (CostMeter::new(), CostMeter::new());
                    let base = 3;
                    let rows: Vec<Row> = (0..trd).map(|_| random_row(&mut rng, width)).collect();
                    for (i, row) in rows.iter().enumerate() {
                        kernel.poke_row(base + i, row).unwrap();
                        oracle.poke_row(base + i, row).unwrap();
                    }
                    for step in 0..2 {
                        let what = format!("{what} step {step}");
                        let got = reducer
                            .reduce(&mut kernel, base, trd, blocksize, &mut km)
                            .unwrap();
                        let want = oracle_reduce(&mut oracle, base, trd, blocksize, &mut om);
                        assert_eq!(got, want, "{what}: outputs");
                        if p == 0.0 && step == 0 {
                            let out: Vec<Row> = got
                                .rows()
                                .iter()
                                .map(|&r| kernel.peek_row(r).unwrap())
                                .collect();
                            assert_eq!(
                                MultiOperandAdder::reference(&out, blocksize),
                                MultiOperandAdder::reference(&rows, blocksize),
                                "{what}: sum"
                            );
                        }
                        assert_eq!(km, om, "{what}: meter");
                        assert_twins(&kernel, &oracle, &what);
                    }
                }
            }
        }
    }
}
