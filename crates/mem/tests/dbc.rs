//! The bit-plane [`Dbc`] through its public surface: geometry, row
//! traffic and parallel accesses, then its edges — extremity semantics,
//! overruns, saturation, energy summation and the count planes of a
//! transverse read.

use coruscant_mem::{Dbc, MemError, MemoryConfig, Row};
use coruscant_racetrack::{CostMeter, Error, FaultConfig, PortId};

fn tiny_pim() -> Dbc {
    Dbc::pim_enabled(&MemoryConfig::tiny())
}

#[test]
fn geometry_matches_config() {
    let c = MemoryConfig::tiny();
    let d = Dbc::pim_enabled(&c);
    assert_eq!(d.width(), 64);
    assert_eq!(d.rows(), 32);
    assert!(d.is_pim());
    assert_eq!(d.segment_len(), 7);

    let s = Dbc::storage(&c);
    assert!(!s.is_pim());
}

#[test]
fn row_write_read_roundtrip() {
    let mut d = tiny_pim();
    let mut m = CostMeter::new();
    let row = Row::from_u64_words(64, &[0xAAAA_5555_F0F0_0F0F]);
    d.write_row(7, &row, &mut m).unwrap();
    let got = d.read_row(7, &mut m).unwrap();
    assert_eq!(got, row);
    // Oracle agrees.
    assert_eq!(d.peek_row(7).unwrap(), row);
}

#[test]
fn row_access_cost_is_shift_plus_one() {
    let mut d = tiny_pim();
    let mut m = CostMeter::new();
    let row = Row::zeros(64);
    d.write_row(0, &row, &mut m).unwrap();
    let shift_then_write = m.take();
    // Writing the same row again needs no realignment: 1 cycle.
    d.write_row(0, &row, &mut m).unwrap();
    assert_eq!(m.total().cycles, 1);
    assert!(shift_then_write.cycles >= 1);
    // Energy of the parallel write scales with width.
    assert!(m.total().energy_pj > 0.1 * 63.0);
}

#[test]
fn width_mismatch_rejected() {
    let mut d = tiny_pim();
    let mut m = CostMeter::new();
    let err = d.write_row(0, &Row::zeros(8), &mut m).unwrap_err();
    assert!(matches!(err, MemError::WidthMismatch { .. }));
    assert!(d.poke_row(0, &Row::zeros(8)).is_err());
}

#[test]
fn row_out_of_range_rejected() {
    let mut d = tiny_pim();
    let mut m = CostMeter::new();
    assert!(matches!(
        d.read_row(32, &mut m),
        Err(MemError::RowOutOfRange { .. })
    ));
}

#[test]
fn all_rows_reachable() {
    let mut d = tiny_pim();
    let mut m = CostMeter::new();
    for r in 0..32 {
        let mut row = Row::zeros(64);
        row.set(r % 64, true);
        d.write_row(r, &row, &mut m).unwrap();
    }
    for r in 0..32 {
        let got = d.read_row(r, &mut m).unwrap();
        assert_eq!(got.popcount(), 1, "row {r}");
        assert_eq!(got.get(r % 64), Some(true));
    }
}

#[test]
fn transverse_read_all_counts_segment_ones() {
    let mut d = tiny_pim();
    // Fill segment rows: positions 0..3 all ones, rest zeros.
    for s in 0..4 {
        d.poke_segment_row(s, &Row::ones(64)).unwrap();
    }
    let mut m = CostMeter::new();
    let out = d.transverse_read_all(&mut m).unwrap();
    assert!((0..64).all(|i| out.value(i) == 4) && out.span == 7);
    assert_eq!(m.total().cycles, 1, "parallel TR is one cycle");
}

#[test]
fn transverse_write_all_shifts_segment() {
    let mut d = tiny_pim();
    let marker = Row::from_u64_words(64, &[0x1234_5678]);
    d.poke_segment_row(6, &marker).unwrap(); // under the right port
    let mut m = CostMeter::new();
    let expelled = d.transverse_write_all(&Row::ones(64), &mut m).unwrap();
    assert_eq!(expelled, marker);
    let rows = d.peek_segment_rows();
    assert_eq!(rows[0], Row::ones(64));
}

#[test]
fn write_bits_is_one_cycle() {
    let mut d = tiny_pim();
    let mut m = CostMeter::new();
    let lanes = |i: u32| Row::from_u64_words(64, &[1 << i]);
    let writes = [
        (PortId::LEFT, &Row::ones(64), &lanes(0)),
        (PortId::RIGHT, &Row::ones(64), &lanes(1)),
        (PortId::LEFT, &Row::zeros(64), &lanes(2)),
    ];
    d.write_bits(&writes, &mut m).unwrap();
    assert_eq!(m.total().cycles, 1);
    assert!(d.wire(0).segment_bit(0).unwrap());
    assert!(d.wire(1).segment_bit(6).unwrap());
}

#[test]
fn write_port_is_write_bits_of_every_wire() {
    let (mut port, mut bits) = (tiny_pim(), tiny_pim());
    let (mut pm, mut bm) = (CostMeter::new(), CostMeter::new());
    let data = Row::from_u64_words(64, &[0xDEAD_BEEF_0BAD_F00D]);
    for side in [PortId::LEFT, PortId::RIGHT] {
        port.write_port(side, &data, &mut pm).unwrap();
        bits.write_bits(&[(side, &data, &Row::ones(64))], &mut bm)
            .unwrap();
    }
    assert_eq!(port.peek_segment_rows(), bits.peek_segment_rows());
    assert_eq!(pm, bm);
    let wide = Row::zeros(65);
    let mismatch = MemError::WidthMismatch {
        got: 65,
        expected: 64,
    };
    assert_eq!(port.write_port(PortId::LEFT, &wide, &mut pm), Err(mismatch));
    assert_eq!(pm, bm, "a refused write charges nothing");
}

#[test]
fn lockstep_shift_moves_all_wires() {
    let mut d = tiny_pim();
    let row = Row::ones(64);
    d.poke_row(10, &row).unwrap();
    let mut m = CostMeter::new();
    d.shift_all(3, &mut m).unwrap();
    assert_eq!(m.total().cycles, 3);
    assert_eq!(d.peek_row(10).unwrap(), row, "data follows the shift");
}

#[test]
fn nearest_port_prefers_shorter_alignment() {
    let d = tiny_pim();
    // Row 0 is far left: the left port must win.
    assert_eq!(d.nearest_port(0).unwrap(), PortId::LEFT);
    // Row 31 is far right: the right port must win.
    assert_eq!(d.nearest_port(31).unwrap(), PortId::RIGHT);
}

/// Satellite (c): what leaves an extremity is gone, and comes back as
/// zeros — for the ring of planes exactly as for `pop`/`insert`.
#[test]
fn domains_shifted_off_either_extremity_read_back_zero() {
    for (away, back) in [(-12isize, 12isize), (13, -13)] {
        let mut d = tiny_pim();
        // Fill every physical domain of every wire through the wire
        // views' coordinates: all rows, plus the overhead via the
        // segment and a full-slack round trip below.
        for r in 0..32 {
            d.poke_row(r, &Row::ones(64)).unwrap();
        }
        let total = d.wire(0).spec().total_domains;
        let mut m = CostMeter::new();
        d.shift_all(away, &mut m).unwrap();
        d.shift_all(back, &mut m).unwrap();
        for r in 0..32 {
            assert_eq!(
                d.peek_row(r).unwrap(),
                Row::ones(64),
                "data row {r} survives"
            );
        }
        let wire = d.wire(5);
        let ones = (0..total)
            .filter(|&p| wire.peek_physical(p) == Some(true))
            .count();
        assert_eq!(ones, 32, "nothing but the data window is set");
        // Now push overhead-domain ones off the end and back.
        let edge = if away < 0 { 0 } else { total - 1 };
        let mut w = d.wire(0);
        w.poke_physical(edge, true).unwrap();
        w.shift(if away < 0 { 1 } else { -1 }, &mut m).unwrap();
        w.shift(if away < 0 { -1 } else { 1 }, &mut m).unwrap();
        assert_eq!(
            w.peek_physical(edge),
            Some(true),
            "one step inward and back keeps it"
        );
        w.shift(away, &mut m).unwrap();
        w.shift(back, &mut m).unwrap();
        assert_eq!(
            w.peek_physical(edge),
            Some(false),
            "pushed off the wire: lost"
        );
    }
}

#[test]
fn overrun_leaves_a_fault_free_dbc_unchanged() {
    let mut d = tiny_pim();
    let row = Row::from_u64_words(64, &[0xDEAD_BEEF_0BAD_F00D]);
    d.poke_row(3, &row).unwrap();
    let (left, right) = d.shift_slack();
    let mut m = CostMeter::new();
    for delta in [right + 1, -(left + 1)] {
        let err = d.shift_all(delta, &mut m).unwrap_err();
        assert!(matches!(
            err,
            MemError::Device(Error::ShiftOverrun { requested, .. }) if requested == delta
        ));
    }
    assert_eq!(m, CostMeter::new(), "nothing charged");
    assert_eq!(d.shift_slack(), (left, right));
    assert_eq!(d.peek_row(3).unwrap(), row);
    assert!(matches!(
        d.align_row(31, PortId::LEFT, &mut m),
        Err(MemError::Device(Error::ShiftOverrun { .. }))
    ));
}

#[test]
fn scrub_force_shift_saturates_at_the_extremity() {
    // Every step over-shifts: the realigning shift overruns and the
    // forced one must stop at the wire's end instead of wrapping.
    let always_over = FaultConfig {
        p_over_shift: 1.0,
        ..FaultConfig::NONE
    };
    let mut d = tiny_pim().with_faults(always_over, 1);
    let mut m = CostMeter::new();
    let _ = d.shift_all(-3, &mut m);
    d.scrub(&mut m).unwrap();
    let max = d.shift_slack().0 + d.shift_slack().1;
    for i in 0..64 {
        assert!((0..=max).contains(&d.wire(i).offset()), "wire {i}");
    }
    let mut w = d.wire(0);
    w.force_shift(1000, &mut m);
    assert_eq!(w.offset(), max);
    w.force_shift(-1000, &mut m);
    assert_eq!(w.offset(), 0);
}

/// A DBC operation charges the per-wire energy once per wire; the sum
/// of 512 additions is not the product.
#[test]
fn wide_energy_is_the_sum_over_wires_not_a_product() {
    let config = MemoryConfig {
        nanowires_per_dbc: 512,
        ..MemoryConfig::tiny()
    };
    let mut d = Dbc::pim_enabled(&config);
    let mut m = CostMeter::new();
    d.shift_all(-3, &mut m).unwrap();
    let per_wire = (0..3).fold(0.0, |e, _| e + 0.1);
    let want = (0..512).fold(0.0, |e, _| e + per_wire);
    assert_eq!(m.total().energy_pj, want);
    assert_ne!(want, 512.0 * 3.0 * 0.1, "the product rounds differently");
    assert_eq!(m.total().cycles, 3);
    assert_eq!(m.op_count(), 1);
    d.shift_all(3, &mut m).unwrap();
    assert_eq!(m.total().energy_pj, want + want);
}

/// The per-wire forms indexed `wires[i]` and panicked; a lane mask
/// can only name wires the DBC has, or be the wrong width.
#[test]
fn a_mask_naming_wires_the_dbc_lacks_is_an_error() {
    let mut d = tiny_pim();
    let before = d.peek_segment_rows();
    let mut m = CostMeter::new();
    let mismatch = MemError::WidthMismatch {
        got: 65,
        expected: 64,
    };
    let (wide, ok) = (Row::ones(65), Row::ones(64));
    assert_eq!(
        d.transverse_read_wires(&wide, &mut m),
        Err(mismatch.clone())
    );
    let writes = [(PortId::LEFT, &ok, &wide)];
    assert_eq!(d.write_bits(&writes, &mut m), Err(mismatch.clone()));
    let writes = [(PortId::LEFT, &wide, &ok)];
    assert_eq!(d.write_bits(&writes, &mut m), Err(mismatch));
    assert_eq!(d.peek_segment_rows(), before, "nothing written");
    assert_eq!(m, CostMeter::new());
}

#[test]
fn count_planes_hold_the_digits_of_each_wires_count() {
    let mut d = tiny_pim();
    // Wire i holds (i % 8) ones in its segment.
    for s in 0..7 {
        let row: Row = (0..64).map(|i| i % 8 > s).collect();
        d.poke_segment_row(s, &row).unwrap();
    }
    let mut m = CostMeter::new();
    let counts = d.transverse_read_all(&mut m).unwrap();
    for i in 0..64 {
        assert_eq!(counts.value(i) as usize, i % 8, "wire {i}");
    }
    assert_eq!((counts.span, m.total().cycles), (7, 1));
    // A masked read leaves the other wires at zero and charges only
    // the wires it senses.
    let lanes = Row::lane_bit(64, 8, 5);
    let mut masked = CostMeter::new();
    let counts = d.transverse_read_wires(&lanes, &mut masked).unwrap();
    for i in 0..64 {
        assert_eq!(counts.value(i), if i % 8 == 5 { 5 } else { 0 });
    }
    assert_eq!(masked.total().cycles, 1);
    assert!(masked.total().energy_pj < m.total().energy_pj / 7.0);
}

/// The sense amplifier tells seven levels apart and the count planes hold
/// three digits: a wider segment is refused, not counted modulo eight.
#[test]
fn a_segment_wider_than_the_sense_levels_is_refused() {
    let mut d = Dbc::pim_enabled(&MemoryConfig::tiny().with_trd(8));
    assert_eq!(d.segment_len(), 8);
    for s in 0..8 {
        d.poke_segment_row(s, &Row::ones(64)).unwrap();
    }
    let mut m = CostMeter::new();
    let refused = MemError::Device(Error::TrdExceeded { span: 8, limit: 7 });
    assert_eq!(d.transverse_read_all(&mut m), Err(refused.clone()));
    let lanes = Row::lane_bit(64, 8, 0);
    assert_eq!(d.transverse_read_wires(&lanes, &mut m), Err(refused));
    assert_eq!(m, CostMeter::new(), "a refused read charges nothing");
    // Everything that does not sense a count still works.
    let expelled = d.transverse_write_all(&Row::zeros(64), &mut m).unwrap();
    assert_eq!(expelled, Row::ones(64));
    let data = Row::from_u64_words(64, &[0xFEED_F00D]);
    d.write_row(9, &data, &mut m).unwrap();
    assert_eq!(d.read_row(9, &mut m).unwrap(), data);
}

/// Operations on some of the wires charge the same wire-by-wire sum, the
/// first time a lane count comes up and every time after — for more
/// distinct counts than the DBC remembers.
#[test]
fn partial_width_energy_is_summed_for_every_lane_count() {
    let config = MemoryConfig {
        nanowires_per_dbc: 512,
        ..MemoryConfig::tiny()
    };
    let mut d = Dbc::pim_enabled(&config);
    let every_wire = Row::ones(512);
    for _ in 0..2 {
        for n in (1..=12).map(|k| k * 37) {
            let lanes: Row = (0..512).map(|i| i < n).collect();
            let mut m = CostMeter::new();
            d.transverse_read_wires(&lanes, &mut m).unwrap();
            let tr = (0..n).fold(0.0, |e, _| e + 1.468);
            assert_eq!(m.total().energy_pj, tr, "TR on {n} wires");
            // Two simultaneous writes: n wires and all 512.
            let mut m = CostMeter::new();
            let writes = [
                (PortId::LEFT, &every_wire, &lanes),
                (PortId::RIGHT, &lanes, &every_wire),
            ];
            d.write_bits(&writes, &mut m).unwrap();
            let written = (0..n + 512).fold(0.0, |e, _| e + 0.1);
            assert_eq!(m.total().energy_pj, written, "{} wires written", n + 512);
            assert_eq!(m.total().cycles, 1);
        }
    }
}
