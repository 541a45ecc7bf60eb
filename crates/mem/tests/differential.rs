//! Differential test of the bit-plane [`Dbc`] against the device model it
//! replaced: one `Vec<bool>` tape per nanowire, every DBC operation a loop
//! over the wires. The reference below is the only surviving copy of that
//! model. Random operation sequences, with and without fault injection,
//! must leave both with equal rows, per-wire offsets, results and errors,
//! cost meters (`==` on the energies) and injected-fault counts.

use coruscant_mem::{Dbc, MemError, MemoryConfig, Row};
use coruscant_racetrack::params::{EnergyParams, LatencyParams};
use coruscant_racetrack::{
    Cost, CostMeter, Error, FaultConfig, FaultInjector, NanowireSpec, OpClass, PortId,
};
use proptest::prelude::*;

type Res<T> = Result<T, MemError>;
type Meter = CostMeter;
const E: EnergyParams = EnergyParams::PAPER;
const L: LatencyParams = LatencyParams::PAPER;

/// SplitMix64 finalizer: how `Dbc::with_faults` spreads per-wire seeds.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---- the reference: the `Vec<bool>` model, wire by wire ----

struct RefWire {
    tape: Vec<bool>,
    offset: isize,
    inj: Option<FaultInjector>,
}

struct RefDbc {
    spec: NanowireSpec,
    /// Largest offset that keeps the data window on the wire.
    max: isize,
    wires: Vec<RefWire>,
    /// Check window `(start, len)` of the installed position code.
    code: Option<(usize, usize)>,
}

impl RefWire {
    /// Moves the train `step` domains (only checks the move when `dry`):
    /// what leaves an extremity is lost, what enters reads zero.
    fn slide(&mut self, max: isize, step: isize, dry: bool) -> Result<(), Error> {
        if !(0..=max).contains(&(self.offset + step)) {
            let available = if step > 0 { max } else { 0 } - self.offset;
            return Err(Error::ShiftOverrun {
                requested: step,
                available,
            });
        }
        if !dry {
            let n = 0..self.tape.len() as isize;
            let from = |p: isize| n.contains(&(p - step)) && self.tape[(p - step) as usize];
            self.tape = n.clone().map(from).collect();
            self.offset += step;
        }
        Ok(())
    }

    fn shift(&mut self, max: isize, delta: isize, m: &mut Meter) -> Result<(), Error> {
        self.slide(max, delta, true)?;
        for _ in 0..delta.abs() {
            let fault = self.inj.as_mut().map_or(0, |i| i.shift_perturbation());
            self.slide(max, delta.signum() * (1 + fault), false)?;
            m.charge_class(
                OpClass::Shift,
                Cost::new(L.shift_per_step, E.shift_per_step),
            );
        }
        Ok(())
    }

    fn force_shift(&mut self, max: isize, steps: isize, m: &mut Meter) {
        let clamped = (self.offset + steps).clamp(0, max) - self.offset;
        self.slide(max, clamped, false).expect("clamped");
        let n = steps.unsigned_abs();
        let cost = Cost::new(L.shift_per_step * n as u64, E.shift_per_step * n as f64);
        m.charge_class(OpClass::Shift, cost);
    }

    fn tr(&mut self, lo: usize, hi: usize, m: &mut Meter) -> u8 {
        let span = hi - lo + 1;
        let mut count = self.tape[lo..=hi].iter().filter(|&&b| b).count() as i8;
        if let Some(inj) = &mut self.inj {
            count = (count + inj.tr_perturbation()).clamp(0, span as i8);
        }
        let cost = Cost::new(L.transverse_read, E.transverse_read(span));
        m.charge_class(OpClass::TransverseRead, cost);
        count as u8
    }
}

impl RefDbc {
    fn new(
        spec: NanowireSpec,
        width: u64,
        faults: Option<(FaultConfig, u64)>,
        coded: bool,
    ) -> Self {
        let window = spec.trd_limit.min(spec.initial_offset) & !1;
        let ones = if coded {
            spec.initial_offset - window / 2
        } else {
            0
        };
        let seed =
            |s: u64, i: u64| mix(s.wrapping_add((i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        let wire = |i| RefWire {
            tape: (0..spec.total_domains).map(|p| p < ones).collect(),
            offset: spec.initial_offset as isize,
            inj: faults.map(|(c, s)| FaultInjector::new(c, seed(s, i))),
        };
        RefDbc {
            wires: (0..width).map(wire).collect(),
            max: (spec.total_domains - spec.data_domains) as isize,
            code: coded.then(|| (spec.initial_offset - window, window)),
            spec,
        }
    }

    fn port(&self, port: PortId) -> Res<usize> {
        let port = self
            .spec
            .ports
            .get(port.0)
            .ok_or(Error::UnknownPort(port.0))?;
        Ok(port.position)
    }

    fn check(&self, row: usize, got: usize) -> Res<()> {
        let (rows, expected) = (self.spec.data_domains, self.wires.len());
        if row >= rows {
            return Err(MemError::RowOutOfRange { row, rows });
        }
        if got != expected {
            return Err(MemError::WidthMismatch { got, expected });
        }
        Ok(())
    }

    /// One per-wire operation on each listed wire in lock step: latency
    /// of the slowest wire, energies added wire by wire.
    fn lockstep<T>(
        &mut self,
        wires: impl Iterator<Item = usize>,
        class: OpClass,
        m: &mut Meter,
        mut op: impl FnMut(&mut RefWire, usize, &mut Meter) -> Res<T>,
    ) -> Res<Vec<T>> {
        let (mut combined, mut out) = (Cost::ZERO, Vec::new());
        for i in wires {
            let mut local = Meter::new();
            out.push(op(&mut self.wires[i], i, &mut local)?);
            combined = combined.in_parallel_with(local.total());
        }
        m.charge_class(class, combined);
        Ok(out)
    }

    fn shift_all(&mut self, delta: isize, m: &mut Meter) -> Res<()> {
        let (all, max) = (0..self.wires.len(), self.max);
        let shift = |w: &mut RefWire, _, l: &mut Meter| Ok(w.shift(max, delta, l)?);
        self.lockstep(all, OpClass::Shift, m, shift).map(drop)
    }

    fn align_row(&mut self, r: usize, port: PortId, m: &mut Meter) -> Res<()> {
        self.check(r, self.wires.len())?;
        let (all, max) = (0..self.wires.len(), self.max);
        let to = self.port(port)? as isize - r as isize;
        let shift = |w: &mut RefWire, _, l: &mut Meter| Ok(w.shift(max, to - w.offset, l)?);
        self.lockstep(all, OpClass::Shift, m, shift).map(drop)
    }

    /// The reachable port whose alignment is the shortest shift for wire 0.
    fn nearest_port(&self, r: usize) -> Res<PortId> {
        self.check(r, self.wires.len())?;
        let to = |p: &usize| self.spec.ports[*p].position as isize - r as isize;
        let ports = (0..self.spec.ports.len()).filter(|p| (0..=self.max).contains(&to(p)));
        let best = ports.min_by_key(|p| (to(p) - self.wires[0].offset).abs());
        let none = || MemError::BadLocation(format!("row {r} unreachable from any port"));
        best.map(PortId).ok_or_else(none)
    }

    fn read_row(&mut self, r: usize, m: &mut Meter) -> Res<Row> {
        let port = self.nearest_port(r)?;
        self.align_row(r, port, m)?;
        let p = self.port(port)?;
        let read = |w: &mut RefWire, _, l: &mut Meter| {
            l.charge_class(OpClass::Read, Cost::new(L.read, E.read));
            Ok(w.tape[p])
        };
        let bits = self.lockstep(0..self.wires.len(), OpClass::Read, m, read)?;
        Ok(Row::from_bits(bits))
    }

    fn write_row(&mut self, r: usize, data: &Row, m: &mut Meter) -> Res<()> {
        self.check(0, data.width())?;
        let port = self.nearest_port(r)?;
        self.align_row(r, port, m)?;
        let writes: Vec<_> = data.iter().enumerate().map(|(i, b)| (i, port, b)).collect();
        self.write_bits(&writes, m)
    }

    fn write_bits(&mut self, writes: &[(usize, PortId, bool)], m: &mut Meter) -> Res<()> {
        let ports: Vec<Res<usize>> = writes.iter().map(|w| self.port(w.1)).collect();
        let mut next = ports.into_iter().zip(writes);
        let write = |w: &mut RefWire, _, l: &mut Meter| {
            let (port, &(_, _, bit)) = next.next().expect("one per wire");
            w.tape[port?] = bit;
            l.charge_class(OpClass::Write, Cost::new(L.write, E.write));
            Ok(())
        };
        let wires = writes.iter().map(|w| w.0);
        self.lockstep(wires, OpClass::Write, m, write).map(drop)
    }

    fn transverse_read(&mut self, wires: &[usize], m: &mut Meter) -> Res<Vec<u8>> {
        let (lo, hi) = (self.port(PortId::LEFT), self.port(PortId::RIGHT));
        let read = |w: &mut RefWire, _, l: &mut Meter| Ok(w.tr(lo.clone()?, hi.clone()?, l));
        self.lockstep(wires.iter().copied(), OpClass::TransverseRead, m, read)
    }

    fn transverse_write_all(&mut self, row: &Row, m: &mut Meter) -> Res<Row> {
        self.check(0, row.width())?;
        let (lo, hi) = (self.port(PortId::LEFT), self.port(PortId::RIGHT));
        let cost = Cost::new(L.transverse_write, E.transverse_write);
        let write = |w: &mut RefWire, i, l: &mut Meter| {
            let (lo, hi) = (lo.clone()?, hi.clone()?);
            let expelled = w.tape[hi];
            w.tape.copy_within(lo..hi, lo + 1);
            w.tape[lo] = row.get(i).expect("width checked");
            l.charge_class(OpClass::TransverseWrite, cost);
            Ok(expelled)
        };
        let all = 0..self.wires.len();
        let expelled = self.lockstep(all, OpClass::TransverseWrite, m, write)?;
        Ok(Row::from_bits(expelled))
    }

    /// Returns (realigned, repaired, out_of_range).
    fn scrub(&mut self, m: &mut Meter) -> (u64, u64, u64) {
        let (mut realigned, mut repaired, mut lost) = (0, 0, 0);
        for w in &mut self.wires {
            let delta = self.spec.initial_offset as isize - w.offset;
            if delta != 0 {
                realigned += 1;
                if w.shift(self.max, delta, m).is_err() {
                    w.force_shift(self.max, delta, m);
                }
            }
            let Some((start, window)) = self.code else {
                continue;
            };
            let half = (window / 2) as isize;
            match isize::from(w.tr(start, start + window - 1, m)) - half {
                0 => {}
                d if d.abs() < half => {
                    repaired += 1;
                    w.force_shift(self.max, -d, m);
                }
                _ => lost += 1,
            }
        }
        (realigned, repaired, lost)
    }
}

// ---- the differential driver ----

struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn row(&mut self, width: usize) -> Row {
        let words: Vec<u64> = (0..width.div_ceil(64)).map(|_| self.next()).collect();
        Row::from_u64_words(width, &words)
    }
}

fn ref_row(reference: &RefDbc, r: usize) -> Row {
    let bit = |w: &RefWire| w.tape[(w.offset + r as isize) as usize];
    reference.wires.iter().map(bit).collect()
}

fn assert_same_state(dbc: &Dbc, reference: &RefDbc, a: &CostMeter, b: &CostMeter, step: &str) {
    for r in 0..dbc.rows() {
        assert_eq!(
            dbc.peek_row(r).unwrap(),
            ref_row(reference, r),
            "row {r} after {step}"
        );
    }
    for (i, w) in reference.wires.iter().enumerate() {
        let view = dbc.wire(i);
        assert_eq!(view.offset(), w.offset, "offset of wire {i} after {step}");
        for (p, &bit) in w.tape.iter().enumerate() {
            assert_eq!(
                view.peek_physical(p),
                Some(bit),
                "wire {i} domain {p} after {step}"
            );
        }
    }
    assert_eq!(a, b, "meters after {step}");
    let injected: u64 = reference
        .wires
        .iter()
        .filter_map(|w| w.inj.as_ref())
        .map(|i| i.injected_count())
        .sum();
    assert_eq!(
        dbc.injected_fault_count(),
        injected,
        "injected after {step}"
    );
}

/// A packed DBC and its per-wire reference, alike from the start.
fn twins(width: usize, pim: bool, faults: Option<(FaultConfig, u64)>) -> (Dbc, RefDbc) {
    let config = MemoryConfig {
        nanowires_per_dbc: width,
        ..MemoryConfig::tiny()
    };
    let (mut dbc, spec) = if pim {
        (
            Dbc::pim_enabled(&config),
            NanowireSpec::coruscant(config.rows_per_dbc, config.trd),
        )
    } else {
        (
            Dbc::storage(&config),
            NanowireSpec::single_port(config.rows_per_dbc),
        )
    };
    let coded = pim && faults.is_some_and(|(fc, _)| fc.p_over_shift + fc.p_under_shift > 0.0);
    let reference = RefDbc::new(spec, width as u64, faults, coded);
    if let Some((fc, seed)) = faults {
        dbc = dbc.with_faults(fc, seed);
    }
    if coded {
        dbc.install_position_codes().unwrap();
    }
    (dbc, reference)
}

fn run(width: usize, pim: bool, faults: Option<(FaultConfig, u64)>, ops: &[(u8, u64)]) {
    let (mut dbc, mut reference) = twins(width, pim, faults);
    let (mut a, mut b) = (CostMeter::new(), CostMeter::new());
    for &(kind, payload) in ops {
        let mut rng = SplitMix(payload);
        let step = format!("op {kind} payload {payload:#x}");
        match kind {
            0 => {
                let delta = rng.below(9) as isize - 4;
                assert_eq!(
                    dbc.shift_all(delta, &mut a),
                    reference.shift_all(delta, &mut b),
                    "{step}"
                );
            }
            1 => {
                let (r, port) = (rng.below(34), PortId(rng.below(3)));
                assert_eq!(
                    dbc.align_row(r, port, &mut a),
                    reference.align_row(r, port, &mut b),
                    "{step}"
                );
            }
            2 => {
                let r = rng.below(33);
                assert_eq!(
                    dbc.read_row(r, &mut a),
                    reference.read_row(r, &mut b),
                    "{step}"
                );
            }
            3 => {
                let r = rng.below(33);
                let w = if rng.below(16) == 0 { width - 1 } else { width };
                let row = rng.row(w);
                assert_eq!(
                    dbc.write_row(r, &row, &mut a),
                    reference.write_row(r, &row, &mut b),
                    "{step}"
                );
            }
            4 => {
                let (r, row) = (rng.below(32), rng.row(width));
                dbc.poke_row(r, &row).unwrap();
                for (w, bit) in reference.wires.iter_mut().zip(row.iter()) {
                    w.tape[(w.offset + r as isize) as usize] = bit;
                }
            }
            5 => {
                let s = rng.below(dbc.segment_len().max(1));
                let row = rng.row(width);
                if dbc.poke_segment_row(s, &row).is_ok() {
                    let base = reference.spec.ports[0].position + s;
                    for (w, bit) in reference.wires.iter_mut().zip(row.iter()) {
                        w.tape[base] = bit;
                    }
                }
            }
            6 => {
                let all: Vec<usize> = (0..width).collect();
                let got = dbc
                    .transverse_read_all(&mut a)
                    .map(|c| all.iter().map(|&i| c.value(i)).collect::<Vec<u8>>());
                assert_eq!(got, reference.transverse_read(&all, &mut b), "{step}");
            }
            7 => {
                // The old per-wire list, and the lane mask that replaced it.
                let stride = 1 + rng.below(8);
                let wires: Vec<usize> = (rng.below(stride)..width).step_by(stride).collect();
                let lanes: Row = (0..width).map(|i| wires.contains(&i)).collect();
                let got = dbc
                    .transverse_read_wires(&lanes, &mut a)
                    .map(|c| wires.iter().map(|&i| c.value(i)).collect::<Vec<u8>>());
                assert_eq!(got, reference.transverse_read(&wires, &mut b), "{step}");
                let wide = Row::zeros(width - 1);
                let mismatch = MemError::WidthMismatch {
                    got: width - 1,
                    expected: width,
                };
                assert_eq!(
                    dbc.transverse_read_wires(&wide, &mut a),
                    Err(mismatch),
                    "{step}"
                );
            }
            8 => {
                // Up to three simultaneous masked writes; the old model
                // took them as one (wire, port, bit) list in this order.
                let parts: Vec<(PortId, Row, Row)> = (0..1 + rng.below(3))
                    .map(|_| {
                        let (stride, port) = (1 + rng.below(5), PortId(rng.below(17) / 8));
                        let first = rng.below(stride);
                        let lanes =
                            (0..width).map(|i| i >= first && (i - first).is_multiple_of(stride));
                        (port, rng.row(width), lanes.collect())
                    })
                    .collect();
                let writes: Vec<_> = parts.iter().map(|(p, d, l)| (*p, d, l)).collect();
                let listed = |(port, data, lanes): &(PortId, Row, Row)| {
                    let wires = (0..width).filter(|&i| lanes.get(i) == Some(true));
                    let list: Vec<_> = wires.map(|i| (i, *port, data.get(i).unwrap())).collect();
                    list
                };
                let list: Vec<_> = parts.iter().flat_map(listed).collect();
                assert_eq!(
                    dbc.write_bits(&writes, &mut a),
                    reference.write_bits(&list, &mut b),
                    "{step}"
                );
            }
            9 => {
                let row = rng.row(width);
                assert_eq!(
                    dbc.transverse_write_all(&row, &mut a),
                    reference.transverse_write_all(&row, &mut b),
                    "{step}"
                );
            }
            _ => {
                let got = dbc.scrub(&mut a).unwrap();
                let want = reference.scrub(&mut b);
                assert_eq!(
                    (got.realigned, got.repaired, got.out_of_range),
                    want,
                    "{step}"
                );
                assert_eq!(got.wires_checked, width as u64);
            }
        }
        assert_same_state(&dbc, &reference, &a, &b, &step);
    }
}

/// One word, a whole word, a ragged word, and the paper's width: the
/// widest a [`Row`] holds.
const WIDTHS: [usize; 4] = [8, 64, 96, 512];

/// Everything a shift could move: every wire's offset and domains.
fn tapes(dbc: &Dbc) -> Vec<(isize, Vec<Option<bool>>)> {
    let wire = |i| {
        let view = dbc.wire(i);
        let domains = (0..view.spec().total_domains).map(|p| view.peek_physical(p));
        (view.offset(), domains.collect())
    };
    (0..dbc.width()).map(wire).collect()
}

/// Lock-step shifts that repeat a distance, vary it, reach each extremity
/// exactly and then overrun it by one or more. The packed DBC follows the
/// per-wire model step by step, and an overrun leaves the DBC and the
/// meter exactly as they were.
#[test]
fn repeated_and_overrunning_shifts_match_the_per_wire_model() {
    for width in WIDTHS {
        for pim in [false, true] {
            let (mut dbc, mut reference) = twins(width, pim, None);
            let mut rng = SplitMix(width as u64 * 2 + u64::from(pim));
            for r in 0..dbc.rows() {
                let row = rng.row(width);
                dbc.poke_row(r, &row).unwrap();
                for (w, bit) in reference.wires.iter_mut().zip(row.iter()) {
                    w.tape[(w.offset + r as isize) as usize] = bit;
                }
            }
            let (mut a, mut b) = (CostMeter::new(), CostMeter::new());
            let (left, right) = dbc.shift_slack();
            let plan = [
                1,
                1,
                1,
                -2,
                -2,
                -2,
                3,
                0,
                0,
                -1,
                2,
                -1,
                right + 1,
                -(left + 1),
                right,
                right,
                1,
                7,
                -(left + right),
                -(left + right),
                -1,
                -64,
                left + right,
                1,
                0,
                -3,
                -3,
            ];
            for (k, &delta) in plan.iter().enumerate() {
                let step = format!("width {width} pim {pim} shift {k} by {delta}");
                let before = (tapes(&dbc), a.clone());
                let got = dbc.shift_all(delta, &mut a);
                assert_eq!(got, reference.shift_all(delta, &mut b), "{step}");
                if got.is_err() {
                    assert_eq!((tapes(&dbc), a.clone()), before, "{step}: overrun moved");
                }
                assert_same_state(&dbc, &reference, &a, &b, &step);
            }
            assert!(a.op_count() > 0);
        }
    }
}

fn arb_ops() -> impl Strategy<Value = Vec<(u8, u64)>> {
    proptest::collection::vec((0u8..11, any::<u64>()), 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fault_free_dbc_matches_the_per_wire_model(w in 0usize..4, pim: bool, ops in arb_ops()) {
        run(WIDTHS[w], pim, None, &ops);
    }

    #[test]
    fn faulted_dbc_matches_the_per_wire_model(
        w in 0usize..4,
        pim: bool,
        seed: u64,
        shift_rate in 0usize..3,
        tr_rate in 0usize..3,
        ops in arb_ops(),
    ) {
        let faults = FaultConfig::NONE
            .with_shift_fault_rate([0.0, 0.02, 0.3][shift_rate])
            .with_tr_fault_rate([0.0, 0.05, 0.6][tr_rate]);
        run(WIDTHS[w], pim, Some((faults, seed)), &ops);
    }
}
