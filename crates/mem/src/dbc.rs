//! Domain-block clusters: the lock-step nanowire groups of a tile.
//!
//! Everything here works on bit planes a word at a time, including three
//! kernels that each replace a loop of `Row` calls: the adder's carry
//! chain ([`Dbc::carry_chain`], its port planes in locals, the planes
//! between counted once), one carry-save step ([`Dbc::csa_step`]) and one
//! bit of the transverse-write max ([`Dbc::max_pass`]). A DBC is at most a
//! 512-wire [`Row`]; a fault-free shift is O(1). Under faults, transverse
//! reads still draw once per selected wire, and shifts walk wire by wire.

use crate::config::MemoryConfig;
use crate::error::MemError;
use crate::fault::ScrubOutcome;
use crate::row::{spread_bit, Row};
use crate::Result;
use coruscant_racetrack::params::{EnergyParams, LatencyParams};
use coruscant_racetrack::{
    walk_shift, Alignment, Cost, CostMeter, Error, FaultConfig, FaultInjector, Nanowire,
    NanowireSpec, OpClass, PortId, PositionCode,
};

const LATENCY: LatencyParams = LatencyParams::PAPER;
const ENERGY: EnergyParams = EnergyParams::PAPER;

/// A domain-block cluster: `X` parallel nanowires that shift together and
/// share sensing circuitry (paper Fig. 2d).
///
/// Bit `i` of every row is stored in nanowire `i`; the rows of the DBC are
/// the distinct domain positions. Reading or writing a row first aligns it
/// under an access port (a lock-step shift of all wires), then accesses all
/// wires in parallel: one wire's latency, every wire's energy. PIM-enabled
/// DBCs have the two-port CORUSCANT geometry and also expose transverse
/// reads and writes, which `coruscant-core` composes into its operations.
///
/// The cluster is stored as **bit planes**: one packed word vector per
/// *physical* domain position, bit `i` of a plane being that domain of
/// wire `i`. The planes form a ring entered through one shared tape
/// offset, so a lock-step shift renames the planes and zeroes the ones
/// that enter from an extremity, a row access copies one plane, and a
/// transverse read counts ones down the segment planes for every wire at
/// once ([`TrCounts`]). With fault injectors attached wires stop moving
/// together: each wire's shifts are walked step by step against its own
/// fault stream, wire 0 first, and each wire's distance from the shared
/// offset is kept in a side table that is empty otherwise.
#[derive(Debug, Clone)]
pub struct Dbc {
    spec: NanowireSpec,
    width: usize,
    /// `total_domains` planes of `width.div_ceil(64)` words each.
    planes: Vec<u64>,
    /// Ring index of the plane at physical position 0.
    head: usize,
    /// Physical position of data row 0 on every wire that has not drifted.
    offset: isize,
    /// One injector per wire; empty on a fault-free DBC.
    injectors: Vec<FaultInjector>,
    /// How far each wire's data window sits from the shared offset; empty
    /// while the wires move in lock step.
    drift: Vec<isize>,
    /// Position code installed on every wire (shift-fault scrubbing).
    code: Option<PositionCode>,
    /// Energies of the operations that take every wire at once.
    full_width: FullWidth,
    /// Energy of a lock-step shift by `d` domains at index `d`, filled in
    /// as distances come up (NaN until then).
    shift_energy: Vec<f64>,
    /// `(per-wire energy, wires, sum)` of the latest operations on some
    /// of the wires, newest first: a carry chain prices the same four lane
    /// counts every time, a multiplier's reduction writes two rows at once.
    recent: [(f64, usize, f64); RECENT],
}

const RECENT: usize = 8;

/// What a read, a write, a transverse write and a transverse read of the
/// segment cost in energy on all `width` wires at once: see [`summed`].
#[derive(Debug, Clone, Copy)]
struct FullWidth {
    read: f64,
    write: f64,
    transverse_write: f64,
    transverse_read: f64,
}

/// The sense amplifier resolves seven levels (paper Fig. 4a), which is
/// also what the three count digits of [`TrCounts`] can hold.
const SENSE_LEVELS: usize = 7;

/// The energy of one operation on `n` wires in parallel: `per_wire` added
/// `n` times onto `sums` (zeros, unless a sum continues), as DBC operations
/// have always charged it; several side by side run in parallel.
/// Floating-point addition does not round the way one multiplication
/// does, so each sum is reproduced, not re-derived.
fn summed<const K: usize>(mut sums: [f64; K], per_wire: [f64; K], n: usize) -> [f64; K] {
    for _ in 0..n {
        for (sum, e) in sums.iter_mut().zip(per_wire) {
            *sum += e;
        }
    }
    sums
}

/// `digits`, the bit-sliced counts of the wires of a word, with one more
/// domain of each wire added: a count never passes the seven sense levels.
fn tally(mut digits: [u64; 3], domain: u64) -> [u64; 3] {
    let ripple = digits[0] & domain;
    digits[0] ^= domain;
    digits[2] ^= digits[1] & ripple;
    digits[1] ^= ripple;
    digits
}

/// The three binary digits of every wire's ones-count after a parallel
/// transverse read: the `S`, `C` and `C'` rows the PIM block consumes
/// (paper §III-F), from a carry-save reduction down the segment planes.
/// Wires the read did not select count zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrCounts {
    /// Bit 0 of each count: the sum row `S` (odd parity, XOR).
    pub sum: Row,
    /// Bit 1 of each count: the carry row `C`.
    pub carry: Row,
    /// Bit 2 of each count: the super-carry row `C'`.
    pub super_carry: Row,
    /// Domains spanned by the read.
    pub span: u8,
}

impl TrCounts {
    /// The ones-count sensed on wire `i` (0 for a wire out of range).
    pub fn value(&self, i: usize) -> u8 {
        let digit = |row: &Row| u8::from(row.get(i).unwrap_or(false));
        digit(&self.sum) | digit(&self.carry) << 1 | digit(&self.super_carry) << 2
    }
}

impl Dbc {
    /// Creates a PIM-enabled DBC (two ports, TR segment of `config.trd`).
    pub fn pim_enabled(config: &MemoryConfig) -> Dbc {
        let spec = NanowireSpec::coruscant(config.rows_per_dbc, config.trd);
        Dbc::from_spec(spec, config.nanowires_per_dbc)
    }

    /// Creates a conventional storage DBC (single port, no PIM).
    pub fn storage(config: &MemoryConfig) -> Dbc {
        let spec = NanowireSpec::single_port(config.rows_per_dbc);
        Dbc::from_spec(spec, config.nanowires_per_dbc)
    }

    fn from_spec(spec: NanowireSpec, width: usize) -> Dbc {
        spec.validate().expect("invalid nanowire spec");
        let sensed = match spec.segment_len() {
            span @ 1..=SENSE_LEVELS => ENERGY.transverse_read(span),
            _ => 0.0, // no transverse read succeeds on this geometry
        };
        let e = [ENERGY.read, ENERGY.write, ENERGY.transverse_write, sensed];
        let [read, write, transverse_write, transverse_read] = summed([0.0; 4], e, width);
        Dbc {
            planes: vec![0; spec.total_domains * width.div_ceil(64)],
            head: 0,
            offset: spec.initial_offset as isize,
            injectors: Vec::new(),
            drift: Vec::new(),
            code: None,
            full_width: FullWidth {
                read,
                write,
                transverse_write,
                transverse_read,
            },
            shift_energy: vec![f64::NAN; spec.total_domains - spec.data_domains + 1],
            recent: [(0.0, 0, 0.0); RECENT],
            spec,
            width,
        }
    }

    /// Attaches fault injectors to every wire (each wire gets a distinct
    /// seed derived from `seed`).
    #[must_use]
    pub fn with_faults(mut self, config: FaultConfig, seed: u64) -> Dbc {
        // Spread per-wire seeds through the SplitMix64 finalizer. A bare
        // additive walk is NOT enough: the injector's RNG advances its
        // state by the same golden-ratio constant per draw, so
        // `seed + i*G` would make wire i's draw k+1 identical to wire
        // i+1's draw k — consecutive program executions would replay each
        // other's faults shifted by one wire, correlating re-execution
        // compare-pairs.
        let wire_seed = |i: u64| seed.wrapping_add((i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        self.injectors = (0..self.width as u64)
            .map(|i| FaultInjector::new(config, crate::fault::mix(wire_seed(i))))
            .collect();
        self.drift.resize(self.width, 0);
        self
    }

    /// Installs a position code on every wire for shift-fault scrubbing
    /// (paper §V-F / DSN'19 scheme): the widest even check window that
    /// fits both the TRD and the left overhead.
    ///
    /// # Errors
    ///
    /// Returns a device error when the geometry leaves no room for a
    /// code (e.g. single-port storage wires with no left overhead) or a
    /// wire is away from its canonical alignment.
    pub fn install_position_codes(&mut self) -> Result<()> {
        let canonical = self.spec.initial_offset;
        let window = self.spec.trd_limit.min(canonical) & !1;
        // Written on one wire (a drifted one, if any, so it is refused),
        // then copied to all: the code owns the whole left overhead.
        let drifted = (0..self.width).find(|&i| self.wire_offset(i) != canonical as isize);
        let mut guard = self.wire(drifted.unwrap_or(0));
        let code = PositionCode::plan(&guard, window)?;
        code.install(&mut guard)?;
        for pos in 0..canonical {
            let bit = guard.peek_physical(pos).expect("on the wire");
            let row = Row::from_bits(vec![bit; self.width]);
            self.plane_mut(pos).copy_from_slice(row.words());
        }
        self.code = Some(code);
        Ok(())
    }

    /// The installed position code, if any.
    pub fn position_code(&self) -> Option<&PositionCode> {
        self.code.as_ref()
    }

    /// A maintenance scrub pass: commands every wire back to its
    /// canonical alignment (the realigning shifts themselves run under
    /// fault injection) and, with position codes installed, checks and
    /// repairs each wire's alignment with one transverse read per wire.
    /// Wires are serviced one at a time, as single [`Nanowire`]s.
    ///
    /// # Errors
    ///
    /// Propagates device errors from the checks.
    pub fn scrub(&mut self, meter: &mut CostMeter) -> Result<ScrubOutcome> {
        let mut out = ScrubOutcome {
            wires_checked: self.width as u64,
            ..ScrubOutcome::default()
        };
        let canonical = self.spec.initial_offset as isize;
        if self.code.is_none() && (0..self.width).all(|i| self.wire_offset(i) == canonical) {
            return Ok(out);
        }
        self.drift.resize(self.width, 0);
        let mut outcome = Ok(());
        for i in 0..self.width {
            let mut w = self.wire(i);
            let delta = canonical - w.offset();
            if delta != 0 {
                out.realigned += 1;
                if w.shift(delta, meter).is_err() {
                    w.force_shift(delta, meter);
                }
            }
            let state = self.code.map(|code| code.check_and_repair(&mut w, meter));
            // Back into the planes: column, offset, injector state.
            for pos in 0..self.spec.total_domains {
                let bit = w.peek_physical(pos).expect("same geometry");
                self.set_bit(pos, i, bit);
            }
            self.drift[i] = w.offset() - self.offset;
            if let Some(injector) = w.take_fault_injector() {
                self.injectors[i] = injector;
            }
            match state {
                None | Some(Ok(Alignment::Aligned)) => {}
                Some(Ok(Alignment::OutOfRange)) => out.out_of_range += 1,
                Some(Ok(_)) => out.repaired += 1,
                Some(Err(e)) => {
                    outcome = Err(e.into());
                    break;
                }
            }
        }
        // Wires without injectors that ended up together are in lock step
        // again.
        if self.injectors.is_empty() && self.drift.iter().all(|&d| d == self.drift[0]) {
            self.offset += self.drift[0];
            self.drift.clear();
        }
        outcome.map(|()| out)
    }

    /// Total faults injected so far across all wires.
    pub fn injected_fault_count(&self) -> u64 {
        let counts = self.injectors.iter().map(FaultInjector::injected_count);
        counts.sum()
    }

    /// Number of nanowires (bits per row).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of data rows.
    pub fn rows(&self) -> usize {
        self.spec.data_domains
    }

    /// Whether this DBC carries the PIM extensions (second port, TR).
    pub fn is_pim(&self) -> bool {
        self.spec.ports.len() > 1
    }

    /// Length of the inter-port segment (0 for storage DBCs).
    pub fn segment_len(&self) -> usize {
        self.spec.segment_len()
    }

    /// Wire `i` as a value: its column of the bit planes, its offset and a
    /// copy of its fault injector (oracle inspection; the DBC does not see
    /// what is done to the copy).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn wire(&self, i: usize) -> Nanowire {
        assert!(i < self.width, "wire {i} of a {}-wire DBC", self.width);
        let mut tape = vec![0u64; self.spec.total_domains.div_ceil(64)];
        for pos in 0..self.spec.total_domains {
            tape[pos / 64] |= (self.plane(pos)[i / 64] >> (i % 64) & 1) << (pos % 64);
        }
        let wire = Nanowire::from_tape(self.spec.clone(), tape, self.wire_offset(i));
        match self.injectors.get(i) {
            Some(injector) => wire.with_fault_injector(injector.clone()),
            None => wire,
        }
    }

    /// Maximum legal lock-step shift in each direction from wire 0's
    /// offset: `(left, right)` in domains.
    pub fn shift_slack(&self) -> (isize, isize) {
        (self.wire_offset(0), self.max_offset() - self.wire_offset(0))
    }

    fn max_offset(&self) -> isize {
        (self.spec.total_domains - self.spec.data_domains) as isize
    }

    fn wire_offset(&self, i: usize) -> isize {
        self.offset + self.drift.get(i).copied().unwrap_or(0)
    }

    fn words(&self) -> usize {
        self.width.div_ceil(64)
    }

    /// Where the plane at physical position `pos` starts in `planes`.
    fn plane_at(&self, pos: usize) -> usize {
        let (ring, total) = (self.head + pos, self.spec.total_domains);
        (if ring < total { ring } else { ring - total }) * self.words()
    }

    fn plane(&self, pos: usize) -> &[u64] {
        &self.planes[self.plane_at(pos)..][..self.words()]
    }

    fn plane_mut(&mut self, pos: usize) -> &mut [u64] {
        let (at, words) = (self.plane_at(pos), self.words());
        &mut self.planes[at..][..words]
    }

    fn plane_row(&self, pos: usize) -> Row {
        Row::from_u64_words(self.width, self.plane(pos))
    }

    fn set_bit(&mut self, pos: usize, wire: usize, bit: bool) {
        let word = &mut self.plane_mut(pos)[wire / 64];
        *word = *word & !(1 << (wire % 64)) | u64::from(bit) << (wire % 64);
    }

    /// The position under `port`; with `write`, only if data can be
    /// written through it.
    fn port(&self, id: PortId, write: bool) -> Result<usize> {
        let port = self.spec.ports.get(id.0).ok_or(Error::UnknownPort(id.0))?;
        if write && !port.kind.can_write() {
            let (port, needed) = (id.0, "write");
            return Err(Error::PortCapability { port, needed }.into());
        }
        Ok(port.position)
    }

    /// The segment `[lo, hi]` a full transverse access spans.
    fn segment(&self) -> Result<(usize, usize)> {
        let lo = self.port(PortId::LEFT, false)?;
        let hi = self.port(PortId::RIGHT, false)?;
        let (span, limit) = (hi - lo + 1, self.spec.trd_limit);
        if span > limit {
            return Err(Error::TrdExceeded { span, limit }.into());
        }
        Ok((lo, hi))
    }

    /// Where the segment planes sit in `planes`, left port first, and how
    /// many there are: no more than the sense amplifier tells apart. Then
    /// each port of `writes` must be one that can write.
    fn sensed_planes(&self, writes: &[PortId]) -> Result<([usize; SENSE_LEVELS], usize)> {
        let (lo, hi) = self.segment()?;
        let (span, limit) = (hi - lo + 1, SENSE_LEVELS);
        if span > limit {
            return Err(Error::TrdExceeded { span, limit }.into());
        }
        for &port in writes {
            self.port(port, true)?;
        }
        Ok((
            std::array::from_fn(|k| self.plane_at(lo + k.min(span - 1))),
            span,
        ))
    }

    /// The ones, twos and fours digits of the transverse count of every
    /// wire `lane` selects in word `w` of the segment planes at `at` (0 on
    /// the others), each selected wire's count passed through its fault
    /// injector if it has one.
    fn count_word(&mut self, at: &[usize], w: usize, lane: u64) -> [u64; 3] {
        let count = |d, &at: &usize| tally(d, self.planes[at + w] & lane);
        let digits = at.iter().fold([0; 3], count);
        self.sense(w, lane, at.len(), digits)
    }

    /// `digits`, counts over `span` domains, with the count of each wire
    /// `lane` selects in word `w` passed through its fault injector, if any.
    fn sense(&mut self, w: usize, lane: u64, span: usize, mut digits: [u64; 3]) -> [u64; 3] {
        let mut faulted = if self.injectors.is_empty() { 0 } else { lane };
        while faulted != 0 {
            let b = faulted.trailing_zeros();
            faulted &= !(1 << b);
            let count = digits.iter().rev().fold(0, |c, d| c << 1 | (d >> b & 1));
            let sensed = self.injectors[w * 64 + b as usize].sense(count as u8, span as u8);
            for (k, digit) in digits.iter_mut().enumerate() {
                *digit = *digit & !(1 << b) | u64::from(sensed >> k & 1) << b;
            }
        }
        digits
    }

    fn check_row(&self, row: usize) -> Result<()> {
        let rows = self.rows();
        (row < rows)
            .then_some(())
            .ok_or(MemError::RowOutOfRange { row, rows })
    }

    fn check_width(&self, data: &Row) -> Result<()> {
        let (got, expected) = (data.width(), self.width);
        (got == expected)
            .then_some(())
            .ok_or(MemError::WidthMismatch { got, expected })
    }

    /// The energy of an operation on `n` wires in parallel that costs
    /// `per_wire` on one and `full_width` on all of them.
    fn energy(&mut self, full_width: f64, per_wire: f64, n: usize) -> f64 {
        if n == self.width {
            return full_width;
        }
        let known = |&&(e, wires, _): &&(f64, usize, f64)| e == per_wire && wires == n;
        if let Some(&(_, _, sum)) = self.recent.iter().find(known) {
            return sum;
        }
        // Past the width, the first `width` terms are `full_width`.
        let (from, more) = if n > self.width {
            (full_width, n - self.width)
        } else {
            (0.0, n)
        };
        let [sum] = summed([from], [per_wire], more);
        self.recent.rotate_right(1);
        self.recent[0] = (per_wire, n, sum);
        sum
    }

    /// Moves every wire `delta(wire offset)` domains in lock step and
    /// charges the shift: latency of the longest wire, energies added
    /// wire by wire.
    fn shift_by(&mut self, delta: impl Fn(isize) -> isize, meter: &mut CostMeter) -> Result<()> {
        let (max_offset, total) = (self.max_offset(), self.spec.total_domains);
        if self.drift.is_empty() {
            // What `walk_shift` checks and charges, without the walk: an
            // overrun moves nothing, a move is priced by its distance.
            let delta = delta(self.offset);
            if !(0..=max_offset).contains(&(self.offset + delta)) {
                let overrun = walk_shift(self.offset, max_offset, delta, None, Cost::ZERO, meter);
                return Ok(overrun.1?);
            }
            // The planes pushed off one extremity re-enter, emptied, at
            // the other.
            let steps = delta.unsigned_abs();
            let (head, entering) = match delta > 0 {
                true => (self.head + total - steps, 0..steps),
                false => (self.head + steps, total - steps..total),
            };
            self.head = head % total;
            // At most two runs of the ring: up to its end, then from its start.
            let (from, words) = (self.plane_at(entering.start), self.words());
            let end = from + steps * words;
            let wrapped = end.saturating_sub(self.planes.len());
            self.planes[from..end - wrapped].fill(0);
            self.planes[..wrapped].fill(0);
            self.offset += delta;
            if self.shift_energy[steps].is_nan() {
                // Eight distances priced side by side, in the time of one:
                // each walk's steps on one wire, summed over the wires.
                let first = steps / 8 * 8;
                let [walk] = summed([0.0], [ENERGY.shift_per_step], first);
                let walks = std::array::from_fn(|k| summed([walk], [ENERGY.shift_per_step], k)[0]);
                let priced = summed([0.0; 8], walks, self.width);
                let block = self.shift_energy[first..].iter_mut();
                block.zip(priced).for_each(|(energy, e)| *energy = e);
            }
            let energy = self.shift_energy[steps];
            let cost = Cost::new(LATENCY.shift_per_step * steps as u64, energy);
            meter.charge_class(OpClass::Shift, cost);
            return Ok(());
        }
        // Wire by wire, every step of a wire before the next wire: a wire
        // that overruns keeps what it moved, the wires after it stay put
        // and nothing is charged.
        let step_cost = Cost::new(LATENCY.shift_per_step, ENERGY.shift_per_step);
        let (mut combined, mut outcome) = (Cost::ZERO, Ok(()));
        let mut moves = vec![0; self.width];
        for (i, moved) in moves.iter_mut().enumerate() {
            let at = self.offset + self.drift[i];
            let (mut walk, injector) = (CostMeter::new(), self.injectors.get_mut(i));
            (*moved, outcome) =
                walk_shift(at, max_offset, delta(at), injector, step_cost, &mut walk);
            self.drift[i] += *moved;
            if outcome.is_err() {
                break;
            }
            combined = combined.in_parallel_with(walk.total());
        }
        // Every column moves its own distance: one masked pass over the
        // planes per distinct distance.
        let (lo, hi) = (*moves.iter().min().unwrap(), *moves.iter().max().unwrap());
        let mut moved = vec![0u64; self.planes.len()];
        for by in lo..=hi {
            let lanes: Row = moves.iter().map(|&m| m == by).collect();
            for pos in by.max(0)..(total as isize).min(total as isize + by) {
                let to = &mut moved[pos as usize * self.words()..][..self.words()];
                let from = self.plane((pos - by) as usize);
                for ((to, from), lane) in to.iter_mut().zip(from).zip(lanes.words()) {
                    *to |= from & lane;
                }
            }
        }
        (self.planes, self.head) = (moved, 0);
        outcome?;
        meter.charge_class(OpClass::Shift, combined);
        Ok(())
    }

    /// Lock-step shift of every wire by `delta` domains. Latency is one
    /// wire's shift; energy accumulates across all wires.
    ///
    /// # Errors
    ///
    /// Returns a device error if the shift would overrun the wires; a
    /// fault-free DBC is then unchanged.
    pub fn shift_all(&mut self, delta: isize, meter: &mut CostMeter) -> Result<()> {
        self.shift_by(|_| delta, meter)
    }

    /// Aligns data row `r` under `port` on every wire.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::RowOutOfRange`] or a device error for an
    /// unreachable alignment.
    pub fn align_row(&mut self, r: usize, port: PortId, meter: &mut CostMeter) -> Result<()> {
        self.check_row(r)?;
        let target = self.port(port, false)? as isize - r as isize;
        self.shift_by(|offset| target - offset, meter)
    }

    /// Picks a feasible access port for row `r` (the one with the shortest
    /// reachable alignment), mirroring the controller's shift-minimizing
    /// policy.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::RowOutOfRange`] for a bad row.
    pub fn nearest_port(&self, r: usize) -> Result<PortId> {
        self.check_row(r)?;
        let (max_offset, offset) = (self.max_offset(), self.wire_offset(0));
        // The first port of the shortest reachable alignment.
        let mut best = None;
        for (id, port) in self.spec.ports.iter().enumerate() {
            let target = port.position as isize - r as isize;
            let distance = (target - offset).unsigned_abs();
            if (0..=max_offset).contains(&target) && best.is_none_or(|(d, _)| distance < d) {
                best = Some((distance, PortId(id)));
            }
        }
        let none = || MemError::BadLocation(format!("row {r} unreachable from any port"));
        best.map(|(_, port)| port).ok_or_else(none)
    }

    /// Reads row `r`: aligns it under the nearest feasible port and senses
    /// all wires in parallel.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::RowOutOfRange`] or a device error.
    pub fn read_row(&mut self, r: usize, meter: &mut CostMeter) -> Result<Row> {
        let port = self.nearest_port(r)?;
        self.align_row(r, port, meter)?;
        self.read_port(port, meter)
    }

    /// Senses the row currently under `port` on all wires in parallel,
    /// without aligning anything first.
    ///
    /// # Errors
    ///
    /// Returns a device error for a bad port.
    pub fn read_port(&mut self, port: PortId, meter: &mut CostMeter) -> Result<Row> {
        let row = self.plane_row(self.port(port, false)?);
        let energy = self.full_width.read;
        meter.charge_class(OpClass::Read, Cost::new(LATENCY.read, energy));
        Ok(row)
    }

    /// Writes row `r` (align + parallel write).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::WidthMismatch`] if `data` is not exactly one bit
    /// per wire, [`MemError::RowOutOfRange`], or a device error.
    pub fn write_row(&mut self, r: usize, data: &Row, meter: &mut CostMeter) -> Result<()> {
        self.check_width(data)?;
        let port = self.nearest_port(r)?;
        self.align_row(r, port, meter)?;
        self.write_port(port, data, meter)
    }

    /// Writes `data` under `port` on all wires in parallel, without
    /// aligning anything first: [`Dbc::write_bits`] of every wire.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::WidthMismatch`] or a device error for a port
    /// that cannot write.
    pub fn write_port(&mut self, port: PortId, data: &Row, meter: &mut CostMeter) -> Result<()> {
        self.check_width(data)?;
        let pos = self.port(port, true)?;
        self.plane_mut(pos).copy_from_slice(data.words());
        let energy = self.full_width.write;
        meter.charge_class(OpClass::Write, Cost::new(LATENCY.write, energy));
        Ok(())
    }

    /// Reads row `r` without device access or cost — an oracle for tests
    /// and verification.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::RowOutOfRange`] for a bad row.
    pub fn peek_row(&self, r: usize) -> Result<Row> {
        self.check_row(r)?;
        if self.drift.is_empty() {
            return Ok(self.plane_row((self.offset + r as isize) as usize));
        }
        let at = |i: usize| (self.wire_offset(i) + r as isize) as usize;
        let bit = |i: usize| self.plane(at(i))[i / 64] >> (i % 64) & 1 == 1;
        Ok((0..self.width).map(bit).collect())
    }

    /// Writes row `r` directly into the model (setup helper; no cost).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::WidthMismatch`] or [`MemError::RowOutOfRange`].
    pub fn poke_row(&mut self, r: usize, data: &Row) -> Result<()> {
        self.check_row(r)?;
        self.check_width(data)?;
        if self.drift.is_empty() {
            let pos = (self.offset + r as isize) as usize;
            self.plane_mut(pos).copy_from_slice(data.words());
            return Ok(());
        }
        for (i, bit) in data.iter().enumerate() {
            self.set_bit((self.wire_offset(i) + r as isize) as usize, i, bit);
        }
        Ok(())
    }

    /// Transverse read on every wire in parallel. Latency of a single TR;
    /// energy scales with width.
    ///
    /// # Errors
    ///
    /// Returns a device error if the DBC has fewer than two ports or the
    /// segment exceeds the TRD.
    pub fn transverse_read_all(&mut self, meter: &mut CostMeter) -> Result<TrCounts> {
        self.transverse_read_wires(&Row::ones(self.width), meter)
    }

    /// Transverse read on the wires `lanes` selects, in parallel (one TR
    /// latency).
    ///
    /// # Errors
    ///
    /// As [`Dbc::transverse_read_all`], or [`MemError::WidthMismatch`] for
    /// a mask that is not one bit per wire.
    pub fn transverse_read_wires(
        &mut self,
        lanes: &Row,
        meter: &mut CostMeter,
    ) -> Result<TrCounts> {
        self.check_width(lanes)?;
        let selected = lanes.popcount();
        let (at, span) = self.sensed_planes(&[])?;
        let [mut sum, mut carry, mut super_carry] = [(); 3].map(|()| Row::zeros(self.width));
        let (ones, twos, fours) = (sum.words_mut(), carry.words_mut(), super_carry.words_mut());
        for (w, &lane) in lanes.words().iter().enumerate() {
            [ones[w], twos[w], fours[w]] = self.count_word(&at[..span], w, lane);
        }
        let per_wire = ENERGY.transverse_read(span);
        let energy = self.energy(self.full_width.transverse_read, per_wire, selected);
        let cycles = LATENCY.transverse_read * u64::from(selected > 0);
        meter.charge_class(OpClass::TransverseRead, Cost::new(cycles, energy));
        let span = span as u8;
        Ok(TrCounts {
            sum,
            carry,
            super_carry,
            span,
        })
    }

    /// Parallel masked writes: each `(port, data, lanes)` lands `data`
    /// under `port` on the wires `lanes` selects, all simultaneously (one
    /// write latency, energy per wire written).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::WidthMismatch`] for data or a mask that is not
    /// one bit per wire, or a device error for a bad port (the writes
    /// listed before it land).
    pub fn write_bits(
        &mut self,
        writes: &[(PortId, &Row, &Row)],
        meter: &mut CostMeter,
    ) -> Result<()> {
        let mut written = 0;
        for &(port, data, lanes) in writes {
            self.check_width(data)?;
            self.check_width(lanes)?;
            let pos = self.port(port, true)?;
            let plane = self.plane_mut(pos).iter_mut();
            for ((word, data), lane) in plane.zip(data.words()).zip(lanes.words()) {
                *word = *word & !lane | data & lane;
            }
            written += lanes.popcount();
        }
        let energy = self.energy(self.full_width.write, ENERGY.write, written);
        let cycles = LATENCY.write * u64::from(written > 0);
        meter.charge_class(OpClass::Write, Cost::new(cycles, energy));
        Ok(())
    }

    /// The carry chain of a multi-operand addition (paper §III-C) over the
    /// operands in the segment: step `j` senses bit `j` of every lane and
    /// writes `S` under the left port of that wire, `C` under the right
    /// port one wire up and, with `super_carry`, `C'` under the left port
    /// two up (none past a lane top), charging what
    /// [`Dbc::transverse_read_wires`] and [`Dbc::write_bits`] would.
    /// Returns the lane sums, the row under the left port.
    ///
    /// # Errors
    ///
    /// As [`Dbc::transverse_read_all`], or a device error for a port that
    /// cannot write; all checked before the first step.
    ///
    /// # Panics
    ///
    /// Panics unless `blocksize` is a power of two dividing the width.
    pub fn carry_chain(
        &mut self,
        blocksize: usize,
        super_carry: bool,
        meter: &mut CostMeter,
    ) -> Result<Row> {
        let (width, words) = (self.width, self.words());
        assert!(width.is_multiple_of(blocksize), "bad lane width");
        let lane0 = Row::lane_bit(width, blocksize, 0);
        let (at, span) = self.sensed_planes(&[PortId::LEFT, PortId::RIGHT])?;
        // A step senses one wire per lane and writes one, two or three.
        let (lanes, per_wire) = (width / blocksize, ENERGY.transverse_read(span));
        let sensed = self.energy(self.full_width.transverse_read, per_wire, lanes);
        let read = Cost::new(LATENCY.transverse_read, sensed);
        let written = [1, 2, 3].map(|k| {
            let energy = self.energy(self.full_width.write, ENERGY.write, k * lanes);
            Cost::new(LATENCY.write, energy)
        });
        let (left, right) = (at[0], at[span - 1]);
        let starts = lane0.words();
        // Bit `j` of every lane in word `w`: bit 0 of the lanes `j / 64`
        // words down, moved up; none once `j` passes the lane top.
        let bit = |j: usize, w: usize| match w.checked_sub(j / 64) {
            Some(from) if j < blocksize => starts[from] << (j % 64),
            _ => 0,
        };
        // No step writes the planes between the ports: they are counted
        // once, and each step adds the two port domains it rewrites, which
        // stay here until the chain ends.
        let (mut inner, mut lefts, mut rights) = ([[0; 3]; 8], [0; 8], [0; 8]);
        for w in 0..words {
            let inside = at[1..span - 1].iter();
            inner[w] = inside.fold([0; 3], |d, &at| tally(d, self.planes[at + w]));
            (lefts[w], rights[w]) = (self.planes[left + w], self.planes[right + w]);
        }
        for j in 0..blocksize {
            // The digits of the word below, for carries that cross a word.
            let mut below = [0; 3];
            for w in 0..words {
                let lane = bit(j, w);
                let counted = tally(inner[w].map(|d| d & lane), lefts[w] & lane);
                let counted = tally(counted, rights[w] & lane);
                let [ones, twos, fours] = self.sense(w, lane, span, counted);
                let up1 = bit(j + 1, w);
                let up2 = if super_carry { bit(j + 2, w) } else { 0 };
                let carry = (twos << 1 | below[1] >> 63) & up1;
                let super_ = (fours << 2 | below[2] >> 62) & up2;
                lefts[w] = lefts[w] & !(lane | up2) | ones | super_;
                rights[w] = rights[w] & !up1 | carry;
                below = [ones, twos, fours];
            }
            let routed =
                usize::from(j + 1 < blocksize) + usize::from(super_carry && j + 2 < blocksize);
            meter.charge_class(OpClass::TransverseRead, read);
            meter.charge_class(OpClass::Write, written[routed]);
        }
        self.planes[left..][..words].copy_from_slice(&lefts[..words]);
        self.planes[right..][..words].copy_from_slice(&rights[..words]);
        Ok(Row::from_u64_words(width, &lefts[..words]))
    }

    /// One carry-save step (paper §III-D3) over the operands in the
    /// segment: every wire's count leaves `S` under its left port and `C`
    /// under the right port one wire up; with `super_carry`, a one-domain
    /// shift then brings the row for `C'`, two wires up, under the left
    /// port. Carries past a lane top drop. Charged as the transverse read,
    /// one write of both rows, the shift and the `C'` write were.
    ///
    /// # Errors
    ///
    /// As [`Dbc::carry_chain`], checked first; then a device error from the
    /// shift.
    pub fn csa_step(
        &mut self,
        blocksize: usize,
        super_carry: bool,
        meter: &mut CostMeter,
    ) -> Result<()> {
        let (at, span) = self.sensed_planes(&[PortId::LEFT, PortId::RIGHT])?;
        let (at, left, right) = (&at[..span], at[0], at[span - 1]);
        // Bit 0 of every lane, the one past the last wire included.
        let starts = Row::lane_bit(self.words() * 64, blocksize, 0);
        // Every wire at first: the mask a word is counted under, then C'.
        let (mut super_carries, mut below) = (Row::ones(self.width), [0; 3]);
        for (w, &start) in starts.words().iter().enumerate() {
            let wires = super_carries.words()[w];
            let [ones, twos, fours] = self.count_word(at, w, wires);
            self.planes[left + w] = ones;
            self.planes[right + w] = (twos << 1 | below[1] >> 63) & !start;
            super_carries.words_mut()[w] = (fours << 2 | below[2] >> 62) & !(start | start << 1);
            below = [ones, twos, fours];
        }
        let sensed = Cost::new(LATENCY.transverse_read, self.full_width.transverse_read);
        meter.charge_class(OpClass::TransverseRead, sensed);
        let written = self.energy(self.full_width.write, ENERGY.write, 2 * self.width);
        meter.charge_class(OpClass::Write, Cost::new(LATENCY.write, written));
        if super_carry {
            self.shift_all(1, meter)?;
            self.write_port(PortId::LEFT, &super_carries, meter)?;
        }
        Ok(())
    }

    /// Bit position `j` of the transverse-write max (paper §IV-B) over the
    /// `blocksize`-bit words in the segment: a transverse read marks the
    /// lanes where some word has bit `j` set, then `rounds` times the word
    /// under the right port is read, cleared in every marked lane where its
    /// own bit `j` is `0`, and written back under the left port as the
    /// segment shifts up one position. Charged as the separate calls were
    /// (the reads unclassed).
    ///
    /// # Errors
    ///
    /// As [`Dbc::transverse_read_all`], or a device error for a left port
    /// that cannot write; checked first.
    pub fn max_pass(
        &mut self,
        j: usize,
        blocksize: usize,
        rounds: usize,
        meter: &mut CostMeter,
    ) -> Result<()> {
        let (at, span) = self.sensed_planes(&[PortId::LEFT])?;
        let (at, right) = (&at[..span], at[span - 1]);
        // Every wire at first: the mask a word is counted under.
        let mut marked = Row::ones(self.width);
        for w in 0..self.words() {
            let [ones, twos, fours] = self.count_word(at, w, marked.words()[w]);
            marked.words_mut()[w] = ones | twos | fours;
        }
        let sensed = Cost::new(LATENCY.transverse_read, self.full_width.transverse_read);
        meter.charge_class(OpClass::TransverseRead, sensed);
        let read = Cost::new(LATENCY.read, self.full_width.read);
        let written = Cost::new(LATENCY.transverse_write, self.full_width.transverse_write);
        let per = blocksize.div_ceil(64);
        for _ in 0..rounds {
            meter.charge(read);
            // All words of a lane lose at once, on the one that holds bit `j`.
            for lane in (0..self.words()).step_by(per) {
                let holder = lane + j / 64;
                let losers = marked.words()[holder] & !self.planes[right + holder];
                let loses = spread_bit(losers, j, blocksize);
                for w in lane..lane + per {
                    let word = self.planes[right + w] & !loses;
                    for k in (1..span).rev() {
                        self.planes[at[k] + w] = self.planes[at[k - 1] + w];
                    }
                    self.planes[at[0] + w] = word;
                }
            }
            meter.charge_class(OpClass::TransverseWrite, written);
        }
        Ok(())
    }

    /// Transverse write on every wire in parallel: writes `row` under the
    /// left port while segment-shifting, returning the expelled row from
    /// under the right ports.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::WidthMismatch`] or a device error.
    pub fn transverse_write_all(&mut self, row: &Row, meter: &mut CostMeter) -> Result<Row> {
        self.check_width(row)?;
        self.port(PortId::LEFT, true)?;
        let (lo, hi) = self.segment()?;
        let expelled = self.plane_row(hi);
        for pos in (lo + 1..=hi).rev() {
            let (from, to, words) = (self.plane_at(pos - 1), self.plane_at(pos), self.words());
            self.planes.copy_within(from..from + words, to);
        }
        self.plane_mut(lo).copy_from_slice(row.words());
        let energy = self.full_width.transverse_write;
        let cost = Cost::new(LATENCY.transverse_write, energy);
        meter.charge_class(OpClass::TransverseWrite, cost);
        Ok(expelled)
    }

    /// The segment contents of every wire as rows: element `s` is the row
    /// formed by segment position `s` across all wires (oracle; no cost).
    pub fn peek_segment_rows(&self) -> Vec<Row> {
        let base = self.spec.ports[0].position;
        (base..base + self.segment_len())
            .map(|pos| self.plane_row(pos))
            .collect()
    }

    /// Writes segment position `s` across all wires directly (setup
    /// helper; no cost).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::WidthMismatch`] or a device error for a bad
    /// segment position.
    pub fn poke_segment_row(&mut self, s: usize, data: &Row) -> Result<()> {
        self.check_width(data)?;
        let len = self.segment_len();
        if s >= len {
            return Err(Error::SegmentIndex { index: s, len }.into());
        }
        let pos = self.spec.ports[0].position + s;
        self.plane_mut(pos).copy_from_slice(data.words());
        Ok(())
    }
}
