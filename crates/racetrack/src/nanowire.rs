//! The nanowire: a shiftable train of magnetic domains with access ports.

use crate::cost::{Cost, CostMeter, OpClass};
use crate::error::Error;
use crate::fault::FaultInjector;
use crate::params::{EnergyParams, LatencyParams};
use crate::port::{AccessPort, PortId};
use crate::Result;
use serde::{Deserialize, Serialize};

/// Static geometry of a nanowire: how many data domains it stores, how many
/// total domains it has (data plus overhead), where its access ports sit,
/// and the maximum transverse-read distance its sensing supports.
///
/// Positions are *physical*: domain 0 is the left extremity. The stored data
/// occupies a window of `data_domains` consecutive physical positions that
/// moves as the wire shifts; `initial_offset` is the window start in the
/// canonical (freshly initialized) state.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NanowireSpec {
    /// Number of logical data rows stored (Y in the paper, typically 32).
    pub data_domains: usize,
    /// Total physical domains including overhead (grey domains in Fig. 1).
    pub total_domains: usize,
    /// Physical position of data row 0 in the canonical state.
    pub initial_offset: usize,
    /// Access ports, ordered by physical position.
    pub ports: Vec<AccessPort>,
    /// Maximum number of domains a single transverse access may span.
    pub trd_limit: usize,
}

impl NanowireSpec {
    /// A conventional single-access-port wire: `2Y - 1` total domains with a
    /// read/write port positioned so every data row can reach it (paper
    /// §III-A: 63 domains for Y = 32).
    pub fn single_port(data_domains: usize) -> NanowireSpec {
        let y = data_domains;
        NanowireSpec {
            data_domains: y,
            total_domains: 2 * y - 1,
            initial_offset: 0,
            ports: vec![AccessPort::read_write(y - 1)],
            trd_limit: 1,
        }
    }

    /// A CORUSCANT PIM wire: two read/write ports spaced `trd - 1` apart so
    /// the segment between them (ports inclusive) spans exactly `trd`
    /// domains, with enough overhead domains for any row to align under a
    /// feasible port.
    ///
    /// For Y = 32 and TRD = 7 this yields 25 overhead domains (57 total),
    /// matching the paper's §III-A accounting.
    ///
    /// # Panics
    ///
    /// Panics if `trd < 2` or `trd > data_domains`.
    pub fn coruscant(data_domains: usize, trd: usize) -> NanowireSpec {
        assert!(trd >= 2, "CORUSCANT wires need two ports (trd >= 2)");
        assert!(
            trd <= data_domains,
            "transverse segment cannot exceed the data length"
        );
        let y = data_domains;
        // Center the inter-port segment on the data window.
        let dl = (y - trd).div_ceil(2); // data index under the left port, canonically
        let dr = dl + trd - 1; // data index under the right port, canonically
                               // Overhead: aligning row (y-1) under the right port shifts the data
                               // left by (y-1-dr); aligning row 0 under the left port shifts it
                               // right by dl.
        let left_overhead = y - 1 - dr;
        let right_overhead = dl;
        let total = y + left_overhead + right_overhead;
        NanowireSpec {
            data_domains: y,
            total_domains: total,
            initial_offset: left_overhead,
            ports: vec![
                AccessPort::read_write(left_overhead + dl),
                AccessPort::read_write(left_overhead + dr),
            ],
            trd_limit: trd,
        }
    }

    /// Number of overhead (non-data) domains.
    pub fn overhead_domains(&self) -> usize {
        self.total_domains - self.data_domains
    }

    /// Number of domains in the segment between the outermost ports,
    /// ports inclusive. Zero if the wire has fewer than two ports.
    pub fn segment_len(&self) -> usize {
        match (self.ports.first(), self.ports.last()) {
            (Some(a), Some(b)) if self.ports.len() >= 2 => b.position - a.position + 1,
            _ => 0,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadSpec`] when ports are out of range or unordered,
    /// when the data window does not fit, or when the TRD limit is zero.
    pub fn validate(&self) -> Result<()> {
        if self.data_domains == 0 {
            return Err(Error::BadSpec("zero data domains".into()));
        }
        if self.total_domains < self.data_domains {
            return Err(Error::BadSpec(
                "total domains smaller than data domains".into(),
            ));
        }
        if self.initial_offset + self.data_domains > self.total_domains {
            return Err(Error::BadSpec("initial data window out of range".into()));
        }
        if self.ports.is_empty() {
            return Err(Error::BadSpec("a nanowire needs at least one port".into()));
        }
        let mut prev: Option<usize> = None;
        for p in &self.ports {
            if p.position >= self.total_domains {
                return Err(Error::BadSpec(format!(
                    "port at {} beyond wire of {} domains",
                    p.position, self.total_domains
                )));
            }
            if let Some(q) = prev {
                if p.position <= q {
                    return Err(Error::BadSpec("ports must be strictly ordered".into()));
                }
            }
            prev = Some(p.position);
        }
        if self.trd_limit == 0 {
            return Err(Error::BadSpec("TRD limit must be at least 1".into()));
        }
        Ok(())
    }
}

/// Result of a transverse read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrOutcome {
    /// Sensed number of `1` domains in the span (possibly perturbed by an
    /// injected fault).
    pub value: u8,
    /// Number of domains spanned.
    pub span: u8,
}

impl TrOutcome {
    /// Whether at least `level` ones were sensed — the `SA[j]` outputs of
    /// the CORUSCANT seven-level sense amplifier (paper Fig. 4a).
    pub fn at_least(&self, level: u8) -> bool {
        self.value >= level
    }
}

/// A simulated DWM nanowire.
///
/// The wire owns its domain train (one bit per domain, packed into 64-bit
/// words), tracks the current shift offset of the data window, and charges
/// every operation to a caller-provided [`CostMeter`].
///
/// # Example
///
/// ```
/// use coruscant_racetrack::{CostMeter, Nanowire, NanowireSpec, PortId};
///
/// # fn main() -> Result<(), coruscant_racetrack::Error> {
/// let mut wire = Nanowire::new(NanowireSpec::coruscant(32, 7));
/// let mut meter = CostMeter::new();
///
/// // Align data row 3 under the left port and write a bit through it.
/// wire.align_row(3, PortId::LEFT, &mut meter)?;
/// wire.write(PortId::LEFT, true, &mut meter)?;
/// assert!(wire.read(PortId::LEFT, &mut meter)?);
/// assert_eq!(wire.row(3), Some(true));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Nanowire {
    spec: NanowireSpec,
    /// Domain `p` is bit `p % 64` of word `p / 64`; bits past
    /// `total_domains` stay zero.
    domains: Vec<u64>,
    offset: isize,
    injector: Option<FaultInjector>,
    latency: LatencyParams,
    energy: EnergyParams,
}

impl Nanowire {
    /// Creates a zero-initialized wire from a specification.
    ///
    /// # Panics
    ///
    /// Panics if the specification is invalid; use
    /// [`NanowireSpec::validate`] to check first.
    pub fn new(spec: NanowireSpec) -> Nanowire {
        let offset = spec.initial_offset as isize;
        let tape = vec![0; spec.total_domains.div_ceil(64)];
        Nanowire::from_tape(spec, tape, offset)
    }

    /// Rebuilds a wire from a packed domain train (domain `p` is bit
    /// `p % 64` of word `p / 64`) and the offset its data window sits at —
    /// how a DBC hands out one of its wires as a value.
    ///
    /// # Panics
    ///
    /// Panics on an invalid specification, a train of the wrong length or
    /// an offset that leaves the data window off the wire.
    pub fn from_tape(spec: NanowireSpec, mut tape: Vec<u64>, offset: isize) -> Nanowire {
        spec.validate().expect("invalid nanowire spec");
        assert_eq!(tape.len(), spec.total_domains.div_ceil(64), "tape length");
        assert!(
            (0..=(spec.total_domains - spec.data_domains) as isize).contains(&offset),
            "data window off the wire"
        );
        let last = tape.len() - 1;
        tape[last] &= tail_mask(spec.total_domains);
        Nanowire {
            spec,
            domains: tape,
            offset,
            injector: None,
            latency: LatencyParams::PAPER,
            energy: EnergyParams::PAPER,
        }
    }

    /// Detaches and returns the fault injector, if one is attached.
    pub fn take_fault_injector(&mut self) -> Option<FaultInjector> {
        self.injector.take()
    }

    fn bit(&self, pos: usize) -> bool {
        self.domains[pos / 64] >> (pos % 64) & 1 == 1
    }

    fn set_bit(&mut self, pos: usize, bit: bool) {
        let word = &mut self.domains[pos / 64];
        *word = *word & !(1 << (pos % 64)) | u64::from(bit) << (pos % 64);
    }

    /// Attaches a fault injector; subsequent shifts and transverse reads may
    /// be perturbed.
    #[must_use]
    pub fn with_fault_injector(mut self, injector: FaultInjector) -> Nanowire {
        self.injector = Some(injector);
        self
    }

    /// Overrides the latency model.
    #[must_use]
    pub fn with_latency(mut self, latency: LatencyParams) -> Nanowire {
        self.latency = latency;
        self
    }

    /// Overrides the energy model.
    #[must_use]
    pub fn with_energy(mut self, energy: EnergyParams) -> Nanowire {
        self.energy = energy;
        self
    }

    /// The wire's specification.
    pub fn spec(&self) -> &NanowireSpec {
        &self.spec
    }

    /// Current physical position of data row 0.
    pub fn offset(&self) -> isize {
        self.offset
    }

    /// The logical data row currently under `port`, if the port is over the
    /// data window.
    pub fn row_under_port(&self, port: PortId) -> Result<Option<usize>> {
        let p = self.port(port)?;
        let idx = p.position as isize - self.offset;
        if idx >= 0 && (idx as usize) < self.spec.data_domains {
            Ok(Some(idx as usize))
        } else {
            Ok(None)
        }
    }

    /// Reads logical data row `r` directly from the model (no device access,
    /// no cost) — an oracle for tests and verification. Returns `None` if
    /// `r` is out of range.
    pub fn row(&self, r: usize) -> Option<bool> {
        if r >= self.spec.data_domains {
            return None;
        }
        Some(self.bit((self.offset + r as isize) as usize))
    }

    /// Writes logical data row `r` directly into the model (no device
    /// access, no cost) — a setup helper for tests and loaders.
    ///
    /// # Errors
    ///
    /// Returns [`Error::RowIndex`] if `r` is out of range.
    pub fn set_row(&mut self, r: usize, bit: bool) -> Result<()> {
        if r >= self.spec.data_domains {
            return Err(Error::RowIndex {
                index: r,
                len: self.spec.data_domains,
            });
        }
        self.set_bit((self.offset + r as isize) as usize, bit);
        Ok(())
    }

    fn port(&self, id: PortId) -> Result<&AccessPort> {
        self.spec.ports.get(id.0).ok_or(Error::UnknownPort(id.0))
    }

    /// Number of domains in the inter-port segment (ports inclusive).
    pub fn segment_len(&self) -> usize {
        self.spec.segment_len()
    }

    /// Reads the `i`-th domain of the inter-port segment (0 = under the
    /// left port) without device access or cost — an oracle for tests.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SegmentIndex`] if `i` is outside the segment.
    pub fn segment_bit(&self, i: usize) -> Result<bool> {
        let len = self.segment_len();
        if i >= len {
            return Err(Error::SegmentIndex { index: i, len });
        }
        Ok(self.bit(self.spec.ports[0].position + i))
    }

    /// Writes the `i`-th domain of the inter-port segment directly (setup
    /// helper; no cost).
    ///
    /// # Errors
    ///
    /// Returns [`Error::SegmentIndex`] if `i` is outside the segment.
    pub fn set_segment_bit(&mut self, i: usize, bit: bool) -> Result<()> {
        let len = self.segment_len();
        if i >= len {
            return Err(Error::SegmentIndex { index: i, len });
        }
        self.set_bit(self.spec.ports[0].position + i, bit);
        Ok(())
    }

    /// All segment bits, left to right (oracle; no cost).
    pub fn segment_bits(&self) -> Vec<bool> {
        let base = self.spec.ports[0].position;
        (base..base + self.segment_len())
            .map(|p| self.bit(p))
            .collect()
    }

    /// Maximum legal shift in each direction from the current offset:
    /// `(left, right)` in domains.
    pub fn shift_slack(&self) -> (isize, isize) {
        let left = self.offset;
        let right = (self.spec.total_domains - self.spec.data_domains) as isize - self.offset;
        (left, right)
    }

    /// Shifts the domain train by `delta` positions (positive moves data
    /// toward higher physical positions, i.e. to the right). With a fault
    /// injector attached, each step may over- or under-shift.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShiftOverrun`] if the data window would leave the
    /// wire; the wire state is unchanged in that case.
    pub fn shift(&mut self, delta: isize, meter: &mut CostMeter) -> Result<()> {
        let step_cost = Cost::new(self.latency.shift_per_step, self.energy.shift_per_step);
        let max_offset = (self.spec.total_domains - self.spec.data_domains) as isize;
        let (moved, outcome) = walk_shift(
            self.offset,
            max_offset,
            delta,
            self.injector.as_mut(),
            step_cost,
            meter,
        );
        self.move_train(moved);
        outcome
    }

    /// Moves the physical train by `by` domains (positive toward higher
    /// positions): what is pushed past an extremity is lost, what enters
    /// reads zero. The caller keeps the data window on the wire.
    fn move_train(&mut self, by: isize) {
        let n = self.domains.len();
        let (w, b) = (by.unsigned_abs() / 64, (by.unsigned_abs() % 64) as u32);
        let d = &mut self.domains;
        if by > 0 {
            for i in (0..n).rev() {
                let hi = if i >= w { d[i - w] << b } else { 0 };
                let lo = if b > 0 && i > w {
                    d[i - w - 1] >> (64 - b)
                } else {
                    0
                };
                d[i] = hi | lo;
            }
        } else if by < 0 {
            for i in 0..n {
                let lo = if i + w < n { d[i + w] >> b } else { 0 };
                let hi = if b > 0 && i + w + 1 < n {
                    d[i + w + 1] << (64 - b)
                } else {
                    0
                };
                d[i] = lo | hi;
            }
        }
        d[n - 1] &= tail_mask(self.spec.total_domains);
        self.offset += by;
    }

    /// Shifts so that logical data row `r` sits under `port`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::RowIndex`] for an out-of-range row,
    /// [`Error::UnknownPort`] for a bad port, or [`Error::ShiftOverrun`] if
    /// that alignment is physically unreachable for this port.
    pub fn align_row(&mut self, r: usize, port: PortId, meter: &mut CostMeter) -> Result<()> {
        if r >= self.spec.data_domains {
            return Err(Error::RowIndex {
                index: r,
                len: self.spec.data_domains,
            });
        }
        let p = self.port(port)?.position as isize;
        let target_offset = p - r as isize;
        let delta = target_offset - self.offset;
        self.shift(delta, meter)
    }

    /// Number of shift steps [`Nanowire::align_row`] would take, without
    /// performing them.
    ///
    /// # Errors
    ///
    /// Same validation as [`Nanowire::align_row`], minus the overrun check.
    pub fn align_distance(&self, r: usize, port: PortId) -> Result<isize> {
        if r >= self.spec.data_domains {
            return Err(Error::RowIndex {
                index: r,
                len: self.spec.data_domains,
            });
        }
        let p = self.port(port)?.position as isize;
        Ok(p - r as isize - self.offset)
    }

    /// Reads the domain currently under `port`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownPort`] for a bad port id.
    pub fn read(&mut self, port: PortId, meter: &mut CostMeter) -> Result<bool> {
        let bit = self.bit(self.port(port)?.position);
        meter.charge_class(
            OpClass::Read,
            Cost::new(self.latency.read, self.energy.read),
        );
        Ok(bit)
    }

    /// Writes `bit` to the domain currently under `port` (shift-based
    /// write through the port's fin, paper §II-A).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownPort`] for a bad port id or
    /// [`Error::PortCapability`] when writing through a read-only port.
    pub fn write(&mut self, port: PortId, bit: bool, meter: &mut CostMeter) -> Result<()> {
        let p = *self.port(port)?;
        if !p.kind.can_write() {
            return Err(Error::PortCapability {
                port: port.0,
                needed: "write",
            });
        }
        self.set_bit(p.position, bit);
        meter.charge_class(
            OpClass::Write,
            Cost::new(self.latency.write, self.energy.write),
        );
        Ok(())
    }

    /// Transverse read between two ports (inclusive): senses the number of
    /// `1` domains in the span. With a fault injector attached the sensed
    /// level may be off by one (clamped to the valid range).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownPort`] for bad port ids or
    /// [`Error::TrdExceeded`] when the span exceeds the device's TRD limit.
    pub fn transverse_read(
        &mut self,
        a: PortId,
        b: PortId,
        meter: &mut CostMeter,
    ) -> Result<TrOutcome> {
        let pa = self.port(a)?.position;
        let pb = self.port(b)?.position;
        let (lo, hi) = if pa <= pb { (pa, pb) } else { (pb, pa) };
        self.transverse_read_range(lo, hi, meter)
    }

    /// Transverse read across the full inter-port segment of a two-port
    /// wire — the common CORUSCANT case.
    ///
    /// # Errors
    ///
    /// As for [`Nanowire::transverse_read`].
    pub fn transverse_read_full(&mut self) -> Result<TrOutcome> {
        let mut meter = CostMeter::new();
        self.transverse_read(PortId::LEFT, PortId::RIGHT, &mut meter)
    }

    /// Transverse read from a port to the wire extremity on the given side
    /// (the segmented TR of paper Fig. 3, enabling full-wire queries).
    ///
    /// # Errors
    ///
    /// As for [`Nanowire::transverse_read`].
    pub fn transverse_read_to_extremity(
        &mut self,
        port: PortId,
        toward_left: bool,
        meter: &mut CostMeter,
    ) -> Result<TrOutcome> {
        let p = self.port(port)?.position;
        if toward_left {
            self.transverse_read_range(0, p, meter)
        } else {
            self.transverse_read_range(p, self.spec.total_domains - 1, meter)
        }
    }

    fn transverse_read_range(
        &mut self,
        lo: usize,
        hi: usize,
        meter: &mut CostMeter,
    ) -> Result<TrOutcome> {
        let span = hi - lo + 1;
        if span > self.spec.trd_limit {
            return Err(Error::TrdExceeded {
                span,
                limit: self.spec.trd_limit,
            });
        }
        let mut count = (lo..=hi).filter(|&p| self.bit(p)).count() as u8;
        if let Some(inj) = &mut self.injector {
            count = inj.sense(count, span as u8);
        }
        meter.charge_class(
            OpClass::TransverseRead,
            Cost::new(
                self.latency.transverse_read,
                self.energy.transverse_read(span),
            ),
        );
        Ok(TrOutcome {
            value: count,
            span: span as u8,
        })
    }

    /// Transverse write (paper §IV-B, Fig. 9): writes `bit` under the left
    /// port while advancing only the inter-port segment one position toward
    /// the right port; the domain under the right port exits toward ground
    /// and is returned. The rest of the wire (and the data-window offset)
    /// is untouched — this is *segmented shifting*.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownPort`] if the wire has fewer than two ports,
    /// [`Error::PortCapability`] if the left port cannot write, or
    /// [`Error::TrdExceeded`] if the segment exceeds the TRD limit.
    pub fn transverse_write(&mut self, bit: bool, meter: &mut CostMeter) -> Result<bool> {
        let left = *self.port(PortId::LEFT)?;
        let right = *self.port(PortId::RIGHT)?;
        if !left.kind.can_write() {
            return Err(Error::PortCapability {
                port: 0,
                needed: "write",
            });
        }
        let span = right.position - left.position + 1;
        if span > self.spec.trd_limit {
            return Err(Error::TrdExceeded {
                span,
                limit: self.spec.trd_limit,
            });
        }
        let expelled = self.bit(right.position);
        for i in (left.position + 1..=right.position).rev() {
            self.set_bit(i, self.bit(i - 1));
        }
        self.set_bit(left.position, bit);
        meter.charge_class(
            OpClass::TransverseWrite,
            Cost::new(self.latency.transverse_write, self.energy.transverse_write),
        );
        Ok(expelled)
    }

    /// Number of faults injected so far (0 if no injector is attached).
    pub fn injected_fault_count(&self) -> u64 {
        self.injector.as_ref().map_or(0, |i| i.injected_count())
    }

    /// Transverse read over an explicit physical window `[lo, hi]` —
    /// the segmented TR of paper Fig. 3, used by position-checking codes
    /// that count ones in overhead domains.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TrdExceeded`] when the span exceeds the TRD, or
    /// [`Error::SegmentIndex`] when the window leaves the wire.
    pub fn transverse_read_window(
        &mut self,
        lo: usize,
        hi: usize,
        meter: &mut CostMeter,
    ) -> Result<TrOutcome> {
        if hi >= self.spec.total_domains || lo > hi {
            return Err(Error::SegmentIndex {
                index: hi,
                len: self.spec.total_domains,
            });
        }
        self.transverse_read_range(lo, hi, meter)
    }

    /// Reads a physical domain directly (oracle/maintenance access; no
    /// device cost). Returns `None` out of range.
    pub fn peek_physical(&self, pos: usize) -> Option<bool> {
        (pos < self.spec.total_domains).then(|| self.bit(pos))
    }

    /// Writes a physical domain directly (maintenance access used when
    /// initializing overhead-domain codes; no device cost).
    ///
    /// # Errors
    ///
    /// Returns [`Error::SegmentIndex`] out of range.
    pub fn poke_physical(&mut self, pos: usize, bit: bool) -> Result<()> {
        if pos >= self.spec.total_domains {
            return Err(Error::SegmentIndex {
                index: pos,
                len: self.spec.total_domains,
            });
        }
        self.set_bit(pos, bit);
        Ok(())
    }

    /// Applies a raw physical shift of `steps` domains without fault
    /// injection or overrun *errors* — saturating at the extremities like
    /// a real wire losing bits into the pads. Used by alignment-repair
    /// logic that must move a misaligned wire back into range.
    pub fn force_shift(&mut self, steps: isize, meter: &mut CostMeter) {
        let max_offset = (self.spec.total_domains - self.spec.data_domains) as isize;
        self.move_train((self.offset + steps).clamp(0, max_offset) - self.offset);
        meter.charge_class(
            OpClass::Shift,
            Cost::new(
                self.latency.shift_per_step * steps.unsigned_abs() as u64,
                self.energy.shift_per_step * steps.unsigned_abs() as f64,
            ),
        );
    }
}

/// The valid bits of the last word of a `total`-bit packed train.
fn tail_mask(total: usize) -> u64 {
    u64::MAX >> ((64 - total % 64) % 64)
}

/// Walks one wire through a commanded shift of `delta` domains without
/// touching any tape. The nominal move is validated against the window
/// limits `0..=max_offset` first (an overrun moves nothing); then every
/// step draws one perturbation from `injector`, stops at the first step
/// that would push the data window off the wire, and charges `step_cost`
/// to `meter` once completed. Returns the distance moved — all in the
/// commanded direction, so one move by that distance reproduces it — and
/// the error that cut the walk short, if any. [`Nanowire::shift`] and a
/// DBC's lock-step shifts under fault injection both walk wires with this.
pub fn walk_shift(
    offset: isize,
    max_offset: isize,
    delta: isize,
    mut injector: Option<&mut FaultInjector>,
    step_cost: Cost,
    meter: &mut CostMeter,
) -> (isize, Result<()>) {
    let (left, right) = (offset, max_offset - offset);
    if delta > right || -delta > left {
        let available = if delta > 0 { right } else { -left };
        return (
            0,
            Err(Error::ShiftOverrun {
                requested: delta,
                available,
            }),
        );
    }
    let dir = delta.signum();
    let mut at = offset;
    for _ in 0..delta.unsigned_abs() {
        let step = dir + dir * injector.as_mut().map_or(0, |inj| inj.shift_perturbation());
        if !(0..=max_offset).contains(&(at + step)) {
            let available = if step > 0 { max_offset - at } else { -at };
            return (
                at - offset,
                Err(Error::ShiftOverrun {
                    requested: step,
                    available,
                }),
            );
        }
        at += step;
        meter.charge_class(OpClass::Shift, step_cost);
    }
    (at - offset, Ok(()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultConfig;

    fn meter() -> CostMeter {
        CostMeter::new()
    }

    #[test]
    fn single_port_spec_matches_paper_domain_count() {
        let spec = NanowireSpec::single_port(32);
        assert_eq!(spec.total_domains, 63);
        assert_eq!(spec.overhead_domains(), 31);
        spec.validate().unwrap();
    }

    #[test]
    fn coruscant_spec_y32_trd7_matches_paper() {
        let spec = NanowireSpec::coruscant(32, 7);
        assert_eq!(spec.overhead_domains(), 25, "paper §III-A: 25 overhead");
        assert_eq!(spec.total_domains, 57);
        assert_eq!(spec.segment_len(), 7);
        spec.validate().unwrap();
    }

    #[test]
    fn coruscant_specs_for_sweep_are_valid() {
        for trd in [3, 5, 7] {
            let spec = NanowireSpec::coruscant(32, trd);
            spec.validate().unwrap();
            assert_eq!(spec.segment_len(), trd);
        }
    }

    #[test]
    fn bad_specs_rejected() {
        let mut s = NanowireSpec::coruscant(32, 7);
        s.ports.clear();
        assert!(matches!(s.validate(), Err(Error::BadSpec(_))));

        let mut s = NanowireSpec::coruscant(32, 7);
        s.ports[1].position = s.ports[0].position;
        assert!(s.validate().is_err());

        let mut s = NanowireSpec::single_port(8);
        s.total_domains = 4;
        assert!(s.validate().is_err());
    }

    #[test]
    fn rows_roundtrip_through_set_and_get() {
        let mut w = Nanowire::new(NanowireSpec::coruscant(32, 7));
        for r in 0..32 {
            w.set_row(r, r % 3 == 0).unwrap();
        }
        for r in 0..32 {
            assert_eq!(w.row(r), Some(r % 3 == 0));
        }
        assert_eq!(w.row(32), None);
        assert!(w.set_row(32, true).is_err());
    }

    #[test]
    fn shift_preserves_data_and_moves_offset() {
        let mut w = Nanowire::new(NanowireSpec::coruscant(32, 7));
        for r in 0..32 {
            w.set_row(r, r % 2 == 0).unwrap();
        }
        let mut m = meter();
        let before = w.offset();
        w.shift(5, &mut m).unwrap();
        assert_eq!(w.offset(), before + 5);
        for r in 0..32 {
            assert_eq!(w.row(r), Some(r % 2 == 0), "row {r} after shift");
        }
        w.shift(-5, &mut m).unwrap();
        assert_eq!(w.offset(), before);
        assert_eq!(m.total().cycles, 10);
    }

    #[test]
    fn shift_overrun_is_detected_and_state_unchanged() {
        let mut w = Nanowire::new(NanowireSpec::coruscant(32, 7));
        let (left, right) = w.shift_slack();
        let mut m = meter();
        let err = w.shift(right + 1, &mut m).unwrap_err();
        assert!(matches!(err, Error::ShiftOverrun { .. }));
        assert_eq!(w.offset(), w.spec().initial_offset as isize);
        let err = w.shift(-(left + 1), &mut m).unwrap_err();
        assert!(matches!(err, Error::ShiftOverrun { .. }));
    }

    #[test]
    fn align_row_places_row_under_port() {
        let mut w = Nanowire::new(NanowireSpec::coruscant(32, 7));
        for r in 0..32 {
            w.set_row(r, r == 17).unwrap();
        }
        let mut m = meter();
        w.align_row(17, PortId::LEFT, &mut m).unwrap();
        assert_eq!(w.row_under_port(PortId::LEFT).unwrap(), Some(17));
        assert!(w.read(PortId::LEFT, &mut m).unwrap());
        // And the neighbour row sits one to the right.
        w.align_row(16, PortId::LEFT, &mut m).unwrap();
        assert!(!w.read(PortId::LEFT, &mut m).unwrap());
    }

    #[test]
    fn extreme_rows_reachable_via_feasible_port() {
        let mut w = Nanowire::new(NanowireSpec::coruscant(32, 7));
        let mut m = meter();
        // Row 0 under the left port, row 31 under the right port.
        w.align_row(0, PortId::LEFT, &mut m).unwrap();
        assert_eq!(w.row_under_port(PortId::LEFT).unwrap(), Some(0));
        w.align_row(31, PortId::RIGHT, &mut m).unwrap();
        assert_eq!(w.row_under_port(PortId::RIGHT).unwrap(), Some(31));
    }

    #[test]
    fn write_then_read_through_port() {
        let mut w = Nanowire::new(NanowireSpec::coruscant(32, 7));
        let mut m = meter();
        w.write(PortId::RIGHT, true, &mut m).unwrap();
        assert!(w.read(PortId::RIGHT, &mut m).unwrap());
        w.write(PortId::RIGHT, false, &mut m).unwrap();
        assert!(!w.read(PortId::RIGHT, &mut m).unwrap());
        assert_eq!(m.total().cycles, 4);
    }

    #[test]
    fn read_only_port_rejects_write() {
        let mut spec = NanowireSpec::coruscant(32, 7);
        spec.ports[1] = AccessPort::read_only(spec.ports[1].position);
        let mut w = Nanowire::new(spec);
        let mut m = meter();
        let err = w.write(PortId::RIGHT, true, &mut m).unwrap_err();
        assert!(matches!(err, Error::PortCapability { .. }));
    }

    #[test]
    fn unknown_port_rejected() {
        let mut w = Nanowire::new(NanowireSpec::coruscant(32, 7));
        let mut m = meter();
        assert!(matches!(
            w.read(PortId(5), &mut m),
            Err(Error::UnknownPort(5))
        ));
    }

    #[test]
    fn transverse_read_counts_ones() {
        let mut w = Nanowire::new(NanowireSpec::coruscant(32, 7));
        let pattern = [true, false, true, true, false, false, true];
        for (i, b) in pattern.iter().enumerate() {
            w.set_segment_bit(i, *b).unwrap();
        }
        let out = w.transverse_read_full().unwrap();
        assert_eq!(out.value, 4);
        assert_eq!(out.span, 7);
        assert!(out.at_least(4));
        assert!(!out.at_least(5));
    }

    #[test]
    fn transverse_read_span_limit_enforced() {
        // A wire whose ports are further apart than its TRD limit.
        let mut spec = NanowireSpec::coruscant(32, 7);
        spec.trd_limit = 4;
        let mut w = Nanowire::new(spec);
        let mut m = meter();
        let err = w
            .transverse_read(PortId::LEFT, PortId::RIGHT, &mut m)
            .unwrap_err();
        assert!(matches!(err, Error::TrdExceeded { span: 7, limit: 4 }));
    }

    #[test]
    fn transverse_write_advances_segment_only() {
        let mut w = Nanowire::new(NanowireSpec::coruscant(32, 7));
        for i in 0..7 {
            w.set_segment_bit(i, i % 2 == 0).unwrap(); // 1010101
        }
        // Mark a domain outside the segment to check it is untouched.
        let left_pos = w.spec().ports[0].position;
        w.poke_physical(left_pos - 1, true).unwrap();
        let mut m = meter();
        let expelled = w.transverse_write(true, &mut m).unwrap();
        assert!(expelled, "segment bit 6 was 1");
        assert_eq!(
            w.segment_bits(),
            vec![true, true, false, true, false, true, false]
        );
        assert_eq!(
            w.peek_physical(left_pos - 1),
            Some(true),
            "outside-segment domain disturbed"
        );
        assert_eq!(w.offset(), w.spec().initial_offset as isize);
    }

    #[test]
    fn seven_transverse_writes_rotate_segment_fully() {
        let mut w = Nanowire::new(NanowireSpec::coruscant(32, 7));
        let pattern = [true, false, true, true, false, false, true];
        for (i, b) in pattern.iter().enumerate() {
            w.set_segment_bit(i, *b).unwrap();
        }
        let mut m = meter();
        // Read right head then TW the value back in at the left head; after
        // 7 rounds the segment must be restored (the max-function walk).
        for _ in 0..7 {
            let out = w.segment_bit(6).unwrap();
            w.transverse_write(out, &mut m).unwrap();
        }
        assert_eq!(w.segment_bits(), pattern.to_vec());
        assert_eq!(m.total().cycles, 7);
    }

    #[test]
    fn tr_fault_injection_perturbs_level() {
        let cfg = FaultConfig::NONE.with_tr_fault_rate(1.0); // always faulty
        let w = Nanowire::new(NanowireSpec::coruscant(32, 7))
            .with_fault_injector(FaultInjector::new(cfg, 9));
        let mut w = w;
        for i in 0..7 {
            w.set_segment_bit(i, i < 3).unwrap(); // 3 ones
        }
        let out = w.transverse_read_full().unwrap();
        assert_ne!(out.value, 3, "a guaranteed fault must move the level");
        assert!(out.value == 2 || out.value == 4);
        assert_eq!(w.injected_fault_count(), 1);
    }

    #[test]
    fn tr_fault_clamped_at_bounds() {
        let cfg = FaultConfig {
            p_over_shift: 0.0,
            p_under_shift: 0.0,
            p_tr_up: 0.0,
            p_tr_down: 1.0,
        };
        let mut w = Nanowire::new(NanowireSpec::coruscant(32, 7))
            .with_fault_injector(FaultInjector::new(cfg, 1));
        // All zeros: a down-fault must clamp at 0.
        let out = w.transverse_read_full().unwrap();
        assert_eq!(out.value, 0);
    }

    #[test]
    fn cost_accumulates_per_microop() {
        let mut w = Nanowire::new(NanowireSpec::coruscant(32, 7));
        let mut m = meter();
        w.shift(3, &mut m).unwrap();
        let _ = w.read(PortId::LEFT, &mut m).unwrap();
        w.write(PortId::LEFT, true, &mut m).unwrap();
        let _ = w
            .transverse_read(PortId::LEFT, PortId::RIGHT, &mut m)
            .unwrap();
        assert_eq!(m.total().cycles, 6);
        assert_eq!(m.op_count(), 6);
        assert!(m.total().energy_pj > 0.0);
    }

    #[test]
    fn align_distance_matches_align_row_cost() {
        let mut w = Nanowire::new(NanowireSpec::coruscant(32, 7));
        let d = w.align_distance(2, PortId::LEFT).unwrap();
        let mut m = meter();
        w.align_row(2, PortId::LEFT, &mut m).unwrap();
        assert_eq!(m.total().cycles, d.unsigned_abs() as u64);
    }

    #[test]
    fn tr_to_extremity_respects_trd() {
        let spec = NanowireSpec::coruscant(32, 7);
        let mut w = Nanowire::new(spec);
        let mut m = meter();
        // Left port sits deep inside the wire, so the extremity span
        // greatly exceeds TRD = 7.
        let err = w
            .transverse_read_to_extremity(PortId::LEFT, true, &mut m)
            .unwrap_err();
        assert!(matches!(err, Error::TrdExceeded { .. }));
    }
}
