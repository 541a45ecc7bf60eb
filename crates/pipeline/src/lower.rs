//! Per-layer lowering: CNN layers → self-contained [`PimProgram`]s plus
//! the host glue (decode + post-ops) that connects consecutive layers.
//!
//! Every builder here computes the *same function* as the corresponding
//! [`coruscant_nn::pim_exec::PimCnn`] method — all lane arithmetic is
//! exact integer math mod 2¹⁶ with no overflow by network construction
//! (callers keep `Σ|w|·act` per output under 2¹⁵), so any decomposition
//! of the reduction tree produces bit-identical results. That is what
//! lets the serving pipeline be compared bit-for-bit against the
//! standalone [`coruscant_nn::infer::run_pim`] engine.
//!
//! ## Row discipline (PIM DBC)
//!
//! The in-memory algorithms scratch over addressable rows (measured at
//! TRD 7, 16-bit lanes): `Sub` clobbers rows `1..=trd+1`, `Mult` burns
//! everything up to its partial-sum slot at row `trd+1+bits` (rows
//! 1–16 with 8-bit operand lanes), and the segment-staged ops (`Add`,
//! `Max`, `Xnor`, `And`, …) scratch a TRD-row window *around their
//! operand base* — roughly `base−1 ..= base+trd−2` — because operand
//! placement reuses whatever addressable rows sit under the ports.
//! Only `Copy` and `Relu` are scratch-free. Two consequences shape
//! every builder:
//!
//! * a multi-operand op may never run with its base near live state —
//!   all folds into the P/N accumulators go through the low fold
//!   window (copy the accumulator to row 9, fresh operand at row 10,
//!   `Add` at base 9 scratching only rows 8–14);
//! * nothing live survives a `Mult` below row 17, so accumulators sit
//!   at 19+ and the BWN lane mask is re-copied from its resident slot
//!   before every `And` (the preceding `Xnor` at base 4 wipes row 7).
//!
//! | row | use |
//! |-----|-----|
//! | 4–5 | ephemeral operand loads (activations / weight copies) |
//! | 4–7 | max-pool candidate rows |
//! | 6   | XNOR result (BWN) |
//! | 7   | lane mask (BWN, re-copied per tap) |
//! | 9   | fold window: accumulator copy |
//! | 10  | fold window: fresh operand |
//! | 19  | positive accumulator (P) / BWN popcount accumulator |
//! | 20  | negative accumulator (N) |
//! | 21  | subtract result; ReLU + readout slot |
//!
//! ## Residency layout (storage DBCs)
//!
//! Request-independent weight rows are pinned once per layer into the
//! hosting tile's storage DBCs (`dbc ≥ pim_dbcs_per_tile`) and copied
//! into the PIM DBC by the per-request programs. Slot `s` maps to
//! `(dbc = storage_base + s / rows, row = s % rows)`; slot 0 is a
//! descriptor row the pin program echoes as its readout sentinel (pin
//! programs bypass the compiler, whose dead-store analysis would
//! otherwise see only stores). Full-precision convolutions pin one
//! broadcast |w| row per (filter, non-zero tap); BWN convolutions pin
//! the all-ones lane mask plus one weight-bit row per (filter, tap).
//! Group-dependent weight data (FC magnitude rows, TWN sign-selected
//! gathers) is embedded in the per-request programs as loads instead —
//! it varies per output lane group, and pinning every group would
//! overflow the tile's storage rows for the evaluated networks.

use coruscant_core::isa::{BlockSize, CpimInstr, CpimOpcode};
use coruscant_core::program::{PimProgram, Step};
use coruscant_mem::{DbcLocation, RowAddress};
use coruscant_nn::infer::{binarize_act, bwn_act, conv_shift, requant, LayerWeights};
use coruscant_nn::layers::Layer;
use coruscant_nn::quant::Precision;
use coruscant_nn::tensor::Tensor3;

/// Lane width in bits — all rows carry 16-bit lanes, matching
/// [`coruscant_nn::pim_exec`].
pub const LANE: usize = 16;

/// Ephemeral activation-operand row.
const ROW_A: usize = 4;
/// Ephemeral weight-operand row (loads and resident copies land here).
const ROW_B: usize = 5;
/// XNOR result row (BWN).
const ROW_X: usize = 6;
/// Lane-mask row (BWN match-bit extraction; re-copied per tap).
const ROW_MASK: usize = 7;
/// Fold window: copy of the running accumulator.
const ROW_F0: usize = 9;
/// Fold window: freshly produced operand.
const ROW_F1: usize = 10;
/// Positive accumulator (and BWN popcount accumulator).
const ROW_P: usize = 19;
/// Negative accumulator.
const ROW_N: usize = 20;
/// Subtract result / ReLU / readout slot.
const ROW_OUT: usize = 21;

/// Geometry shared by every builder: lane counts and the storage-DBC
/// slot map, derived once from the memory configuration.
#[derive(Debug, Clone)]
pub(crate) struct Geom {
    /// 16-bit lanes per row.
    pub lanes: usize,
    /// Rows per DBC.
    pub rows_per_dbc: usize,
    /// First storage DBC index within a tile.
    pub storage_base: usize,
    /// Resident slots available per tile (descriptor excluded).
    pub storage_slots: usize,
    /// Transverse-read distance (bounds multi-operand gathers).
    pub trd: usize,
}

impl Geom {
    /// The tile-relative PIM DBC every compute step targets; the
    /// executor binds it to the hosting unit's tile.
    fn pim(&self) -> DbcLocation {
        DbcLocation::new(0, 0, 0, 0)
    }

    /// The tile-relative address of resident slot `s`.
    fn slot(&self, s: usize) -> RowAddress {
        RowAddress::new(
            DbcLocation::new(0, 0, 0, self.storage_base + s / self.rows_per_dbc),
            s % self.rows_per_dbc,
        )
    }

    /// Maximum operand count of a multi-operand gather (`Add`/`Max`).
    pub(crate) fn max_gather(&self) -> usize {
        self.trd.saturating_sub(2).max(1)
    }
}

/// One pinned convolution weight row: resident slot plus the tap it
/// encodes.
#[derive(Debug, Clone)]
pub(crate) struct ConvTap {
    /// Resident slot index.
    pub slot: usize,
    /// Input channel.
    pub c: usize,
    /// Kernel row offset.
    pub dy: usize,
    /// Kernel column offset.
    pub dx: usize,
    /// Broadcast value pinned in the slot (|w| or the weight bit).
    pub value: u64,
    /// Sign of the tap (full precision: accumulate into P or N).
    pub positive: bool,
}

/// A layer's residency plan: which rows the pin program materializes.
#[derive(Debug, Clone)]
pub(crate) enum Residency {
    /// Full-precision conv: one |w| broadcast row per non-zero tap,
    /// grouped per filter (outer Vec is filters).
    ConvFull(Vec<Vec<ConvTap>>),
    /// BWN conv: the all-ones lane mask plus one weight-bit row per tap
    /// (every position, zero bits included).
    ConvBwn {
        /// Slot of the all-ones mask row.
        mask_slot: usize,
        /// Per-filter weight-bit taps.
        taps: Vec<Vec<ConvTap>>,
    },
    /// No resident weight rows (pools, TWN convs, FC layers): the pin
    /// carries only the descriptor sentinel, keeping every layer under
    /// the same quarantine re-materialization contract.
    Sentinel,
}

impl Residency {
    /// Resident slots consumed (descriptor excluded).
    pub(crate) fn slots(&self) -> usize {
        match self {
            Residency::ConvFull(taps) => taps.iter().map(Vec::len).sum(),
            Residency::ConvBwn { taps, .. } => 1 + taps.iter().map(Vec::len).sum::<usize>(),
            Residency::Sentinel => 0,
        }
    }
}

/// Plans layer `li`'s residency, assigning slots deterministically in
/// filter-major, position-row-major order.
pub(crate) fn plan_residency(
    layer: &Layer,
    weights: &LayerWeights,
    precision: Precision,
) -> Residency {
    match (layer, weights, precision) {
        (
            Layer::Conv {
                kernel,
                in_channels,
                ..
            },
            LayerWeights::Conv(filters),
            Precision::Full,
        ) => {
            let mut next = 1; // slot 0 is the descriptor
            let taps = filters
                .iter()
                .map(|w| {
                    let mut f_taps = Vec::new();
                    for c in 0..*in_channels {
                        for dy in 0..*kernel {
                            for dx in 0..*kernel {
                                let v = w.get(c, dy, dx);
                                if v != 0 {
                                    f_taps.push(ConvTap {
                                        slot: next,
                                        c,
                                        dy,
                                        dx,
                                        value: v.unsigned_abs(),
                                        positive: v > 0,
                                    });
                                    next += 1;
                                }
                            }
                        }
                    }
                    f_taps
                })
                .collect();
            Residency::ConvFull(taps)
        }
        (
            Layer::Conv {
                kernel,
                in_channels,
                ..
            },
            LayerWeights::Conv(filters),
            Precision::Bwn,
        ) => {
            let mask_slot = 1;
            let mut next = 2;
            let taps = filters
                .iter()
                .map(|w| {
                    let mut f_taps = Vec::new();
                    for c in 0..*in_channels {
                        for dy in 0..*kernel {
                            for dx in 0..*kernel {
                                f_taps.push(ConvTap {
                                    slot: next,
                                    c,
                                    dy,
                                    dx,
                                    value: u64::from(w.get(c, dy, dx) != 0),
                                    positive: true,
                                });
                                next += 1;
                            }
                        }
                    }
                    f_taps
                })
                .collect();
            Residency::ConvBwn { mask_slot, taps }
        }
        _ => Residency::Sentinel,
    }
}

/// Activations flowing between layers: feature maps until the first FC
/// layer flattens them, flat vectors afterwards.
#[derive(Debug, Clone)]
pub(crate) enum ActData {
    /// A `(channels, h, w)` feature map of unsigned 8-bit activations.
    Map(Tensor3),
    /// Flattened activations (FC inputs/outputs).
    Flat(Vec<u64>),
}

impl ActData {
    fn flat(&self) -> Vec<u64> {
        match self {
            ActData::Map(t) => t.as_slice().iter().map(|&v| v as u64).collect(),
            ActData::Flat(v) => v.clone(),
        }
    }

    fn map(&self) -> Result<&Tensor3, String> {
        match self {
            ActData::Map(t) => Ok(t),
            ActData::Flat(_) => Err("layer expects a feature map, got flat activations".into()),
        }
    }
}

/// Incremental step emission against the tile-relative PIM DBC.
struct Emit<'g> {
    geom: &'g Geom,
    steps: Vec<Step>,
}

impl<'g> Emit<'g> {
    fn new(geom: &'g Geom) -> Emit<'g> {
        Emit {
            geom,
            steps: Vec::new(),
        }
    }

    fn bs(&self) -> BlockSize {
        BlockSize::new(LANE).expect("16 is a valid block size")
    }

    fn load(&mut self, row: usize, values: Vec<u64>) {
        self.steps.push(Step::Load {
            addr: RowAddress::new(self.geom.pim(), row),
            values,
            lane: LANE,
        });
    }

    fn zeros(&mut self, row: usize) {
        let lanes = self.geom.lanes;
        self.load(row, vec![0; lanes]);
    }

    fn exec(
        &mut self,
        op: CpimOpcode,
        src_row: usize,
        k: u8,
        dst: Option<usize>,
    ) -> Result<(), String> {
        let pim = self.geom.pim();
        let instr = CpimInstr::new(
            op,
            RowAddress::new(pim, src_row),
            k,
            self.bs(),
            dst.map(|r| RowAddress::new(pim, r)),
        )
        .map_err(|e| e.to_string())?;
        self.steps.push(Step::Exec(instr));
        Ok(())
    }

    /// Copies resident slot `s` from the tile's storage DBCs into PIM
    /// row `dst` (the `Copy` opcode is PIM-exempt: its source may be a
    /// storage DBC).
    fn copy_slot(&mut self, s: usize, dst: usize) -> Result<(), String> {
        let instr = CpimInstr::new(
            CpimOpcode::Copy,
            self.geom.slot(s),
            1,
            self.bs(),
            Some(RowAddress::new(self.geom.pim(), dst)),
        )
        .map_err(|e| e.to_string())?;
        self.steps.push(Step::Exec(instr));
        Ok(())
    }

    fn readout(&mut self, label: String, row: usize) {
        self.steps.push(Step::Readout {
            label,
            addr: RowAddress::new(self.geom.pim(), row),
            lane: LANE,
        });
    }

    /// Copies PIM row `src` to PIM row `dst` (`Copy` is scratch-free).
    fn copy_row(&mut self, src: usize, dst: usize) -> Result<(), String> {
        let pim = self.geom.pim();
        let instr = CpimInstr::new(
            CpimOpcode::Copy,
            RowAddress::new(pim, src),
            1,
            self.bs(),
            Some(RowAddress::new(pim, dst)),
        )
        .map_err(|e| e.to_string())?;
        self.steps.push(Step::Exec(instr));
        Ok(())
    }

    /// Folds the row produced by `produce(dst_row)` into the running sum
    /// at `acc` (exact mod-2¹⁶ lane math — any reduction shape sums
    /// identically). The first operand lands in `acc` directly; later
    /// ones go through the low fold window: produce at [`ROW_F1`], copy
    /// the accumulator down to [`ROW_F0`] *after* the producer has
    /// finished scratching, and `Add` at base [`ROW_F0`] — whose
    /// segment-placement scratch (rows 8–14 at TRD 7) cannot reach the
    /// accumulators at 19+. Folding in place at `acc` would scratch the
    /// rows around it and corrupt the neighbouring accumulator.
    fn accumulate<F>(&mut self, acc: usize, first: &mut bool, mut produce: F) -> Result<(), String>
    where
        F: FnMut(&mut Emit<'g>, usize) -> Result<(), String>,
    {
        if *first {
            produce(self, acc)?;
            *first = false;
        } else {
            produce(self, ROW_F1)?;
            self.copy_row(acc, ROW_F0)?;
            self.exec(CpimOpcode::Add, ROW_F0, 2, Some(acc))?;
        }
        Ok(())
    }
}

/// Row-major output coordinates of a feature map.
fn coords(oh: usize, ow: usize) -> Vec<(usize, usize)> {
    (0..oh).flat_map(|y| (0..ow).map(move |x| (y, x))).collect()
}

/// Finishes one output group: `P − N`, ReLU in place, readout.
fn finish_group(e: &mut Emit<'_>, label: String) -> Result<(), String> {
    e.exec(CpimOpcode::Sub, ROW_P, 2, Some(ROW_OUT))?;
    e.exec(CpimOpcode::Relu, ROW_OUT, 1, None)?;
    e.readout(label, ROW_OUT);
    Ok(())
}

/// Builds layer `li`'s program from its input activations. The program
/// is tile-relative: [`coruscant_runtime::Placement::Resident`] moves
/// it onto the hosting unit.
pub(crate) fn build_layer_program(
    geom: &Geom,
    li: usize,
    layer: &Layer,
    weights: &LayerWeights,
    precision: Precision,
    input: &ActData,
) -> Result<PimProgram, String> {
    match (layer, weights) {
        (
            Layer::Conv {
                kernel,
                out_channels,
                ..
            },
            LayerWeights::Conv(filters),
        ) => {
            let acts = input.map()?;
            match precision {
                Precision::Full => conv_full(geom, li, acts, filters, *kernel),
                Precision::Twn => conv_ternary(geom, li, acts, filters, *kernel),
                Precision::Bwn => {
                    let bits = acts.map(|v| binarize_act(v as u64) as i64);
                    conv_bwn(geom, li, &bits, filters, *kernel, *out_channels)
                }
            }
        }
        (
            Layer::MaxPool {
                window, channels, ..
            },
            LayerWeights::None,
        ) => maxpool(geom, li, input.map()?, *window, *channels),
        (Layer::Fc { .. }, LayerWeights::Fc(rows)) => {
            let flat = input.flat();
            match precision {
                Precision::Full => fc_full(geom, li, &flat, rows),
                Precision::Twn | Precision::Bwn => fc_ternary(geom, li, &flat, rows),
            }
        }
        (l, _) => Err(format!("weights misaligned at layer {}", l.name())),
    }
}

/// Full-precision convolution: per tap, the activation row multiplies
/// the resident |w| broadcast row on the carry-save multiplier;
/// positive and negative products accumulate separately and meet in the
/// two's-complement subtractor, then ReLU.
fn conv_full(
    geom: &Geom,
    li: usize,
    acts: &Tensor3,
    filters: &[Tensor3],
    kernel: usize,
) -> Result<PimProgram, String> {
    let Residency::ConvFull(taps) = plan_residency(
        &conv_desc(filters.len(), acts, kernel)?,
        &LayerWeights::Conv(filters.to_vec()),
        Precision::Full,
    ) else {
        return Err("full conv residency plan".into());
    };
    let (_, ih, iw) = acts.shape();
    let (oh, ow) = (ih - kernel + 1, iw - kernel + 1);
    let mut e = Emit::new(geom);
    for (f, f_taps) in taps.iter().enumerate() {
        for (g, group) in coords(oh, ow).chunks(geom.lanes).enumerate() {
            for (acc, positive) in [(ROW_P, true), (ROW_N, false)] {
                let mut first = true;
                for tap in f_taps.iter().filter(|t| t.positive == positive) {
                    let vals: Vec<u64> = group
                        .iter()
                        .map(|&(y, x)| acts.get(tap.c, y + tap.dy, x + tap.dx) as u64)
                        .collect();
                    let slot = tap.slot;
                    e.accumulate(acc, &mut first, |e, dst| {
                        e.load(ROW_A, vals.clone());
                        e.copy_slot(slot, ROW_B)?;
                        e.exec(CpimOpcode::Mult, ROW_A, 2, Some(dst))
                    })?;
                }
                if first {
                    e.zeros(acc);
                }
            }
            finish_group(&mut e, format!("l{li}:f{f}:g{g}"))?;
        }
    }
    Ok(PimProgram { steps: e.steps })
}

/// Ternary convolution: sign-selected activation rows accumulate into P
/// and N directly (no multiplier), then subtract + ReLU.
fn conv_ternary(
    geom: &Geom,
    li: usize,
    acts: &Tensor3,
    filters: &[Tensor3],
    kernel: usize,
) -> Result<PimProgram, String> {
    let (ic, ih, iw) = acts.shape();
    let (oh, ow) = (ih - kernel + 1, iw - kernel + 1);
    let mut e = Emit::new(geom);
    for (f, w) in filters.iter().enumerate() {
        for (g, group) in coords(oh, ow).chunks(geom.lanes).enumerate() {
            for (acc, sign) in [(ROW_P, 1i64), (ROW_N, -1)] {
                let mut first = true;
                for c in 0..ic {
                    for dy in 0..kernel {
                        for dx in 0..kernel {
                            if w.get(c, dy, dx) != sign {
                                continue;
                            }
                            let vals: Vec<u64> = group
                                .iter()
                                .map(|&(y, x)| acts.get(c, y + dy, x + dx) as u64)
                                .collect();
                            e.accumulate(acc, &mut first, |e, dst| {
                                e.load(dst, vals.clone());
                                Ok(())
                            })?;
                        }
                    }
                }
                if first {
                    e.zeros(acc);
                }
            }
            finish_group(&mut e, format!("l{li}:f{f}:g{g}"))?;
        }
    }
    Ok(PimProgram { steps: e.steps })
}

/// BWN convolution: per tap, XNOR the activation-bit row against the
/// resident weight-bit row, mask to the lane LSB (the match bit), and
/// popcount through the accumulator. The host maps count `m` to
/// `relu(2m − n)` when decoding.
fn conv_bwn(
    geom: &Geom,
    li: usize,
    bits: &Tensor3,
    filters: &[Tensor3],
    kernel: usize,
    out_channels: usize,
) -> Result<PimProgram, String> {
    let Residency::ConvBwn { mask_slot, taps } = plan_residency(
        &conv_desc(out_channels, bits, kernel)?,
        &LayerWeights::Conv(filters.to_vec()),
        Precision::Bwn,
    ) else {
        return Err("bwn conv residency plan".into());
    };
    let (_, ih, iw) = bits.shape();
    let (oh, ow) = (ih - kernel + 1, iw - kernel + 1);
    let mut e = Emit::new(geom);
    for (f, f_taps) in taps.iter().enumerate() {
        for (g, group) in coords(oh, ow).chunks(geom.lanes).enumerate() {
            let mut first = true;
            for tap in f_taps {
                let vals: Vec<u64> = group
                    .iter()
                    .map(|&(y, x)| u64::from(bits.get(tap.c, y + tap.dy, x + tap.dx) != 0))
                    .collect();
                let slot = tap.slot;
                e.accumulate(ROW_P, &mut first, |e, dst| {
                    e.load(ROW_A, vals.clone());
                    e.copy_slot(slot, ROW_B)?;
                    // XNOR leaves 0xFFFF on match / 0xFFFE on mismatch;
                    // AND with the ones mask keeps the match bit. The
                    // XNOR's segment scratch wipes row 7, so the mask is
                    // re-copied from its resident slot every tap.
                    e.exec(CpimOpcode::Xnor, ROW_A, 2, Some(ROW_X))?;
                    e.copy_slot(mask_slot, ROW_MASK)?;
                    e.exec(CpimOpcode::And, ROW_X, 2, Some(dst))
                })?;
            }
            e.readout(format!("l{li}:f{f}:g{g}"), ROW_P);
        }
    }
    Ok(PimProgram { steps: e.steps })
}

/// Max pooling: one candidate row per window position, one TR-based
/// multi-operand `Max`.
fn maxpool(
    geom: &Geom,
    li: usize,
    acts: &Tensor3,
    window: usize,
    channels: usize,
) -> Result<PimProgram, String> {
    let k = window * window;
    if k > geom.max_gather() {
        return Err(format!(
            "pool window {window}×{window} needs {k} operands; TRD {} allows {}",
            geom.trd,
            geom.max_gather()
        ));
    }
    let (_, ih, iw) = acts.shape();
    let (oh, ow) = (ih / window, iw / window);
    let mut e = Emit::new(geom);
    for ch in 0..channels {
        for (g, group) in coords(oh, ow).chunks(geom.lanes).enumerate() {
            let mut slot = ROW_A;
            for dy in 0..window {
                for dx in 0..window {
                    let vals: Vec<u64> = group
                        .iter()
                        .map(|&(y, x)| acts.get(ch, y * window + dy, x * window + dx) as u64)
                        .collect();
                    e.load(slot, vals);
                    slot += 1;
                }
            }
            e.exec(CpimOpcode::Max, ROW_A, k as u8, Some(ROW_OUT))?;
            e.readout(format!("l{li}:c{ch}:g{g}"), ROW_OUT);
        }
    }
    Ok(PimProgram { steps: e.steps })
}

/// Full-precision FC: per input, the broadcast activation row multiplies
/// the per-lane magnitude row (group-dependent, so loaded rather than
/// resident), split by weight sign.
fn fc_full(geom: &Geom, li: usize, input: &[u64], rows: &[Vec<i8>]) -> Result<PimProgram, String> {
    let indices: Vec<usize> = (0..rows.len()).collect();
    let mut e = Emit::new(geom);
    for (g, group) in indices.chunks(geom.lanes).enumerate() {
        for (acc, positive) in [(ROW_P, true), (ROW_N, false)] {
            let mut first = true;
            for (i, &x) in input.iter().enumerate() {
                let mags: Vec<u64> = group
                    .iter()
                    .map(|&o| {
                        let w = rows[o][i];
                        if (positive && w > 0) || (!positive && w < 0) {
                            w.unsigned_abs() as u64
                        } else {
                            0
                        }
                    })
                    .collect();
                if mags.iter().all(|&v| v == 0) {
                    continue;
                }
                let lanes = geom.lanes;
                e.accumulate(acc, &mut first, |e, dst| {
                    e.load(ROW_A, vec![x; lanes]);
                    e.load(ROW_B, mags.clone());
                    e.exec(CpimOpcode::Mult, ROW_A, 2, Some(dst))
                })?;
            }
            if first {
                e.zeros(acc);
            }
        }
        finish_group(&mut e, format!("l{li}:g{g}"))?;
    }
    Ok(PimProgram { steps: e.steps })
}

/// Ternary/binary FC: sign-selected activation rows accumulate into P
/// and N directly.
fn fc_ternary(
    geom: &Geom,
    li: usize,
    input: &[u64],
    rows: &[Vec<i8>],
) -> Result<PimProgram, String> {
    let indices: Vec<usize> = (0..rows.len()).collect();
    let mut e = Emit::new(geom);
    for (g, group) in indices.chunks(geom.lanes).enumerate() {
        for (acc, sign) in [(ROW_P, 1i8), (ROW_N, -1)] {
            let mut first = true;
            for (i, &x) in input.iter().enumerate() {
                let vals: Vec<u64> = group
                    .iter()
                    .map(|&o| if rows[o][i] == sign { x } else { 0 })
                    .collect();
                if vals.iter().all(|&v| v == 0) {
                    continue;
                }
                e.accumulate(acc, &mut first, |e, dst| {
                    e.load(dst, vals.clone());
                    Ok(())
                })?;
            }
            if first {
                e.zeros(acc);
            }
        }
        finish_group(&mut e, format!("l{li}:g{g}"))?;
    }
    Ok(PimProgram { steps: e.steps })
}

/// The pin program materializing `residency` for layer `li`: loads
/// every resident slot and echoes the descriptor row as its sentinel
/// readout.
pub(crate) fn pin_program(geom: &Geom, li: usize, residency: &Residency) -> PimProgram {
    let mut steps = Vec::new();
    let lanes = geom.lanes;
    let desc: Vec<u64> = [li as u64, residency.slots() as u64, 0xC0]
        .into_iter()
        .take(lanes)
        .collect();
    steps.push(Step::Load {
        addr: geom.slot(0),
        values: desc,
        lane: LANE,
    });
    let pin_row = |slot: usize, value: u64, steps: &mut Vec<Step>| {
        steps.push(Step::Load {
            addr: geom.slot(slot),
            values: vec![value; lanes],
            lane: LANE,
        });
    };
    match residency {
        Residency::ConvFull(taps) => {
            for tap in taps.iter().flatten() {
                pin_row(tap.slot, tap.value, &mut steps);
            }
        }
        Residency::ConvBwn { mask_slot, taps } => {
            pin_row(*mask_slot, 1, &mut steps);
            for tap in taps.iter().flatten() {
                pin_row(tap.slot, tap.value, &mut steps);
            }
        }
        Residency::Sentinel => {}
    }
    steps.push(Step::Readout {
        label: format!("resident:l{li}"),
        addr: geom.slot(0),
        lane: LANE,
    });
    PimProgram { steps }
}

/// Decodes layer `li`'s readouts back into activations, applying the
/// layer's host post-op (requantization, BWN count mapping) — the same
/// glue [`coruscant_nn::infer::run_pim`] runs between engine calls.
pub(crate) fn decode_layer_outputs(
    geom: &Geom,
    layer: &Layer,
    precision: Precision,
    is_last: bool,
    outputs: &[(String, Vec<u64>)],
) -> Result<ActData, String> {
    let mut it = outputs.iter();
    let mut next = |expect: usize| -> Result<Vec<u64>, String> {
        let (label, vals) = it
            .next()
            .ok_or_else(|| format!("missing readout for {} outputs", expect))?;
        if vals.len() < expect {
            return Err(format!(
                "readout {label} carries {} lanes, need {expect}",
                vals.len()
            ));
        }
        Ok(vals.clone())
    };
    match layer {
        Layer::Conv {
            kernel,
            in_channels,
            out_channels,
            out_h,
            out_w,
            ..
        } => {
            let mut t = Tensor3::zeros(*out_channels, *out_h, *out_w);
            let n_positions = in_channels * kernel * kernel;
            let shift = conv_shift(precision);
            for f in 0..*out_channels {
                for group in coords(*out_h, *out_w).chunks(geom.lanes) {
                    let vals = next(group.len())?;
                    for (l, &(y, x)) in group.iter().enumerate() {
                        let v = match precision {
                            Precision::Full | Precision::Twn => requant(vals[l], shift),
                            Precision::Bwn => requant(bwn_act(vals[l], n_positions), shift),
                        };
                        t.set(f, y, x, v as i64);
                    }
                }
            }
            Ok(ActData::Map(t))
        }
        Layer::MaxPool {
            channels,
            out_h,
            out_w,
            ..
        } => {
            let mut t = Tensor3::zeros(*channels, *out_h, *out_w);
            for ch in 0..*channels {
                for group in coords(*out_h, *out_w).chunks(geom.lanes) {
                    let vals = next(group.len())?;
                    for (l, &(y, x)) in group.iter().enumerate() {
                        t.set(ch, y, x, vals[l] as i64);
                    }
                }
            }
            Ok(ActData::Map(t))
        }
        Layer::Fc { outputs: n_out, .. } => {
            let indices: Vec<usize> = (0..*n_out).collect();
            let mut flat = vec![0u64; *n_out];
            for group in indices.chunks(geom.lanes) {
                let vals = next(group.len())?;
                for (l, &o) in group.iter().enumerate() {
                    flat[o] = if is_last {
                        vals[l] // raw logits
                    } else {
                        requant(vals[l], conv_shift(precision))
                    };
                }
            }
            Ok(ActData::Flat(flat))
        }
    }
}

/// Reconstructs the `Layer::Conv` descriptor `plan_residency` keys on
/// from an activation tensor and filter set (the builders are handed
/// tensors, not descriptors).
fn conv_desc(oc: usize, acts: &Tensor3, kernel: usize) -> Result<Layer, String> {
    let (ic, ih, iw) = acts.shape();
    if ih < kernel || iw < kernel {
        return Err(format!("input {ih}×{iw} smaller than kernel {kernel}"));
    }
    Ok(Layer::Conv {
        name: String::new(),
        kernel,
        in_channels: ic,
        out_channels: oc,
        out_h: ih - kernel + 1,
        out_w: iw - kernel + 1,
    })
}
