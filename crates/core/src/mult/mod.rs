//! Two-operand multiplication (paper §III-D).
//!
//! CORUSCANT multiplies by summing shifted copies of the multiplicand:
//!
//! * **Constant multiplication** ([`constant`]) recodes a compile-time
//!   multiplier in canonical signed digits and resolves it in a handful of
//!   grouped additions.
//! * **Arbitrary multiplication** generates one partial product per
//!   multiplier bit (a shifted copy of `A`, zeroed per lane where the
//!   corresponding bit of `B` is `0` — the predicated copy of §III-D2)
//!   and sums the survivors with repeated multi-operand additions.
//! * **Optimized multiplication** ([`csa`]) instead collapses the partial
//!   products with O(1) carry-save `7 → 3` reductions until at most
//!   `TRD − 2` remain, then performs a single chained addition — making
//!   multiplication O(n) instead of O(n log n) in operand width.
//!
//! Each partial product is built a word at a time
//! ([`Row::partial_product`]) and lands with one aligned `write_row`;
//! each reduction is one [`Dbc::csa_step`] and the final addition one
//! [`Dbc::carry_chain`], both plane kernels.

pub mod constant;
pub mod csa;

pub use constant::{csd_digits, csd_terms, ConstantMultiplier, ConstantPlan, CsdTerm};
pub use csa::{CsaReducer, Reduced};

use crate::add::MultiOperandAdder;
use crate::{PimError, Result};
use coruscant_mem::{Dbc, MemoryConfig, Row};
use coruscant_racetrack::CostMeter;
use serde::{Deserialize, Serialize};

/// Partial-product summation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MultStrategy {
    /// Repeated multi-operand additions over the retained partial
    /// products (paper §III-D2).
    Arbitrary,
    /// Carry-save `7 → 3` reductions, then one final addition
    /// (paper §III-D3).
    CarrySave,
}

/// The row lists a multiply sums over: the rows still live and the
/// operands of one addition. Kept from one multiply to the next (see
/// [`Multiplier::multiply_with`]), they stop allocating once warm.
#[derive(Debug, Default)]
pub(crate) struct SumLists {
    live: Vec<usize>,
    chunk: Vec<Row>,
}

/// Executes two-operand multiplications on a PIM-enabled DBC.
///
/// Operands are packed integers of `bits` bits living in lanes of
/// `2 × bits` so the full product fits. The DBC scratch layout uses row 0
/// as the super-carry landing slot, rows `1..=trd` as the reduction/add
/// window, and rows above that for the partial-product pool.
#[derive(Debug, Clone)]
pub struct Multiplier {
    trd: usize,
    strategy: MultStrategy,
}

impl Multiplier {
    /// Creates a carry-save multiplier for the configuration's TRD.
    pub fn new(config: &MemoryConfig) -> Multiplier {
        Multiplier {
            trd: config.trd,
            strategy: MultStrategy::CarrySave,
        }
    }

    /// Selects the summation strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: MultStrategy) -> Multiplier {
        self.strategy = strategy;
        self
    }

    /// The configured TRD.
    pub fn trd(&self) -> usize {
        self.trd
    }

    /// The active strategy.
    pub fn strategy(&self) -> MultStrategy {
        self.strategy
    }

    /// Multiplies lane-packed operands: `a` and `b` hold `bits`-bit values
    /// in `2 × bits`-bit lanes; the returned row holds the full products
    /// in the same lanes.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::WidthOverflow`] if the values exceed `bits`,
    /// [`PimError::NotPim`], a block-size error, or a memory error.
    pub fn multiply_packed(
        &self,
        dbc: &mut Dbc,
        a: &Row,
        b: &Row,
        bits: usize,
        meter: &mut CostMeter,
    ) -> Result<Row> {
        self.multiply_with(dbc, a, b, bits, &mut SumLists::default(), meter)
    }

    /// [`Multiplier::multiply_packed`] with its row lists kept in `lists`;
    /// it fails as that does.
    pub(crate) fn multiply_with(
        &self,
        dbc: &mut Dbc,
        a: &Row,
        b: &Row,
        bits: usize,
        lists: &mut SumLists,
        meter: &mut CostMeter,
    ) -> Result<Row> {
        let lane = 2 * bits;
        crate::add::validate_blocksize(lane, dbc.width())?;
        if !dbc.is_pim() {
            return Err(PimError::NotPim);
        }
        if let Some(widest) = overflow_width([a, b], bits, lane) {
            return Err(PimError::WidthOverflow {
                bits: widest,
                lane: bits,
            });
        }

        // ---- Partial-product generation (§III-D2) ----
        // Scratch layout: window rows 1..=trd reserved; PP pool above.
        let pool = self.trd + 1;
        let n = bits;
        if pool + n + 1 > dbc.rows() {
            return Err(PimError::Mem(coruscant_mem::MemError::RowOutOfRange {
                row: pool + n,
                rows: dbc.rows(),
            }));
        }
        // A arrives through the row buffer and is held at the drivers;
        // each partial product is one shifted write through the
        // neighbour-forwarding interconnect (brown paths of Fig. 4a), with
        // the predicated zeroing on B's bit applied in the row buffer
        // before write-back. Cost per PP: one DW alignment shift plus one
        // (shifted, predicated) write — the paper's "k shifted read and
        // write operations and k DW shifts" accounting.
        for i in 0..n {
            dbc.write_row(pool + i, &a.partial_product(b, i, lane), meter)?;
        }

        let SumLists { live, chunk } = lists;
        live.clear();
        live.extend(pool..pool + n);

        // ---- Summation ----
        if self.strategy == MultStrategy::CarrySave {
            self.reduce_with_csa(dbc, live, lane, meter)?;
        }

        // Final (or repeated, for Arbitrary) multi-operand additions. The
        // partial sum parks in a dedicated slot above the pool; it is
        // always re-consumed at the head of the next chunk, so rewriting
        // the slot never clobbers live data.
        let adder = MultiOperandAdder::with_trd(self.trd);
        let max_ops = adder.max_operands();
        let slot = pool + n;
        while live.len() > 1 {
            let take = max_ops.min(live.len());
            chunk.clear();
            for r in live.drain(..take) {
                chunk.push(dbc.read_row(r, meter)?);
            }
            // Confine the addition's scratch rows to the reserved window
            // (rows 1..=trd) so the live pool rows survive.
            let sum = adder.add_rows_at(dbc, chunk, 1, lane, meter)?;
            dbc.write_row(slot, &sum, meter)?;
            live.insert(0, slot);
        }
        Ok(dbc.peek_row(live[0])?)
    }

    /// Collapses the live rows with carry-save reductions until at most
    /// `TRD − 2` remain.
    fn reduce_with_csa(
        &self,
        dbc: &mut Dbc,
        live: &mut Vec<usize>,
        lane: usize,
        meter: &mut CostMeter,
    ) -> Result<()> {
        let (reducer, trd) = (CsaReducer::new(self.trd), self.trd);
        while live.len() > MultiOperandAdder::with_trd(trd).max_operands() {
            let t = trd.min(live.len());
            // Fast path: a full window of contiguous live rows (with the
            // super-carry landing row free below it) reduces in place with
            // no data movement — the common case right after partial-
            // product generation, where the pool is contiguous.
            let in_place = t == trd
                && live[..t].windows(2).all(|w| w[1] == w[0] + 1)
                && live[0] >= 1
                && !live.contains(&(live[0] - 1));
            let base = if in_place {
                let base = live[0];
                live.drain(..t);
                base
            } else {
                let (chosen, rest) = live.split_at(t);
                // Overlap-aware gather: chosen rows inside the window keep
                // their slot, the stragglers pay a read/write move into the
                // free slots in ascending order, and a slot nothing lands
                // in is zeroed (one write each).
                let base = self.best_window(dbc.rows(), chosen, rest);
                let mut free = (0..trd).filter(|s| !chosen.contains(&(base + s)));
                for &r in chosen.iter().filter(|&&r| r < base || r >= base + trd) {
                    let (data, s) = (dbc.read_row(r, meter)?, free.next().expect("a free slot"));
                    dbc.write_row(base + s, &data, meter)?;
                }
                let zero = Row::zeros(dbc.width());
                for s in free {
                    dbc.write_row(base + s, &zero, meter)?;
                }
                live.drain(..t);
                base
            };
            // With zero padding the reduction always spans the window.
            let out = reducer.reduce(dbc, base, trd, lane, meter)?;
            // Outputs go to the FRONT of the live list so the next
            // reduction consumes them first — this guarantees the C'
            // landing row is re-read before any later reduction overwrites
            // it.
            live.splice(0..0, [out.s, out.c].into_iter().chain(out.cp));
        }
        Ok(())
    }

    /// Picks the reduction-window base that overlaps the most chosen rows
    /// (the lowest such base) while keeping surviving live rows and the
    /// super-carry slot (`base − 1`) out of harm's way; row 1 when no base
    /// qualifies.
    fn best_window(&self, rows: usize, chosen: &[usize], remaining: &[usize]) -> usize {
        let span = |b: usize| b..b + self.trd;
        let safe = |b: &usize| {
            !remaining
                .iter()
                .any(|r| span(*b).contains(r) || r + 1 == *b)
        };
        let hits = |b: &usize| chosen.iter().filter(|r| span(*b).contains(r)).count();
        let bases = (1..=rows.saturating_sub(self.trd)).filter(safe);
        bases.rev().max_by_key(hits).unwrap_or(1)
    }

    /// Convenience: multiplies slices of values, packing them into lanes
    /// of `2 × bits` across as many rows as needed (here: one row).
    ///
    /// # Errors
    ///
    /// As [`Multiplier::multiply_packed`]; also
    /// [`PimError::LengthMismatch`] for slices of different lengths and
    /// [`PimError::TooManyOperands`] for more values than one row has
    /// lanes.
    pub fn multiply_values(
        &self,
        dbc: &mut Dbc,
        a: &[u64],
        b: &[u64],
        bits: usize,
        meter: &mut CostMeter,
    ) -> Result<Vec<u64>> {
        let lane = 2 * bits;
        let lanes = dbc.width() / lane;
        if a.len() != b.len() {
            return Err(PimError::LengthMismatch {
                left: a.len(),
                right: b.len(),
            });
        }
        if a.len() > lanes {
            return Err(PimError::TooManyOperands {
                requested: a.len(),
                max: lanes,
            });
        }
        let ra = Row::pack(dbc.width(), lane, a);
        let rb = Row::pack(dbc.width(), lane, b);
        let product = self.multiply_packed(dbc, &ra, &rb, bits, meter)?;
        Ok(product.unpack(lane).into_iter().take(a.len()).collect())
    }

    /// Reference product (oracle): lane-wise `a * b` (never overflows the
    /// double-width lane).
    pub fn reference(a: &[u64], b: &[u64]) -> Vec<u64> {
        a.iter().zip(b).map(|(&x, &y)| x * y).collect()
    }
}

/// The bit width of the widest value in the `lane`-bit lanes of `rows`,
/// if any does not fit the low `bits` of its lane. The high halves of a
/// word's lanes are one mask, so the test allocates nothing.
fn overflow_width(rows: [&Row; 2], bits: usize, lane: usize) -> Option<usize> {
    let (per, low) = (lane / 64, u64::MAX >> (64 - lane.min(64)));
    let high = |w: usize| match lane {
        ..=64 => (low ^ low >> bits).wrapping_mul(u64::MAX / low),
        _ => 0u64.wrapping_sub(u64::from(w % per >= per / 2)),
    };
    let mut widest = None;
    for (w, &word) in rows.iter().flat_map(|row| row.words().iter().enumerate()) {
        let mut over = word & high(w);
        while over != 0 {
            // An offender is as wide as its bit's place in its lane, plus one.
            let at = w * 64 + over.trailing_zeros() as usize;
            widest = widest.max(Some(at % lane + 1));
            over &= over - 1;
        }
    }
    widest
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(trd: usize) -> (Dbc, Multiplier) {
        let config = MemoryConfig::tiny().with_trd(trd);
        (Dbc::pim_enabled(&config), Multiplier::new(&config))
    }

    #[test]
    fn eight_bit_products_carry_save() {
        let (mut dbc, mult) = setup(7);
        let a = [3u64, 255, 17, 128];
        let b = [5u64, 255, 0, 2];
        let mut m = CostMeter::new();
        let got = mult.multiply_values(&mut dbc, &a, &b, 8, &mut m).unwrap();
        assert_eq!(got, Multiplier::reference(&a, &b));
        assert!(m.total().cycles > 0);
    }

    #[test]
    fn eight_bit_products_arbitrary() {
        let (mut dbc, mult) = setup(7);
        let mult = mult.with_strategy(MultStrategy::Arbitrary);
        let a = [99u64, 200, 1, 77];
        let b = [44u64, 201, 255, 0];
        let got = mult
            .multiply_values(&mut dbc, &a, &b, 8, &mut CostMeter::new())
            .unwrap();
        assert_eq!(got, Multiplier::reference(&a, &b));
    }

    #[test]
    fn carry_save_beats_arbitrary_latency() {
        // The O(n) CSA pipeline must be faster than the O(n log n)
        // repeated additions (the core claim of §III-D3).
        let a = [251u64, 13, 99, 255];
        let b = [253u64, 240, 187, 255];
        let (mut dbc, mult) = setup(7);
        let mut m_csa = CostMeter::new();
        mult.multiply_values(&mut dbc, &a, &b, 8, &mut m_csa)
            .unwrap();

        let (mut dbc2, mult2) = setup(7);
        let mult2 = mult2.with_strategy(MultStrategy::Arbitrary);
        let mut m_arb = CostMeter::new();
        mult2
            .multiply_values(&mut dbc2, &a, &b, 8, &mut m_arb)
            .unwrap();

        assert!(
            m_csa.total().cycles < m_arb.total().cycles,
            "csa {} vs arbitrary {}",
            m_csa.total().cycles,
            m_arb.total().cycles
        );
    }

    #[test]
    fn trd3_multiplication_works() {
        let (mut dbc, mult) = setup(3);
        let a = [7u64, 250, 3, 100];
        let b = [9u64, 250, 0, 255];
        let got = mult
            .multiply_values(&mut dbc, &a, &b, 8, &mut CostMeter::new())
            .unwrap();
        assert_eq!(got, Multiplier::reference(&a, &b));
    }

    #[test]
    fn trd5_multiplication_works() {
        let (mut dbc, mult) = setup(5);
        let a = [31u64, 2, 255, 64];
        let b = [31u64, 128, 255, 3];
        let got = mult
            .multiply_values(&mut dbc, &a, &b, 8, &mut CostMeter::new())
            .unwrap();
        assert_eq!(got, Multiplier::reference(&a, &b));
    }

    #[test]
    fn latency_ordering_across_trd() {
        // Larger TRD -> fewer reductions -> fewer cycles (Table III:
        // 105 cycles at TRD = 3 vs 64 at TRD = 7).
        let a = [173u64; 4];
        let b = [219u64; 4];
        let mut cycles = Vec::new();
        for trd in [3usize, 5, 7] {
            let (mut dbc, mult) = setup(trd);
            let mut m = CostMeter::new();
            mult.multiply_values(&mut dbc, &a, &b, 8, &mut m).unwrap();
            cycles.push(m.total().cycles);
        }
        assert!(
            cycles[0] > cycles[1] && cycles[1] > cycles[2],
            "cycles by TRD: {cycles:?}"
        );
    }

    #[test]
    fn four_bit_products() {
        let (mut dbc, mult) = setup(7);
        let a: Vec<u64> = (0..8).collect();
        let b: Vec<u64> = (8..16).map(|x| x % 16).collect();
        let got = mult
            .multiply_values(&mut dbc, &a, &b, 4, &mut CostMeter::new())
            .unwrap();
        assert_eq!(got, Multiplier::reference(&a, &b));
    }

    #[test]
    fn value_counts_are_checked() {
        let (mut dbc, mult) = setup(7);
        let mut m = CostMeter::new();
        let err = mult
            .multiply_values(&mut dbc, &[1, 2], &[3], 8, &mut m)
            .unwrap_err();
        assert_eq!(err, PimError::LengthMismatch { left: 2, right: 1 });
        assert_eq!(err.to_string(), "operand lists of 2 and 1 values differ");
        // 64 wires hold four 16-bit lanes.
        let err = mult
            .multiply_values(&mut dbc, &[1; 5], &[1; 5], 8, &mut m)
            .unwrap_err();
        assert_eq!(
            err,
            PimError::TooManyOperands {
                requested: 5,
                max: 4
            }
        );
        assert_eq!(
            err.to_string(),
            "5 operands exceed the maximum of 4 at this TRD"
        );
        assert_eq!(m, CostMeter::new(), "rejected before any device work");
    }

    #[test]
    fn oversized_operands_rejected() {
        let (mut dbc, mult) = setup(7);
        let err = mult
            .multiply_values(&mut dbc, &[256], &[1], 8, &mut CostMeter::new())
            .unwrap_err();
        assert_eq!(err, PimError::WidthOverflow { bits: 9, lane: 8 });
        assert_eq!(err.to_string(), "9-bit operands do not fit a 8-bit lane");
        // The widest offender of either operand, in any lane.
        let err = mult
            .multiply_values(
                &mut dbc,
                &[3, 0x30, 1],
                &[0, 1, 0x1FFF],
                8,
                &mut CostMeter::new(),
            )
            .unwrap_err();
        assert_eq!(err, PimError::WidthOverflow { bits: 13, lane: 8 });
        let err = mult
            .multiply_values(&mut dbc, &[0x10], &[0], 4, &mut CostMeter::new())
            .unwrap_err();
        assert_eq!(err, PimError::WidthOverflow { bits: 5, lane: 4 });
        // Lanes wider than a word: 64-bit operands in 128-bit lanes.
        let config = MemoryConfig {
            nanowires_per_dbc: 256,
            ..MemoryConfig::tiny()
        };
        let mut dbc = Dbc::pim_enabled(&config);
        let wide = Row::from_u64_words(256, &[0, 0, 7, 1 << 3]);
        let zero = Row::zeros(256);
        let err = mult
            .multiply_packed(&mut dbc, &zero, &wide, 64, &mut CostMeter::new())
            .unwrap_err();
        assert_eq!(err, PimError::WidthOverflow { bits: 68, lane: 64 });
    }

    #[test]
    fn partial_products_oracle() {
        let a = Row::pack(64, 16, &[0x00FF, 0x0003, 0, 0]);
        let b = Row::pack(64, 16, &[0x0005, 0x00FF, 0, 0]);
        let pps: Vec<Row> = (0..8).map(|i| a.partial_product(&b, i, 16)).collect();
        // Sum of PPs equals the product, lane-wise.
        let mut sums = [0u64; 4];
        for pp in &pps {
            for (l, v) in pp.unpack(16).into_iter().enumerate() {
                sums[l] = (sums[l] + v) & 0xFFFF;
            }
        }
        assert_eq!(sums[0], 0xFF * 5);
        assert_eq!(sums[1], 3 * 0xFF);
    }

    #[test]
    fn zero_multiplier_gives_zero() {
        let (mut dbc, mult) = setup(7);
        let got = mult
            .multiply_values(&mut dbc, &[123, 45], &[0, 0], 8, &mut CostMeter::new())
            .unwrap();
        assert_eq!(got, vec![0, 0]);
    }
}
