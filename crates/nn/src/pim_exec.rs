//! Functional CNN inference **on the PIM engine** (paper §IV).
//!
//! This module actually executes a ternary-weight CNN with CORUSCANT
//! operations — no shortcut arithmetic on the hot path:
//!
//! * convolution and fully-connected layers split each output's window by
//!   weight sign and compute `Σ(+1·act) − Σ(−1·act)` with the
//!   carry-save [`ArithmeticUnit::sum_rows`] accumulator and the
//!   two's-complement subtractor (DrAcc-style ternary inference,
//!   §IV-A);
//! * ReLU is the predicated row refresh on the lane sign bit (§IV-C);
//! * max pooling runs the transverse-write max function (§IV-B).
//!
//! Outputs are packed several per row (16-bit lanes), so a handful of
//! spatially adjacent outputs share every DBC operation — the lane-level
//! parallelism the architecture provides. Between layers, activations are
//! requantized to 8 bits in the row buffer (a data-formatting step, not
//! arithmetic).

use coruscant_core::arith::ArithmeticUnit;
use coruscant_core::maxpool::MaxExecutor;
use coruscant_core::relu::relu_row;
use coruscant_core::Result;
use coruscant_mem::{Dbc, MemoryConfig, Row};
use coruscant_racetrack::{Cost, CostMeter};

use crate::tensor::Tensor3;

/// Lane width used for accumulations (sums of 8-bit products fit
/// comfortably).
const LANE: usize = 16;

/// A ternary-weight CNN executor over a PIM-enabled DBC.
#[derive(Debug)]
pub struct PimCnn {
    config: MemoryConfig,
    arith: ArithmeticUnit,
    maxer: MaxExecutor,
    meter: CostMeter,
}

impl PimCnn {
    /// Creates an executor for the configuration.
    pub fn new(config: &MemoryConfig) -> PimCnn {
        PimCnn {
            config: config.clone(),
            arith: ArithmeticUnit::new(config),
            maxer: MaxExecutor::new(config),
            meter: CostMeter::new(),
        }
    }

    /// Total device cost accumulated so far.
    pub fn cost(&self) -> Cost {
        self.meter.total()
    }

    fn lanes(&self) -> usize {
        self.config.nanowires_per_dbc / LANE
    }

    fn fresh_dbc(&self) -> Dbc {
        Dbc::pim_enabled(&self.config)
    }

    /// Ternary convolution + ReLU: `weights[oc]` has entries in
    /// {−1, 0, 1}; activations are unsigned 8-bit. Valid padding,
    /// stride 1.
    ///
    /// # Errors
    ///
    /// Propagates PIM errors.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches (one weight tensor per output channel,
    /// weight shape `in_channels × k × k`).
    pub fn conv2d_ternary(
        &mut self,
        input: &Tensor3,
        weights: &[Tensor3],
        kernel: usize,
    ) -> Result<Tensor3> {
        let (ic, ih, iw) = input.shape();
        let oh = ih - kernel + 1;
        let ow = iw - kernel + 1;
        let oc = weights.len();
        let mut out = Tensor3::zeros(oc, oh, ow);
        let lanes = self.lanes();

        for (f, w) in weights.iter().enumerate() {
            assert_eq!(w.shape(), (ic, kernel, kernel), "weight shape");
            // Split the window positions by weight sign (fixed per filter).
            let mut plus = Vec::new();
            let mut minus = Vec::new();
            for c in 0..ic {
                for dy in 0..kernel {
                    for dx in 0..kernel {
                        match w.get(c, dy, dx) {
                            1 => plus.push((c, dy, dx)),
                            -1 => minus.push((c, dy, dx)),
                            0 => {}
                            other => panic!("non-ternary weight {other}"),
                        }
                    }
                }
            }

            // Outputs in lane groups.
            let coords: Vec<(usize, usize)> =
                (0..oh).flat_map(|y| (0..ow).map(move |x| (y, x))).collect();
            for group in coords.chunks(lanes) {
                let width = self.config.nanowires_per_dbc;
                let gather = |positions: &[(usize, usize, usize)]| -> Vec<Row> {
                    positions
                        .iter()
                        .map(|&(c, dy, dx)| {
                            let vals: Vec<u64> = group
                                .iter()
                                .map(|&(y, x)| input.get(c, y + dy, x + dx) as u64)
                                .collect();
                            Row::pack(width, LANE, &vals)
                        })
                        .collect()
                };
                let plus_rows = gather(&plus);
                let minus_rows = gather(&minus);
                let mut dbc = self.fresh_dbc();
                let p = self.sum_or_zero(&mut dbc, &plus_rows)?;
                let n = self.sum_or_zero(&mut dbc, &minus_rows)?;
                let diff = self
                    .arith
                    .subtract(&mut dbc, &p, &n, LANE, &mut self.meter)?;
                // ReLU on the 16-bit lane sign bit (predicated refresh).
                let relu_slot = self.config.rows_per_dbc - 1;
                dbc.write_row(relu_slot, &diff, &mut self.meter)?;
                let rect = relu_row(&mut dbc, relu_slot, LANE, &mut self.meter)?;
                for (l, &(y, x)) in group.iter().enumerate() {
                    out.set(f, y, x, rect.unpack(LANE)[l] as i64);
                }
            }
        }
        Ok(out)
    }

    fn sum_or_zero(&mut self, dbc: &mut Dbc, rows: &[Row]) -> Result<Row> {
        if rows.is_empty() {
            Ok(Row::zeros(self.config.nanowires_per_dbc))
        } else {
            self.arith.sum_rows(dbc, rows, LANE, &mut self.meter)
        }
    }

    /// Max pooling over non-overlapping `window × window` regions using
    /// the transverse-write max function.
    ///
    /// # Errors
    ///
    /// Propagates PIM errors (the window area must be at most TRD).
    pub fn maxpool(&mut self, input: &Tensor3, window: usize) -> Result<Tensor3> {
        let (c, h, w) = input.shape();
        let oh = h / window;
        let ow = w / window;
        let mut out = Tensor3::zeros(c, oh, ow);
        let lanes = self.lanes();

        for ch in 0..c {
            let coords: Vec<(usize, usize)> =
                (0..oh).flat_map(|y| (0..ow).map(move |x| (y, x))).collect();
            for group in coords.chunks(lanes) {
                // One candidate row per window position; lane l carries
                // output l's candidate.
                let mut candidates = Vec::with_capacity(window * window);
                for dy in 0..window {
                    for dx in 0..window {
                        let vals: Vec<u64> = group
                            .iter()
                            .map(|&(y, x)| input.get(ch, y * window + dy, x * window + dx) as u64)
                            .collect();
                        candidates.push(Row::pack(self.config.nanowires_per_dbc, LANE, &vals));
                    }
                }
                let mut dbc = self.fresh_dbc();
                let m = self
                    .maxer
                    .max_rows(&mut dbc, &candidates, LANE, &mut self.meter)?;
                for (l, &(y, x)) in group.iter().enumerate() {
                    out.set(ch, y, x, m.unpack(LANE)[l] as i64);
                }
            }
        }
        Ok(out)
    }

    /// Ternary fully-connected layer with ReLU.
    ///
    /// # Errors
    ///
    /// Propagates PIM errors.
    ///
    /// # Panics
    ///
    /// Panics if weight rows do not match the input length.
    pub fn fc_ternary(&mut self, input: &[u64], weights: &[Vec<i8>]) -> Result<Vec<u64>> {
        let lanes = self.lanes();
        let mut out = vec![0u64; weights.len()];
        let indices: Vec<usize> = (0..weights.len()).collect();
        for group in indices.chunks(lanes) {
            let width = self.config.nanowires_per_dbc;
            let gather = |sign: i8| -> Vec<Row> {
                (0..input.len())
                    .filter_map(|i| {
                        let vals: Vec<u64> = group
                            .iter()
                            .map(|&o| {
                                assert_eq!(weights[o].len(), input.len(), "weight row width");
                                if weights[o][i] == sign {
                                    input[i]
                                } else {
                                    0
                                }
                            })
                            .collect();
                        if vals.iter().all(|&v| v == 0) {
                            None
                        } else {
                            Some(Row::pack(width, LANE, &vals))
                        }
                    })
                    .collect()
            };
            let plus_rows = gather(1);
            let minus_rows = gather(-1);
            let mut dbc = self.fresh_dbc();
            let p = self.sum_or_zero(&mut dbc, &plus_rows)?;
            let n = self.sum_or_zero(&mut dbc, &minus_rows)?;
            let diff = self
                .arith
                .subtract(&mut dbc, &p, &n, LANE, &mut self.meter)?;
            let relu_slot = self.config.rows_per_dbc - 1;
            dbc.write_row(relu_slot, &diff, &mut self.meter)?;
            let rect = relu_row(&mut dbc, relu_slot, LANE, &mut self.meter)?;
            for (l, &o) in group.iter().enumerate() {
                out[o] = rect.unpack(LANE)[l];
            }
        }
        Ok(out)
    }

    /// Requantizes activations back to 8 bits between layers (row-buffer
    /// data formatting): `min(v >> shift, 255)`.
    pub fn requantize(t: &Tensor3, shift: u32) -> Tensor3 {
        t.map(|v| ((v as u64) >> shift).min(255) as i64)
    }

    /// Full-precision (integer-weight) convolution + ReLU: weights carry
    /// signed 8-bit-range magnitudes, activations are unsigned 8-bit.
    /// Each window position multiplies the activation row by the
    /// broadcast weight-magnitude row on the carry-save multiplier;
    /// positive- and negative-weight products accumulate separately and
    /// meet in the two's-complement subtractor, exactly like the ternary
    /// path but with true products instead of sign-selected activations.
    ///
    /// Products and partial sums ride 16-bit lanes: callers keep
    /// `Σ|w|·act` per output under 2¹⁵ (the evaluated reduced-geometry
    /// networks do by construction).
    ///
    /// # Errors
    ///
    /// Propagates PIM errors.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub(crate) fn conv2d_full(
        &mut self,
        input: &Tensor3,
        weights: &[Tensor3],
        kernel: usize,
    ) -> Result<Tensor3> {
        let (ic, ih, iw) = input.shape();
        let oh = ih - kernel + 1;
        let ow = iw - kernel + 1;
        let oc = weights.len();
        let mut out = Tensor3::zeros(oc, oh, ow);
        let lanes = self.lanes();
        let width = self.config.nanowires_per_dbc;
        let mult = coruscant_core::mult::Multiplier::new(&self.config);

        for (f, w) in weights.iter().enumerate() {
            assert_eq!(w.shape(), (ic, kernel, kernel), "weight shape");
            // Non-zero positions with their magnitudes, split by sign.
            let mut plus = Vec::new();
            let mut minus = Vec::new();
            for c in 0..ic {
                for dy in 0..kernel {
                    for dx in 0..kernel {
                        let v = w.get(c, dy, dx);
                        match v.cmp(&0) {
                            std::cmp::Ordering::Greater => plus.push((c, dy, dx, v as u64)),
                            std::cmp::Ordering::Less => minus.push((c, dy, dx, (-v) as u64)),
                            std::cmp::Ordering::Equal => {}
                        }
                    }
                }
            }

            let coords: Vec<(usize, usize)> =
                (0..oh).flat_map(|y| (0..ow).map(move |x| (y, x))).collect();
            for group in coords.chunks(lanes) {
                let mut dbc = self.fresh_dbc();
                let mut products =
                    |dbc: &mut Dbc, positions: &[(usize, usize, usize, u64)]| -> Result<Vec<Row>> {
                        positions
                            .iter()
                            .map(|&(c, dy, dx, mag)| {
                                let acts: Vec<u64> = group
                                    .iter()
                                    .map(|&(y, x)| input.get(c, y + dy, x + dx) as u64)
                                    .collect();
                                let a = Row::pack(width, LANE, &acts);
                                let b = Row::pack(width, LANE, &vec![mag; group.len()]);
                                mult.multiply_packed(dbc, &a, &b, LANE / 2, &mut self.meter)
                            })
                            .collect()
                    };
                let plus_rows = products(&mut dbc, &plus)?;
                let minus_rows = products(&mut dbc, &minus)?;
                let p = self.sum_or_zero(&mut dbc, &plus_rows)?;
                let n = self.sum_or_zero(&mut dbc, &minus_rows)?;
                let diff = self
                    .arith
                    .subtract(&mut dbc, &p, &n, LANE, &mut self.meter)?;
                let relu_slot = self.config.rows_per_dbc - 1;
                dbc.write_row(relu_slot, &diff, &mut self.meter)?;
                let rect = relu_row(&mut dbc, relu_slot, LANE, &mut self.meter)?;
                for (l, &(y, x)) in group.iter().enumerate() {
                    out.set(f, y, x, rect.unpack(LANE)[l] as i64);
                }
            }
        }
        Ok(out)
    }

    /// Full-precision fully-connected layer with ReLU: per input, the
    /// activation row multiplies the per-output weight-magnitude row,
    /// accumulating positive- and negative-weight products separately
    /// (the lane-overflow discipline of `PimCnn::conv2d_full` applies).
    ///
    /// # Errors
    ///
    /// Propagates PIM errors.
    ///
    /// # Panics
    ///
    /// Panics if weight rows do not match the input length.
    pub fn fc_full(&mut self, input: &[u64], weights: &[Vec<i8>]) -> Result<Vec<u64>> {
        let lanes = self.lanes();
        let width = self.config.nanowires_per_dbc;
        let mult = coruscant_core::mult::Multiplier::new(&self.config);
        let mut out = vec![0u64; weights.len()];
        let indices: Vec<usize> = (0..weights.len()).collect();
        for group in indices.chunks(lanes) {
            let mut dbc = self.fresh_dbc();
            let mut products = |dbc: &mut Dbc, sign: i8| -> Result<Vec<Row>> {
                (0..input.len())
                    .filter_map(|i| {
                        let mags: Vec<u64> = group
                            .iter()
                            .map(|&o| {
                                assert_eq!(weights[o].len(), input.len(), "weight row width");
                                let w = weights[o][i];
                                if (sign > 0 && w > 0) || (sign < 0 && w < 0) {
                                    w.unsigned_abs() as u64
                                } else {
                                    0
                                }
                            })
                            .collect();
                        if mags.iter().all(|&v| v == 0) {
                            return None;
                        }
                        let a = Row::pack(width, LANE, &vec![input[i]; group.len()]);
                        let b = Row::pack(width, LANE, &mags);
                        Some(mult.multiply_packed(dbc, &a, &b, LANE / 2, &mut self.meter))
                    })
                    .collect()
            };
            let plus_rows = products(&mut dbc, 1)?;
            let minus_rows = products(&mut dbc, -1)?;
            let p = self.sum_or_zero(&mut dbc, &plus_rows)?;
            let n = self.sum_or_zero(&mut dbc, &minus_rows)?;
            let diff = self
                .arith
                .subtract(&mut dbc, &p, &n, LANE, &mut self.meter)?;
            let relu_slot = self.config.rows_per_dbc - 1;
            dbc.write_row(relu_slot, &diff, &mut self.meter)?;
            let rect = relu_row(&mut dbc, relu_slot, LANE, &mut self.meter)?;
            for (l, &o) in group.iter().enumerate() {
                out[o] = rect.unpack(LANE)[l];
            }
        }
        Ok(out)
    }

    /// Binary (XNOR-net, NID-style) convolution: both activations and
    /// weights are sign bits; the ±1 dot product of an `n`-position
    /// window is `2·popcount(XNOR(a, w)) − n` (paper §IV-A). The XNOR of
    /// each window position is one bulk-bitwise PIM operation; the
    /// popcount is the reduction addition of the match bits.
    ///
    /// `input_bits` / `weights[f]` hold `true` for +1, `false` for −1.
    /// Returns the signed dot products.
    ///
    /// # Errors
    ///
    /// Propagates PIM errors.
    ///
    /// # Panics
    ///
    /// Panics on weight shape mismatches.
    pub(crate) fn conv2d_bwn(
        &mut self,
        input_bits: &Tensor3,
        weights: &[Tensor3],
        kernel: usize,
    ) -> Result<Tensor3> {
        let (ic, ih, iw) = input_bits.shape();
        let oh = ih - kernel + 1;
        let ow = iw - kernel + 1;
        let mut out = Tensor3::zeros(weights.len(), oh, ow);
        let lanes = self.lanes();
        let width = self.config.nanowires_per_dbc;
        let n_positions = ic * kernel * kernel;
        let bulk = coruscant_core::bulk::BulkExecutor::new(&self.config);

        for (f, w) in weights.iter().enumerate() {
            assert_eq!(w.shape(), (ic, kernel, kernel), "weight shape");
            let coords: Vec<(usize, usize)> =
                (0..oh).flat_map(|y| (0..ow).map(move |x| (y, x))).collect();
            for group in coords.chunks(lanes) {
                // One XNOR per window position: activation-bit row vs the
                // broadcast weight-bit row. The match bits accumulate as
                // 1-per-lane rows for the popcount reduction.
                let mut match_rows = Vec::with_capacity(n_positions);
                for c in 0..ic {
                    for dy in 0..kernel {
                        for dx in 0..kernel {
                            let acts: Vec<u64> = group
                                .iter()
                                .map(|&(y, x)| u64::from(input_bits.get(c, y + dy, x + dx) != 0))
                                .collect();
                            let a_row = Row::pack(width, LANE, &acts);
                            let w_bit = w.get(c, dy, dx) != 0;
                            let w_row =
                                Row::pack(width, LANE, &vec![u64::from(w_bit); group.len()]);
                            let mut dbc = self.fresh_dbc();
                            let m = bulk.execute(
                                &mut dbc,
                                coruscant_core::bulk::BulkOp::Xnor,
                                &[a_row, w_row],
                                &mut self.meter,
                            )?;
                            // Keep only the lane LSB (the match bit).
                            let bits: Vec<u64> =
                                m.unpack(LANE).into_iter().map(|v| v & 1).collect();
                            match_rows.push(Row::pack(width, LANE, &bits));
                        }
                    }
                }
                // Popcount via the carry-save accumulator.
                let mut dbc = self.fresh_dbc();
                let count = self
                    .arith
                    .sum_rows(&mut dbc, &match_rows, LANE, &mut self.meter)?;
                for (l, &(y, x)) in group.iter().enumerate() {
                    let matches = count.unpack(LANE)[l] as i64;
                    out.set(f, y, x, 2 * matches - n_positions as i64);
                }
            }
        }
        Ok(out)
    }
}

/// Reference binary (±1) convolution (oracle): sign bits in, signed dot
/// products out.
pub(crate) fn reference_conv_bwn(
    input_bits: &Tensor3,
    weights: &[Tensor3],
    kernel: usize,
) -> Tensor3 {
    let (ic, ih, iw) = input_bits.shape();
    let oh = ih - kernel + 1;
    let ow = iw - kernel + 1;
    let mut out = Tensor3::zeros(weights.len(), oh, ow);
    for (f, w) in weights.iter().enumerate() {
        for y in 0..oh {
            for x in 0..ow {
                let mut acc = 0i64;
                for c in 0..ic {
                    for dy in 0..kernel {
                        for dx in 0..kernel {
                            let a = if input_bits.get(c, y + dy, x + dx) != 0 {
                                1
                            } else {
                                -1
                            };
                            let ww = if w.get(c, dy, dx) != 0 { 1 } else { -1 };
                            acc += a * ww;
                        }
                    }
                }
                out.set(f, y, x, acc);
            }
        }
    }
    out
}

/// Reference ternary convolution + ReLU (oracle).
pub fn reference_conv_ternary(input: &Tensor3, weights: &[Tensor3], kernel: usize) -> Tensor3 {
    let conv = crate::layers::conv2d(input, weights, weights.len(), kernel);
    conv.map(|v| v.max(0))
}

/// Reference full-precision convolution + ReLU (oracle).
pub(crate) fn reference_conv_full(input: &Tensor3, weights: &[Tensor3], kernel: usize) -> Tensor3 {
    let conv = crate::layers::conv2d(input, weights, weights.len(), kernel);
    conv.map(|v| v.max(0))
}

/// Reference full-precision FC + ReLU (oracle). The signed dot product
/// is the same shape as the ternary one, just with wider weights.
pub(crate) fn reference_fc_full(input: &[u64], weights: &[Vec<i8>]) -> Vec<u64> {
    reference_fc_ternary(input, weights)
}

/// Reference ternary FC + ReLU (oracle).
pub fn reference_fc_ternary(input: &[u64], weights: &[Vec<i8>]) -> Vec<u64> {
    weights
        .iter()
        .map(|row| {
            let acc: i64 = row
                .iter()
                .zip(input)
                .map(|(&w, &x)| i64::from(w) * x as i64)
                .sum();
            acc.max(0) as u64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ternary_weights(oc: usize, ic: usize, k: usize, seed: u64) -> Vec<Tensor3> {
        (0..oc)
            .map(|f| {
                let mut t = Tensor3::zeros(ic, k, k);
                t.fill_pattern(seed + f as u64, 1); // values in {-1, 0, 1}
                t
            })
            .collect()
    }

    fn small_input(c: usize, h: usize, w: usize, seed: u64) -> Tensor3 {
        let mut t = Tensor3::zeros(c, h, w);
        t.fill_pattern(seed, 4);
        t.map(|v| v.abs().min(15)) // unsigned small activations
    }

    #[test]
    fn pim_conv_matches_reference() {
        let config = MemoryConfig::tiny();
        let input = small_input(1, 6, 6, 3);
        let weights = ternary_weights(2, 1, 3, 11);
        let mut pim = PimCnn::new(&config);
        let got = pim.conv2d_ternary(&input, &weights, 3).unwrap();
        let want = reference_conv_ternary(&input, &weights, 3);
        assert_eq!(got, want);
        assert!(pim.cost().cycles > 0, "real device work was done");
    }

    #[test]
    fn pim_maxpool_matches_reference() {
        let config = MemoryConfig::tiny();
        let input = small_input(2, 6, 6, 5);
        let mut pim = PimCnn::new(&config);
        let got = pim.maxpool(&input, 2).unwrap();
        assert_eq!(got, crate::layers::maxpool(&input, 2));
    }

    #[test]
    fn pim_fc_matches_reference() {
        let config = MemoryConfig::tiny();
        let input: Vec<u64> = (0..12).map(|i| (i * 7) % 16).collect();
        let weights: Vec<Vec<i8>> = (0..5)
            .map(|o| {
                (0..12)
                    .map(|i| (((o * 13 + i * 5) % 3) as i8) - 1)
                    .collect()
            })
            .collect();
        let mut pim = PimCnn::new(&config);
        let got = pim.fc_ternary(&input, &weights).unwrap();
        assert_eq!(got, reference_fc_ternary(&input, &weights));
    }

    #[test]
    fn tiny_network_end_to_end_on_pim() {
        // conv(3x3, 2 filters) -> ReLU -> pool(2x2) -> fc(2 outputs),
        // everything on the PIM engine, verified layer-by-layer.
        let config = MemoryConfig::tiny();
        let input = small_input(1, 8, 8, 9);
        let conv_w = ternary_weights(2, 1, 3, 21);
        let fc_w: Vec<Vec<i8>> = (0..2)
            .map(|o| {
                (0..2 * 3 * 3)
                    .map(|i| (((o * 7 + i * 3) % 3) as i8) - 1)
                    .collect()
            })
            .collect();

        let mut pim = PimCnn::new(&config);
        let c1 = pim.conv2d_ternary(&input, &conv_w, 3).unwrap(); // 2x6x6
        let q1 = PimCnn::requantize(&c1, 0);
        let p1 = pim.maxpool(&q1, 2).unwrap(); // 2x3x3
        let flat: Vec<u64> = p1.as_slice().iter().map(|&v| v as u64).collect();
        let out = pim.fc_ternary(&flat, &fc_w).unwrap();

        // Oracle chain.
        let rc1 = reference_conv_ternary(&input, &conv_w, 3);
        let rp1 = crate::layers::maxpool(&rc1, 2);
        let rflat: Vec<u64> = rp1.as_slice().iter().map(|&v| v as u64).collect();
        let rout = reference_fc_ternary(&rflat, &fc_w);
        assert_eq!(out, rout);
        assert!(pim.cost().cycles > 100, "cost: {}", pim.cost());
    }

    #[test]
    fn bwn_conv_matches_signed_reference() {
        let config = MemoryConfig::tiny();
        let mut bits = Tensor3::zeros(1, 5, 5);
        bits.fill_pattern(13, 1);
        let bits = bits.map(|v| i64::from(v > 0));
        let weights: Vec<Tensor3> = (0..2)
            .map(|f| {
                let mut t = Tensor3::zeros(1, 3, 3);
                t.fill_pattern(31 + f, 1);
                t.map(|v| i64::from(v > 0))
            })
            .collect();
        let mut pim = PimCnn::new(&config);
        let got = pim.conv2d_bwn(&bits, &weights, 3).unwrap();
        let want = reference_conv_bwn(&bits, &weights, 3);
        assert_eq!(got, want);
        // Every output is in [-9, 9] with the parity of 9.
        for &v in got.as_slice() {
            assert!((-9..=9).contains(&v) && (v - 9) % 2 == 0);
        }
    }

    #[test]
    fn bwn_multichannel() {
        let config = MemoryConfig::tiny();
        let mut bits = Tensor3::zeros(2, 4, 4);
        bits.fill_pattern(77, 1);
        let bits = bits.map(|v| i64::from(v > 0));
        let weights: Vec<Tensor3> = (0..3)
            .map(|f| {
                let mut t = Tensor3::zeros(2, 2, 2);
                t.fill_pattern(91 + f, 1);
                t.map(|v| i64::from(v > 0))
            })
            .collect();
        let mut pim = PimCnn::new(&config);
        let got = pim.conv2d_bwn(&bits, &weights, 2).unwrap();
        assert_eq!(got, reference_conv_bwn(&bits, &weights, 2));
    }

    #[test]
    fn full_precision_conv_matches_reference() {
        let config = MemoryConfig::tiny();
        let input = small_input(2, 5, 5, 7);
        let weights: Vec<Tensor3> = (0..2)
            .map(|f| {
                let mut t = Tensor3::zeros(2, 3, 3);
                t.fill_pattern(41 + f, 2); // values in {-2..=2}
                t
            })
            .collect();
        let mut pim = PimCnn::new(&config);
        let got = pim.conv2d_full(&input, &weights, 3).unwrap();
        assert_eq!(got, reference_conv_full(&input, &weights, 3));
        assert!(pim.cost().cycles > 0);
    }

    #[test]
    fn full_precision_fc_matches_reference() {
        let config = MemoryConfig::tiny();
        let input: Vec<u64> = (0..10).map(|i| (i * 11) % 32).collect();
        let weights: Vec<Vec<i8>> = (0..6)
            .map(|o| {
                (0..10)
                    .map(|i| (((o * 17 + i * 7) % 7) as i8) - 3) // {-3..=3}
                    .collect()
            })
            .collect();
        let mut pim = PimCnn::new(&config);
        let got = pim.fc_full(&input, &weights).unwrap();
        assert_eq!(got, reference_fc_full(&input, &weights));
    }

    #[test]
    fn requantize_clamps_and_shifts() {
        let t = Tensor3::from_data(1, 1, 4, vec![1024, 511, 0, 70000]);
        let q = PimCnn::requantize(&t, 2);
        assert_eq!(q.as_slice(), &[255, 127, 0, 255]);
    }
}
