//! Model-level CNN inference: one place that fixes the layer-by-layer
//! numeric contract (weight synthesis, activation quantization, host
//! post-ops) so every execution path — the standalone
//! [`PimCnn`] engine, the host reference
//! oracle, and the serving pipeline's per-layer job programs — computes
//! the *same function* and can be compared bit-for-bit.
//!
//! The contract, per [`Precision`]:
//!
//! * **Full** — unsigned 8-bit activations; convolution and FC run true
//!   products against signed integer weights, ReLU on the device, then
//!   conv outputs requantize with shift `FULL_CONV_SHIFT`.
//! * **Twn** — ternary weights in {−1, 0, 1} (DrAcc-style sign-selected
//!   accumulation); conv outputs requantize with shift 0 (clamp only).
//! * **Bwn** — binarized weights; conv activations binarize to sign
//!   bits, the device computes XNOR-popcounts, and the host maps count
//!   `m` over `n` positions to `relu(2m − n)` ([`bwn_act`]). FC layers
//!   run the ±1 sign-selected path on the 8-bit activations.
//!
//! Geometry note: the paper-scale LeNet-5/AlexNet graphs are far too
//! large for the functional simulator's instruction-level execution, so
//! exactness testing runs on *reduced-geometry proxies*
//! ([`proxy_lenet5`], [`proxy_alexnet`]) that preserve each network's
//! layer structure (conv/pool/FC sequence, all three precisions) at
//! tractable channel counts. Paper-scale throughput comes from the
//! analytic model in [`crate::mapping`].

use coruscant_core::Result;
use coruscant_mem::MemoryConfig;

use crate::layers::Layer;
use crate::models::Network;
use crate::pim_exec::{
    reference_conv_bwn, reference_conv_full, reference_conv_ternary, reference_fc_full,
    reference_fc_ternary, PimCnn,
};
use crate::quant::Precision;
use crate::tensor::Tensor3;

/// Requantization shift applied after full-precision conv layers.
pub(crate) const FULL_CONV_SHIFT: u32 = 2;

/// One layer's weights (pool layers carry none).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayerWeights {
    /// Convolution filters, one tensor (`ic × k × k`) per output channel.
    Conv(Vec<Tensor3>),
    /// Fully-connected weight rows, one per output.
    Fc(Vec<Vec<i8>>),
    /// Pooling (no weights).
    None,
}

/// A network's weights under one precision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelWeights {
    /// The precision the weights were synthesized for.
    pub precision: Precision,
    /// Per-layer weights, aligned with [`Network::layers`].
    pub layers: Vec<LayerWeights>,
}

/// Deterministic weight value in `-bound..=bound` (tiny LCG, the same
/// shape as [`Tensor3::fill_pattern`]).
fn pattern(seed: u64, i: u64, bound: i64) -> i64 {
    let mut state = (seed.wrapping_add(i.wrapping_mul(0xA076_1D64_78BD_642F)))
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        | 1;
    state ^= state >> 29;
    state = state.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    state ^= state >> 32;
    let span = (2 * bound + 1) as u64;
    (state % span) as i64 - bound
}

/// Synthesizes deterministic weights for `net` under `precision`.
/// The same `(net, precision, seed)` triple always produces identical
/// weights, so distributed executors agree without shipping tensors.
pub fn synth_weights(net: &Network, precision: Precision, seed: u64) -> ModelWeights {
    let mut layers = Vec::with_capacity(net.layers.len());
    for (li, layer) in net.layers.iter().enumerate() {
        let lseed = seed.wrapping_mul(1_000_003).wrapping_add(li as u64 * 7919);
        let w = match layer {
            Layer::Conv {
                kernel,
                in_channels,
                out_channels,
                ..
            } => {
                let filters: Vec<Tensor3> = (0..*out_channels)
                    .map(|f| {
                        let mut t = Tensor3::zeros(*in_channels, *kernel, *kernel);
                        let n = t.len();
                        let vals: Vec<i64> = (0..n)
                            .map(|i| {
                                let raw = pattern(lseed, (f * n + i) as u64, 2);
                                // Skew positive ({-2} → {1}) so ReLU chains keep
                                // signal through deep proxies.
                                let skew = if raw == -2 { 1 } else { raw };
                                match precision {
                                    Precision::Full => skew,         // {-1..=2}
                                    Precision::Twn => skew.signum(), // {-1, 0, 1}
                                    // 4:1 one-bit skew keeps `2m − n` positive
                                    // often enough for signal to reach the FCs.
                                    Precision::Bwn => i64::from(raw >= -1),
                                }
                            })
                            .collect();
                        for (i, v) in vals.into_iter().enumerate() {
                            let (ic, k, _) = t.shape();
                            let _ = ic;
                            let c = i / (k * k);
                            let y = (i / k) % k;
                            let x = i % k;
                            t.set(c, y, x, v);
                        }
                        t
                    })
                    .collect();
                LayerWeights::Conv(filters)
            }
            Layer::Fc {
                inputs, outputs, ..
            } => {
                let rows: Vec<Vec<i8>> = (0..*outputs)
                    .map(|o| {
                        (0..*inputs)
                            .map(|i| {
                                let raw = pattern(lseed, (o * inputs + i) as u64, 2);
                                let skew = if raw == -2 { 1 } else { raw };
                                match precision {
                                    Precision::Full => skew as i8, // {-1..=2}
                                    Precision::Twn => skew.signum() as i8,
                                    // 4:1 positive skew keeps ±1 dot products
                                    // above zero on small BWN activations.
                                    Precision::Bwn => {
                                        if raw >= -1 {
                                            1
                                        } else {
                                            -1
                                        }
                                    }
                                }
                            })
                            .collect()
                    })
                    .collect();
                LayerWeights::Fc(rows)
            }
            Layer::MaxPool { .. } => LayerWeights::None,
        };
        layers.push(w);
    }
    ModelWeights { precision, layers }
}

/// Deterministic unsigned 8-bit test image for `net`'s input shape.
pub fn synth_image(net: &Network, seed: u64) -> Tensor3 {
    let (c, h, w) = input_shape(net);
    let n = Tensor3::zeros(c, h, w).len();
    let vals: Vec<i64> = (0..n)
        .map(|i| pattern(seed ^ 0xDEAD_BEEF, i as u64, 127).abs().min(255))
        .collect();
    Tensor3::from_data(c, h, w, vals)
}

/// The input tensor shape `net` expects, derived from its first layer.
///
/// # Panics
///
/// Panics if the network starts with an FC layer (flat networks supply
/// their own input).
pub(crate) fn input_shape(net: &Network) -> (usize, usize, usize) {
    match net.layers.first().expect("non-empty network") {
        Layer::Conv {
            kernel,
            in_channels,
            out_h,
            out_w,
            ..
        } => (*in_channels, out_h + kernel - 1, out_w + kernel - 1),
        Layer::MaxPool {
            window,
            channels,
            out_h,
            out_w,
            ..
        } => (*channels, out_h * window, out_w * window),
        Layer::Fc { .. } => panic!("networks starting with FC supply their own input"),
    }
}

/// Host post-op for BWN conv outputs: XNOR match count `m` over `n`
/// window positions → `relu(2m − n)`, the signed ±1 dot product
/// rectified (paper §IV-A).
pub fn bwn_act(count: u64, n_positions: usize) -> u64 {
    (2 * count as i64 - n_positions as i64).max(0) as u64
}

/// Requantization to unsigned 8 bits: `min(v >> shift, 255)` — the
/// row-buffer data-formatting step between layers.
pub fn requant(v: u64, shift: u32) -> u64 {
    (v >> shift).min(255)
}

/// Activation binarization for BWN conv inputs: the sign bit of an
/// unsigned activation (`1` iff non-zero).
pub fn binarize_act(v: u64) -> u64 {
    u64::from(v > 0)
}

/// The requantization shift a conv layer applies under `precision`.
pub fn conv_shift(precision: Precision) -> u32 {
    match precision {
        Precision::Full => FULL_CONV_SHIFT,
        Precision::Twn | Precision::Bwn => 0,
    }
}

/// Reduced-geometry LeNet-5 proxy: same conv → pool → conv → pool →
/// FC×2 stack at simulator-tractable dimensions.
pub fn proxy_lenet5() -> Network {
    Network {
        name: "lenet5-proxy".into(),
        layers: vec![
            Layer::Conv {
                name: "c1".into(),
                kernel: 3,
                in_channels: 1,
                out_channels: 2,
                out_h: 10,
                out_w: 10,
            },
            Layer::MaxPool {
                name: "s2".into(),
                window: 2,
                channels: 2,
                out_h: 5,
                out_w: 5,
            },
            Layer::Fc {
                name: "f3".into(),
                inputs: 50,
                outputs: 8,
            },
            Layer::Fc {
                name: "f4".into(),
                inputs: 8,
                outputs: 4,
            },
        ],
    }
}

/// Reduced-geometry AlexNet proxy: five convs, three pools, three FCs —
/// the published layer stack at simulator-tractable dimensions.
pub fn proxy_alexnet() -> Network {
    Network {
        name: "alexnet-proxy".into(),
        layers: vec![
            Layer::Conv {
                name: "conv1".into(),
                kernel: 3,
                in_channels: 1,
                out_channels: 2,
                out_h: 14,
                out_w: 14,
            },
            Layer::MaxPool {
                name: "pool1".into(),
                window: 2,
                channels: 2,
                out_h: 7,
                out_w: 7,
            },
            Layer::Conv {
                name: "conv2".into(),
                kernel: 2,
                in_channels: 2,
                out_channels: 3,
                out_h: 6,
                out_w: 6,
            },
            Layer::MaxPool {
                name: "pool2".into(),
                window: 2,
                channels: 3,
                out_h: 3,
                out_w: 3,
            },
            Layer::Conv {
                name: "conv3".into(),
                kernel: 2,
                in_channels: 3,
                out_channels: 4,
                out_h: 2,
                out_w: 2,
            },
            Layer::Conv {
                name: "conv4".into(),
                kernel: 1,
                in_channels: 4,
                out_channels: 4,
                out_h: 2,
                out_w: 2,
            },
            Layer::Conv {
                name: "conv5".into(),
                kernel: 1,
                in_channels: 4,
                out_channels: 3,
                out_h: 2,
                out_w: 2,
            },
            Layer::MaxPool {
                name: "pool3".into(),
                window: 2,
                channels: 3,
                out_h: 1,
                out_w: 1,
            },
            Layer::Fc {
                name: "fc6".into(),
                inputs: 3,
                outputs: 6,
            },
            Layer::Fc {
                name: "fc7".into(),
                inputs: 6,
                outputs: 6,
            },
            Layer::Fc {
                name: "fc8".into(),
                inputs: 6,
                outputs: 4,
            },
        ],
    }
}

/// Runs `net` end to end on the PIM engine ([`PimCnn`]) and returns the
/// logits (final FC outputs, post-ReLU).
///
/// # Errors
///
/// Propagates PIM errors.
///
/// # Panics
///
/// Panics on weight/layer misalignment.
pub fn run_pim(
    config: &MemoryConfig,
    net: &Network,
    weights: &ModelWeights,
    image: &Tensor3,
) -> Result<Vec<u64>> {
    assert_eq!(weights.layers.len(), net.layers.len(), "weights per layer");
    let mut pim = PimCnn::new(config);
    let precision = weights.precision;
    let mut act = image.clone();
    let mut flat: Option<Vec<u64>> = None;
    let last = net.layers.len() - 1;
    for (li, (layer, w)) in net.layers.iter().zip(&weights.layers).enumerate() {
        match (layer, w) {
            (Layer::Conv { kernel, .. }, LayerWeights::Conv(filters)) => {
                let out = match precision {
                    Precision::Full => pim.conv2d_full(&act, filters, *kernel)?,
                    Precision::Twn => pim.conv2d_ternary(&act, filters, *kernel)?,
                    Precision::Bwn => {
                        let bits = act.map(|v| binarize_act(v as u64) as i64);
                        let dots = pim.conv2d_bwn(&bits, filters, *kernel)?;
                        dots.map(|v| v.max(0))
                    }
                };
                act = PimCnn::requantize(&out, conv_shift(precision));
            }
            (Layer::MaxPool { window, .. }, LayerWeights::None) => {
                act = pim.maxpool(&act, *window)?;
            }
            (Layer::Fc { .. }, LayerWeights::Fc(rows)) => {
                let input = flat
                    .take()
                    .unwrap_or_else(|| act.as_slice().iter().map(|&v| v as u64).collect());
                let mut out = match precision {
                    Precision::Full => pim.fc_full(&input, rows)?,
                    Precision::Twn | Precision::Bwn => pim.fc_ternary(&input, rows)?,
                };
                if li < last {
                    // Hidden FC activations requantize to 8 bits like conv
                    // outputs; only the final layer keeps raw logits.
                    out = out
                        .into_iter()
                        .map(|v| requant(v, conv_shift(precision)))
                        .collect();
                }
                flat = Some(out);
            }
            (l, _) => panic!("weights misaligned at layer {}", l.name()),
        }
    }
    Ok(flat.unwrap_or_else(|| act.as_slice().iter().map(|&v| v as u64).collect()))
}

/// Runs `net` end to end on the host reference oracle — the same
/// numeric contract as [`run_pim`], pure `i64` arithmetic.
///
/// # Panics
///
/// Panics on weight/layer misalignment.
pub fn run_reference(net: &Network, weights: &ModelWeights, image: &Tensor3) -> Vec<u64> {
    assert_eq!(weights.layers.len(), net.layers.len(), "weights per layer");
    let precision = weights.precision;
    let mut act = image.clone();
    let mut flat: Option<Vec<u64>> = None;
    let last = net.layers.len() - 1;
    for (li, (layer, w)) in net.layers.iter().zip(&weights.layers).enumerate() {
        match (layer, w) {
            (Layer::Conv { kernel, .. }, LayerWeights::Conv(filters)) => {
                let out = match precision {
                    Precision::Full => reference_conv_full(&act, filters, *kernel),
                    Precision::Twn => reference_conv_ternary(&act, filters, *kernel),
                    Precision::Bwn => {
                        let bits = act.map(|v| binarize_act(v as u64) as i64);
                        reference_conv_bwn(&bits, filters, *kernel).map(|v| v.max(0))
                    }
                };
                act = PimCnn::requantize(&out, conv_shift(precision));
            }
            (Layer::MaxPool { window, .. }, LayerWeights::None) => {
                act = crate::layers::maxpool(&act, *window);
            }
            (Layer::Fc { .. }, LayerWeights::Fc(rows)) => {
                let input = flat
                    .take()
                    .unwrap_or_else(|| act.as_slice().iter().map(|&v| v as u64).collect());
                let mut out = match precision {
                    Precision::Full => reference_fc_full(&input, rows),
                    Precision::Twn | Precision::Bwn => reference_fc_ternary(&input, rows),
                };
                if li < last {
                    out = out
                        .into_iter()
                        .map(|v| requant(v, conv_shift(precision)))
                        .collect();
                }
                flat = Some(out);
            }
            (l, _) => panic!("weights misaligned at layer {}", l.name()),
        }
    }
    flat.unwrap_or_else(|| act.as_slice().iter().map(|&v| v as u64).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_synthesis_is_deterministic_and_precision_shaped() {
        let net = proxy_lenet5();
        for precision in [Precision::Full, Precision::Twn, Precision::Bwn] {
            let a = synth_weights(&net, precision, 42);
            let b = synth_weights(&net, precision, 42);
            assert_eq!(a, b);
            for lw in &a.layers {
                match lw {
                    LayerWeights::Conv(filters) => {
                        for f in filters {
                            for &v in f.as_slice() {
                                match precision {
                                    Precision::Full => assert!((-2..=2).contains(&v)),
                                    Precision::Twn => assert!((-1..=1).contains(&v)),
                                    Precision::Bwn => assert!(v == 0 || v == 1),
                                }
                            }
                        }
                    }
                    LayerWeights::Fc(rows) => {
                        for row in rows {
                            for &v in row {
                                match precision {
                                    Precision::Full => assert!((-2..=2).contains(&v)),
                                    Precision::Twn => assert!((-1..=1).contains(&v)),
                                    Precision::Bwn => assert!(v == -1 || v == 1),
                                }
                            }
                        }
                    }
                    LayerWeights::None => {}
                }
            }
        }
    }

    #[test]
    fn proxies_have_consistent_shapes() {
        for net in [proxy_lenet5(), proxy_alexnet()] {
            let image = synth_image(&net, 1);
            let w = synth_weights(&net, Precision::Twn, 1);
            // The reference chain panics on any shape inconsistency.
            let logits = run_reference(&net, &w, &image);
            assert!(!logits.is_empty());
        }
    }

    #[test]
    fn pim_inference_matches_reference_across_models_and_precisions() {
        let config = MemoryConfig::tiny();
        for net in [proxy_lenet5(), proxy_alexnet()] {
            let image = synth_image(&net, 7);
            for precision in [Precision::Full, Precision::Bwn, Precision::Twn] {
                let w = synth_weights(&net, precision, 3);
                let pim = run_pim(&config, &net, &w, &image).unwrap();
                let oracle = run_reference(&net, &w, &image);
                assert_eq!(pim, oracle, "{} @ {:?}", net.name, precision);
                // A degenerate all-zero output would make the equality
                // vacuous — the synthesis skew exists to prevent that.
                assert!(
                    pim.iter().any(|&v| v > 0),
                    "{} @ {:?} produced all-zero logits",
                    net.name,
                    precision
                );
            }
        }
    }
}
