//! CNN layers: descriptors with exact operation counts, plus functional
//! integer implementations for verification (paper §IV).

use crate::tensor::Tensor3;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A layer descriptor carrying the shape information the performance
/// model needs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Layer {
    /// A 2-D convolution (square kernel, valid padding unless noted).
    Conv {
        /// Layer label.
        name: String,
        /// Kernel side length `K`.
        kernel: usize,
        /// Input channels `I_c`.
        in_channels: usize,
        /// Output channels.
        out_channels: usize,
        /// Output feature-map height.
        out_h: usize,
        /// Output feature-map width.
        out_w: usize,
    },
    /// Max pooling over `window × window` regions.
    MaxPool {
        /// Layer label.
        name: String,
        /// Pooling window side.
        window: usize,
        /// Channels.
        channels: usize,
        /// Output height.
        out_h: usize,
        /// Output width.
        out_w: usize,
    },
    /// A fully-connected layer (`outputs × inputs` weights) with ReLU.
    Fc {
        /// Layer label.
        name: String,
        /// Input features.
        inputs: usize,
        /// Output features.
        outputs: usize,
    },
}

impl Layer {
    /// Layer label.
    pub fn name(&self) -> &str {
        match self {
            Layer::Conv { name, .. } | Layer::MaxPool { name, .. } | Layer::Fc { name, .. } => name,
        }
    }

    /// Number of output values `O_s`.
    pub fn outputs(&self) -> u64 {
        match self {
            Layer::Conv {
                out_channels,
                out_h,
                out_w,
                ..
            } => (out_channels * out_h * out_w) as u64,
            Layer::MaxPool {
                channels,
                out_h,
                out_w,
                ..
            } => (channels * out_h * out_w) as u64,
            Layer::Fc { outputs, .. } => *outputs as u64,
        }
    }

    /// Multiply-accumulates per output value (zero for pooling).
    pub(crate) fn macs_per_output(&self) -> u64 {
        match self {
            Layer::Conv {
                kernel,
                in_channels,
                ..
            } => (kernel * kernel * in_channels) as u64,
            Layer::MaxPool { .. } => 0,
            Layer::Fc { inputs, .. } => *inputs as u64,
        }
    }

    /// Total multiply-accumulates.
    pub fn macs(&self) -> u64 {
        self.outputs() * self.macs_per_output()
    }

    /// Reduction additions per output under the binary/ternary
    /// approximations — the per-output term of the paper's eq. (2):
    /// `(K² − 1)·I_c + (I_c − 1)`.
    pub(crate) fn adds_per_output(&self) -> u64 {
        match self {
            Layer::Conv {
                kernel,
                in_channels,
                ..
            } => {
                let k2 = (kernel * kernel) as u64;
                let ic = *in_channels as u64;
                (k2 - 1) * ic + (ic - 1)
            }
            Layer::MaxPool { .. } => 0,
            Layer::Fc { inputs, .. } => (*inputs as u64).saturating_sub(1),
        }
    }

    /// Total reduction additions (eq. 2): `O_s × adds_per_output`.
    pub(crate) fn reduction_adds(&self) -> u64 {
        self.outputs() * self.adds_per_output()
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} outputs, {} MACs",
            self.name(),
            self.outputs(),
            self.macs()
        )
    }
}

/// Functional integer convolution (valid padding, stride 1): the oracle
/// the PIM mapping must reproduce.
pub fn conv2d(input: &Tensor3, weights: &[Tensor3], out_channels: usize, kernel: usize) -> Tensor3 {
    let (ic, ih, iw) = input.shape();
    assert_eq!(weights.len(), out_channels, "one weight tensor per filter");
    let oh = ih - kernel + 1;
    let ow = iw - kernel + 1;
    let mut out = Tensor3::zeros(out_channels, oh, ow);
    for (oc, w) in weights.iter().enumerate() {
        assert_eq!(w.shape(), (ic, kernel, kernel), "weight shape");
        for y in 0..oh {
            for x in 0..ow {
                let mut acc = 0i64;
                for c in 0..ic {
                    for dy in 0..kernel {
                        for dx in 0..kernel {
                            acc += input.get(c, y + dy, x + dx) * w.get(c, dy, dx);
                        }
                    }
                }
                out.set(oc, y, x, acc);
            }
        }
    }
    out
}

/// Functional max pooling (non-overlapping `window × window`).
pub fn maxpool(input: &Tensor3, window: usize) -> Tensor3 {
    let (c, h, w) = input.shape();
    let oh = h / window;
    let ow = w / window;
    let mut out = Tensor3::zeros(c, oh, ow);
    for ch in 0..c {
        for y in 0..oh {
            for x in 0..ow {
                let mut m = i64::MIN;
                for dy in 0..window {
                    for dx in 0..window {
                        m = m.max(input.get(ch, y * window + dy, x * window + dx));
                    }
                }
                out.set(ch, y, x, m);
            }
        }
    }
    out
}

/// Functional fully-connected layer with ReLU: `ReLU(W·x + b)`.
pub fn fc_relu(input: &[i64], weights: &[Vec<i64>], bias: &[i64]) -> Vec<i64> {
    assert_eq!(weights.len(), bias.len(), "one bias per output");
    weights
        .iter()
        .zip(bias)
        .map(|(row, &b)| {
            assert_eq!(row.len(), input.len(), "weight row width");
            let acc: i64 = row.iter().zip(input).map(|(&w, &x)| w * x).sum::<i64>() + b;
            acc.max(0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv_layer(kernel: usize, ic: usize, oc: usize, oh: usize, ow: usize) -> Layer {
        Layer::Conv {
            name: "c".into(),
            kernel,
            in_channels: ic,
            out_channels: oc,
            out_h: oh,
            out_w: ow,
        }
    }

    #[test]
    fn conv_counts() {
        // AlexNet conv1: 11x11 kernel, 3 input channels, 96 filters on
        // 55x55 outputs.
        let l = conv_layer(11, 3, 96, 55, 55);
        assert_eq!(l.outputs(), 96 * 55 * 55);
        assert_eq!(l.macs_per_output(), 11 * 11 * 3);
        // Paper §IV-A: the first reduction of AlexNet has 362 operands.
        assert_eq!(l.adds_per_output(), 362);
    }

    #[test]
    fn fc_counts() {
        let l = Layer::Fc {
            name: "fc".into(),
            inputs: 400,
            outputs: 120,
        };
        assert_eq!(l.macs(), 48_000);
        assert_eq!(l.adds_per_output(), 399);
    }

    #[test]
    fn functional_conv_small_case() {
        // 1 channel, 3x3 input, 2x2 kernel of ones: each output is the
        // window sum.
        let input = Tensor3::from_data(1, 3, 3, (1..=9).collect());
        let w = Tensor3::from_data(1, 2, 2, vec![1; 4]);
        let out = conv2d(&input, &[w], 1, 2);
        assert_eq!(out.shape(), (1, 2, 2));
        assert_eq!(out.get(0, 0, 0), 1 + 2 + 4 + 5);
        assert_eq!(out.get(0, 1, 1), 5 + 6 + 8 + 9);
    }

    #[test]
    fn functional_conv_multichannel() {
        let mut input = Tensor3::zeros(2, 2, 2);
        input.fill_pattern(3, 5);
        let mut w = Tensor3::zeros(2, 2, 2);
        w.fill_pattern(5, 3);
        let out = conv2d(&input, &[w.clone()], 1, 2);
        let want: i64 = input
            .as_slice()
            .iter()
            .zip(w.as_slice())
            .map(|(&a, &b)| a * b)
            .sum();
        assert_eq!(out.get(0, 0, 0), want);
    }

    #[test]
    fn functional_maxpool() {
        let input = Tensor3::from_data(1, 4, 4, (0..16).collect());
        let out = maxpool(&input, 2);
        assert_eq!(out.shape(), (1, 2, 2));
        assert_eq!(out.get(0, 0, 0), 5);
        assert_eq!(out.get(0, 1, 1), 15);
    }

    #[test]
    fn functional_fc_relu() {
        let x = vec![1, -2, 3];
        let w = vec![vec![1, 1, 1], vec![-5, 0, 0]];
        let b = vec![0, 2];
        let y = fc_relu(&x, &w, &b);
        assert_eq!(y, vec![2, 0], "second output rectified to zero");
    }

    #[test]
    fn pool_counts() {
        let l = Layer::MaxPool {
            name: "p".into(),
            window: 2,
            channels: 6,
            out_h: 14,
            out_w: 14,
        };
        assert_eq!(l.outputs(), 6 * 14 * 14);
        assert_eq!(l.macs(), 0);
        assert_eq!(l.reduction_adds(), 0);
    }
}
