//! CNN case study for CORUSCANT (paper §IV, §V-E).
//!
//! The paper demonstrates CORUSCANT by running convolutional neural
//! network inference entirely in memory: convolutions map to PIM
//! multiplications and carry-save reductions, pooling to the TR-based max
//! function, and fully-connected layers to multiply-accumulate plus a
//! predicated ReLU. Two networks are evaluated — LeNet-5 and AlexNet — in
//! three numeric modes:
//!
//! * **full precision** (8-bit integer) — multiplications dominate;
//! * **BWN** (binary weights, NID-style) — multiplications collapse to
//!   XNOR and the cost is governed by the reduction additions of eq. (2);
//! * **TWN** (ternary weights, DrAcc-style) — likewise addition-governed.
//!
//! Provided here:
//!
//! * [`tensor`] / [`layers`] — functional integer tensors and
//!   conv/pool/fc layers for bit-exact verification;
//! * [`models`] — the LeNet-5 and AlexNet layer descriptors with exact
//!   MAC and reduction counts (AlexNet's first layer reduces 362 operands
//!   per output, the paper's §IV-A example);
//! * [`quant`] — BWN/TWN weight quantization and the XNOR-convolution
//!   equivalence;
//! * [`mapping`] — the per-scheme inference performance model behind
//!   Tables IV and VI;
//! * [`throughput`] — the peak TOPS / GOPJ figures of §V-E.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod infer;
pub mod layers;
pub mod mapping;
pub mod models;
pub mod pim_exec;
pub mod quant;
pub mod tensor;
pub mod throughput;
