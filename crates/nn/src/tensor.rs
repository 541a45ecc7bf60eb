//! A minimal integer tensor for functional CNN verification.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A channel-major 3-D integer tensor (`channels × height × width`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Tensor3 {
    channels: usize,
    height: usize,
    width: usize,
    data: Vec<i64>,
}

impl Tensor3 {
    /// Creates a zero tensor.
    pub fn zeros(channels: usize, height: usize, width: usize) -> Tensor3 {
        Tensor3 {
            channels,
            height,
            width,
            data: vec![0; channels * height * width],
        }
    }

    /// Creates a tensor from raw channel-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != channels * height * width`.
    pub(crate) fn from_data(
        channels: usize,
        height: usize,
        width: usize,
        data: Vec<i64>,
    ) -> Tensor3 {
        assert_eq!(data.len(), channels * height * width, "shape mismatch");
        Tensor3 {
            channels,
            height,
            width,
            data,
        }
    }

    /// Shape as `(channels, height, width)`.
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.channels, self.height, self.width)
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    fn idx(&self, c: usize, y: usize, x: usize) -> usize {
        debug_assert!(c < self.channels && y < self.height && x < self.width);
        (c * self.height + y) * self.width + x
    }

    /// Element accessor.
    pub fn get(&self, c: usize, y: usize, x: usize) -> i64 {
        self.data[self.idx(c, y, x)]
    }

    /// Element mutator.
    pub fn set(&mut self, c: usize, y: usize, x: usize, v: i64) {
        let i = self.idx(c, y, x);
        self.data[i] = v;
    }

    /// Flat view of the data (channel-major).
    pub fn as_slice(&self) -> &[i64] {
        &self.data
    }

    /// Applies a function elementwise.
    #[must_use]
    pub fn map(&self, f: impl Fn(i64) -> i64) -> Tensor3 {
        Tensor3 {
            channels: self.channels,
            height: self.height,
            width: self.width,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Fills the tensor with a deterministic pseudo-random pattern in
    /// `[-bound, bound]` (a test helper).
    pub fn fill_pattern(&mut self, seed: u64, bound: i64) {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for v in &mut self.data {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *v = (state % (2 * bound as u64 + 1)) as i64 - bound;
        }
    }
}

impl fmt::Display for Tensor3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Tensor3[{}x{}x{}]",
            self.channels, self.height, self.width
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_access() {
        let mut t = Tensor3::zeros(2, 3, 4);
        assert_eq!(t.shape(), (2, 3, 4));
        assert_eq!(t.len(), 24);
        t.set(1, 2, 3, 42);
        assert_eq!(t.get(1, 2, 3), 42);
        assert_eq!(t.get(0, 0, 0), 0);
    }

    #[test]
    fn from_data_roundtrip() {
        let data: Vec<i64> = (0..12).collect();
        let t = Tensor3::from_data(2, 2, 3, data.clone());
        assert_eq!(t.as_slice(), &data[..]);
        assert_eq!(t.get(1, 1, 2), 11);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn bad_shape_panics() {
        Tensor3::from_data(2, 2, 2, vec![0; 7]);
    }

    #[test]
    fn map_is_elementwise() {
        let t = Tensor3::from_data(1, 1, 3, vec![-1, 0, 5]);
        let r = t.map(|v| v.max(0));
        assert_eq!(r.as_slice(), &[0, 0, 5]);
    }

    #[test]
    fn fill_pattern_is_deterministic_and_bounded() {
        let mut a = Tensor3::zeros(2, 4, 4);
        let mut b = Tensor3::zeros(2, 4, 4);
        a.fill_pattern(7, 10);
        b.fill_pattern(7, 10);
        assert_eq!(a, b);
        assert!(a.as_slice().iter().all(|&v| (-10..=10).contains(&v)));
        assert!(a.as_slice().iter().any(|&v| v != 0));
    }
}
