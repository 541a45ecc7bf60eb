//! Deterministic synthetic-data helpers.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A seeded generator of Bernoulli bit vectors packed into `u64` words.
///
/// Used to synthesize user attribute bitmaps (paper §V-D: the production
/// trace is replaced by Bernoulli bits, which preserves the query cost —
/// the PIM operation count depends only on row counts, not bit values).
#[derive(Debug, Clone)]
pub(crate) struct BitGen {
    rng: SmallRng,
}

impl BitGen {
    /// Creates a generator with a fixed seed.
    pub(crate) fn new(seed: u64) -> BitGen {
        BitGen {
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Generates `bits` Bernoulli(`p`) bits packed little-endian into
    /// `u64` words (unused top bits zero).
    pub(crate) fn bernoulli_words(&mut self, bits: usize, p: f64) -> Vec<u64> {
        let words = bits.div_ceil(64);
        let mut out = vec![0u64; words];
        for i in 0..bits {
            if self.rng.random::<f64>() < p {
                out[i / 64] |= 1 << (i % 64);
            }
        }
        out
    }

    /// Generates an `n × n` matrix of small integers (for reference kernel
    /// runs).
    pub(crate) fn matrix(&mut self, n: usize, bound: i64) -> Vec<Vec<i64>> {
        (0..n)
            .map(|_| (0..n).map(|_| self.rng.random_range(0..bound)).collect())
            .collect()
    }
}

/// Counts the ones in a packed bit vector, honoring a bit-length limit.
pub(crate) fn popcount_words(words: &[u64], bits: usize) -> u64 {
    let mut total = 0u64;
    for (i, w) in words.iter().enumerate() {
        let remaining = bits.saturating_sub(i * 64);
        if remaining == 0 {
            break;
        }
        let mask = if remaining >= 64 {
            u64::MAX
        } else {
            (1u64 << remaining) - 1
        };
        total += (w & mask).count_ones() as u64;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let a = BitGen::new(7).bernoulli_words(256, 0.5);
        let b = BitGen::new(7).bernoulli_words(256, 0.5);
        assert_eq!(a, b);
    }

    #[test]
    fn density_approximates_p() {
        let words = BitGen::new(1).bernoulli_words(100_000, 0.3);
        let ones = popcount_words(&words, 100_000) as f64;
        assert!((ones / 100_000.0 - 0.3).abs() < 0.01);
    }

    #[test]
    fn popcount_respects_bit_limit() {
        let words = vec![u64::MAX, u64::MAX];
        assert_eq!(popcount_words(&words, 70), 70);
        assert_eq!(popcount_words(&words, 128), 128);
        assert_eq!(popcount_words(&words, 0), 0);
    }

    #[test]
    fn matrix_shape() {
        let m = BitGen::new(3).matrix(4, 10);
        assert_eq!(m.len(), 4);
        assert!(m.iter().all(|r| r.len() == 4));
        assert!(m.iter().flatten().all(|&v| (0..10).contains(&v)));
    }
}
