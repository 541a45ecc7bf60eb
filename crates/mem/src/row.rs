//! A memory row: one bit per nanowire of a DBC, at most [`Row::MAX_WIDTH`]
//! of them, packed into eight inline words.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{BitAnd, BitOr, BitXor, Not};

/// One row of a DBC: `width` bits, bit `i` belonging to nanowire `i`.
///
/// Rows are the operand granularity of bulk-bitwise PIM: a logic operation
/// combines whole rows bitwise, and an addition treats a row as `width /
/// blocksize` packed integers (paper §III-E: blocksize ∈ {8, …, 512}).
///
/// # Example
///
/// ```
/// use coruscant_mem::Row;
/// let a = Row::from_u64_words(64, &[0b1010]);
/// let b = Row::from_u64_words(64, &[0b0110]);
/// assert_eq!((&a & &b).to_u64_words()[0], 0b0010);
/// assert_eq!((&a | &b).to_u64_words()[0], 0b1110);
/// assert_eq!((&a ^ &b).to_u64_words()[0], 0b1100);
/// ```
///
/// The bits are packed into 64-bit words (bit `i` is bit `i % 64` of word
/// `i / 64`; bits past `width` stay zero) — the layout of a DBC's bit
/// planes, so a row moves in or out of a DBC as a word copy and every
/// operator here works a word at a time. A row is at most the paper's 512
/// bits (`MemoryConfig::validate` holds a DBC to it) and keeps its words
/// inline: the PIM algorithms make and drop several rows per device
/// cycle, and none of them touches the heap.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Row {
    width: usize,
    /// The first `width.div_ceil(64)` words are the row; the rest stay zero.
    words: [u64; 8],
}

/// `unit` (a pattern in the low `blocksize` bits) repeated across a word;
/// `blocksize` is a power of two of at most 64.
fn replicate(unit: u64, blocksize: usize) -> u64 {
    let (mut word, mut span) = (unit, blocksize);
    while span < 64 {
        word |= word << span;
        span *= 2;
    }
    word
}

/// Every `blocksize` lane of a word filled with its bit `j`, taken from
/// `word`, the word of the lane that holds that bit.
pub(crate) fn spread_bit(word: u64, j: usize, blocksize: usize) -> u64 {
    let lane = blocksize.min(64);
    (word >> (j % 64) & replicate(1, lane)).wrapping_mul(u64::MAX >> (64 - lane))
}

impl Row {
    /// The widest row: 512 bits, a paper DBC (Table II).
    pub const MAX_WIDTH: usize = 512;

    /// Creates an all-zero row of `width` bits; panics past
    /// [`Row::MAX_WIDTH`].
    pub fn zeros(width: usize) -> Row {
        assert!(width <= Row::MAX_WIDTH, "{width} bits: over 512");
        let words = [0; 8];
        Row { width, words }
    }

    /// Builds a row word by word (`f` sees the word index); bits past
    /// `width` are cleared.
    fn from_fn(width: usize, f: impl FnMut(usize) -> u64) -> Row {
        let mut row = Row::zeros(width);
        let words = row.words_mut();
        words.iter_mut().zip((0..).map(f)).for_each(|(w, x)| *w = x);
        if let Some(last) = words.last_mut() {
            *last &= u64::MAX >> ((64 - width % 64) % 64);
        }
        row
    }

    /// Creates an all-one row of `width` bits.
    pub fn ones(width: usize) -> Row {
        Row::from_fn(width, |_| u64::MAX)
    }

    /// Creates a row from raw bits (bit `i` → nanowire `i`).
    pub fn from_bits(bits: Vec<bool>) -> Row {
        bits.into_iter().collect()
    }

    /// Creates a `width`-bit row by packing little-endian 64-bit words:
    /// word `w` bit `b` lands at row bit `64 * w + b`. Missing words are
    /// zero-filled; excess bits beyond `width` are discarded.
    pub fn from_u64_words(width: usize, words: &[u64]) -> Row {
        Row::from_fn(width, |w| words.get(w).copied().unwrap_or(0))
    }

    /// Packs fixed-width integers into a row: value `v` of `values` occupies
    /// bits `[v * blocksize, (v+1) * blocksize)`, little-endian within the
    /// block. Values wider than `blocksize` bits are truncated.
    pub fn pack(width: usize, blocksize: usize, values: &[u64]) -> Row {
        assert!((1..=64).contains(&blocksize), "blocksize 1..=64 supported");
        let mut row = Row::zeros(width);
        let words = row.words_mut();
        for (v, &value) in values.iter().enumerate().take(width.div_ceil(blocksize)) {
            let (at, value) = (v * blocksize, value & (u64::MAX >> (64 - blocksize)));
            words[at / 64] |= value << (at % 64);
            if at % 64 + blocksize > 64 && at / 64 + 1 < words.len() {
                words[at / 64 + 1] |= value >> (64 - at % 64);
            }
        }
        Row::from_fn(width, |w| row.words()[w])
    }

    /// Unpacks the row into `width / blocksize` fixed-width integers.
    pub fn unpack(&self, blocksize: usize) -> Vec<u64> {
        assert!((1..=64).contains(&blocksize), "blocksize 1..=64 supported");
        let lane = |v: usize| {
            let at = v * blocksize;
            let mut value = self.words()[at / 64] >> (at % 64);
            if at % 64 + blocksize > 64 {
                value |= self.words()[at / 64 + 1] << (64 - at % 64);
            }
            value & (u64::MAX >> (64 - blocksize))
        };
        (0..self.width / blocksize).map(lane).collect()
    }

    /// The row as little-endian 64-bit words (last word zero-padded).
    pub fn to_u64_words(&self) -> Vec<u64> {
        self.words().to_vec()
    }

    /// Borrows the packed words (last word zero-padded).
    pub fn words(&self) -> &[u64] {
        &self.words[..self.width.div_ceil(64)]
    }

    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words[..self.width.div_ceil(64)]
    }

    /// Width in bits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Bit `i`, or `None` out of range.
    pub fn get(&self, i: usize) -> Option<bool> {
        (i < self.width).then(|| self.words()[i / 64] >> (i % 64) & 1 == 1)
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set(&mut self, i: usize, bit: bool) {
        assert!(i < self.width, "bit {i} of a {}-bit row", self.width);
        let word = &mut self.words_mut()[i / 64];
        *word = *word & !(1 << (i % 64)) | u64::from(bit) << (i % 64);
    }

    /// Number of `1` bits.
    pub fn popcount(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over the bits, nanowire order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.width).map(|i| self.words()[i / 64] >> (i % 64) & 1 == 1)
    }

    /// The row with bit `j` of every `blocksize`-bit lane set and nothing
    /// else: the lane mask one carry-chain step works through. Like every
    /// lane operation, for power-of-two lanes from one bit to the row.
    pub fn lane_bit(width: usize, blocksize: usize, j: usize) -> Row {
        assert!(blocksize.is_power_of_two() && j < blocksize, "bad lane bit");
        if blocksize <= 64 {
            let word = replicate(1 << j, blocksize);
            return Row::from_fn(width, |_| word);
        }
        let per = blocksize / 64;
        Row::from_fn(width, |w| u64::from(w % per == j / 64) << (j % 64))
    }

    /// Per-lane `<< by`: within each `blocksize`-bit lane bit `i` moves to
    /// bit `i + by`, vacated bits fill with zero and bits shifted past the
    /// lane top are dropped — the neighbour-forwarding interconnect.
    pub fn shl_lanes(&self, by: usize, blocksize: usize) -> Row {
        Row::from_fn(self.width, self.shl_word(by, blocksize))
    }

    /// Word by word, [`Row::shl_lanes`], under a mask of the bits that stay
    /// in their lane.
    fn shl_word(&self, by: usize, blocksize: usize) -> impl Fn(usize) -> u64 + '_ {
        assert!(blocksize.is_power_of_two(), "bad lane width");
        let keep = match blocksize {
            _ if by >= blocksize => 0,
            ..=64 => !replicate((1 << by) - 1, blocksize),
            _ => u64::MAX,
        };
        let (within, skip, bits) = (blocksize.div_ceil(64) - 1, by / 64, (by % 64) as u32);
        // Word `w` takes from `back` words below it, if still in its lane.
        let from = move |w: usize, back: usize| match w & within >= back {
            true => self.words()[w - back],
            false => 0,
        };
        move |w| {
            (from(w, skip) << bits | from(w, skip + 1).checked_shr(64 - bits).unwrap_or(0)) & keep
        }
    }

    /// Every lane filled with its own bit `j` — all ones where the lane has
    /// that bit set, all zeros where not: the per-lane predicate of the
    /// predicated row-buffer reset.
    pub fn spread_lanes(&self, j: usize, blocksize: usize) -> Row {
        Row::from_fn(self.width, self.spread_word(j, blocksize))
    }

    /// Word by word, [`Row::spread_lanes`]: word `w` spreads the word of
    /// its lane that holds bit `j`.
    fn spread_word(&self, j: usize, blocksize: usize) -> impl Fn(usize) -> u64 + '_ {
        assert!(blocksize.is_power_of_two() && j < blocksize, "bad lane bit");
        let (first, holder) = (!(blocksize.div_ceil(64) - 1), j / 64);
        move |w| {
            let word = self.words().get((w & first) + holder);
            spread_bit(word.map_or(0, |&x| x), j, blocksize)
        }
    }

    /// Partial product `i` of a lane-wise multiply: [`Row::shl_lanes`] by
    /// `i` in the lanes where the multiplier's bit `i` is set, zero in the
    /// others — the predicated shifted copy of §III-D2, one row built word
    /// by word.
    pub fn partial_product(&self, multiplier: &Row, i: usize, blocksize: usize) -> Row {
        let (shifted, taken) = (
            self.shl_word(i, blocksize),
            multiplier.spread_word(i, blocksize),
        );
        Row::from_fn(self.width, |w| shifted(w) & taken(w))
    }

    /// Lane-wise wrapping sum: each `blocksize`-bit lane of the result is
    /// the sum of the two operands' lanes modulo `2^blocksize`.
    ///
    /// # Panics
    ///
    /// Panics on rows of different widths.
    pub fn lane_add(&self, rhs: &Row, blocksize: usize) -> Row {
        assert!(blocksize.is_power_of_two(), "bad lane width");
        assert_eq!(self.width, rhs.width, "lane sums need equal-width rows");
        if blocksize < 64 {
            // Add everything below each lane's top bit, then fold the top
            // bits in without letting a carry cross into the next lane.
            let top = replicate(1 << (blocksize - 1), blocksize);
            return Row::from_fn(self.width, |w| {
                let (a, b) = (self.words()[w], rhs.words()[w]);
                ((a & !top) + (b & !top)) ^ ((a ^ b) & top)
            });
        }
        let (per, mut carry) = (blocksize / 64, false);
        Row::from_fn(self.width, |w| {
            let (sum, c1) = self.words()[w].overflowing_add(rhs.words()[w]);
            let (sum, c2) = sum.overflowing_add(u64::from(carry && w % per != 0));
            carry = c1 || c2;
            sum
        })
    }
}

impl FromIterator<bool> for Row {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Row {
        let bits: Vec<bool> = iter.into_iter().collect();
        let word = |w: usize| bits[w * 64..].iter().take(64).rev();
        Row::from_fn(bits.len(), |w| {
            word(w).fold(0, |x, &b| x << 1 | u64::from(b))
        })
    }
}

/// The wire format stays one boolean per nanowire, `{"bits":[…]}`,
/// whatever the in-memory packing.
impl Serialize for Row {
    fn to_value(&self) -> serde::json::Value {
        let bits: Vec<bool> = self.iter().collect();
        serde::json::Value::Object(vec![("bits".into(), bits.to_value())])
    }
}

impl Deserialize for Row {
    fn from_value(value: &serde::json::Value) -> Result<Row, serde::json::Error> {
        serde::de::field::<Vec<bool>>(value, "bits").map(Row::from_bits)
    }
}

macro_rules! rowwise_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for &Row {
            type Output = Row;
            fn $method(self, rhs: &Row) -> Row {
                assert_eq!(self.width, rhs.width, "bitwise ops need equal-width rows");
                Row::from_fn(self.width, |w| self.words()[w] $op rhs.words()[w])
            }
        }
    };
}

rowwise_binop!(BitAnd, bitand, &);
rowwise_binop!(BitOr, bitor, |);
rowwise_binop!(BitXor, bitxor, ^);

impl Not for &Row {
    type Output = Row;
    fn not(self) -> Row {
        Row::from_fn(self.width, |w| !self.words()[w])
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Row[{} bits, {} ones]", self.width, self.popcount())
    }
}
