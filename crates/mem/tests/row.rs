//! [`Row`]: packing, operators, lane operations and the wire format.

use coruscant_mem::Row;

#[test]
fn pack_unpack_roundtrip() {
    let values = [1u64, 200, 37, 255, 0, 128, 99, 64];
    let row = Row::pack(64, 8, &values);
    assert_eq!(row.unpack(8), values.to_vec());
}

#[test]
fn pack_truncates_oversized_values() {
    let row = Row::pack(16, 8, &[300, 5]); // 300 = 0b1_0010_1100 -> 0x2C
    assert_eq!(row.unpack(8), vec![300 & 0xFF, 5]);
}

#[test]
fn word_roundtrip() {
    let words = [0xDEAD_BEEF_CAFE_F00D, 0x0123_4567_89AB_CDEF];
    let row = Row::from_u64_words(128, &words);
    assert_eq!(row.to_u64_words(), words.to_vec());
}

#[test]
fn bitwise_ops_match_u64() {
    let a = 0xF0F0_1234u64;
    let b = 0x0FF0_4321u64;
    let ra = Row::from_u64_words(64, &[a]);
    let rb = Row::from_u64_words(64, &[b]);
    assert_eq!((&ra & &rb).to_u64_words()[0], a & b);
    assert_eq!((&ra | &rb).to_u64_words()[0], a | b);
    assert_eq!((&ra ^ &rb).to_u64_words()[0], a ^ b);
    assert_eq!((!&ra).to_u64_words()[0], !a);
}

#[test]
fn popcount_and_get_set() {
    let mut r = Row::zeros(32);
    assert_eq!(r.popcount(), 0);
    r.set(3, true);
    r.set(30, true);
    assert_eq!(r.popcount(), 2);
    assert_eq!(r.get(3), Some(true));
    assert_eq!(r.get(4), Some(false));
    assert_eq!(r.get(32), None);
    assert_eq!(Row::ones(10).popcount(), 10);
}

#[test]
fn collect_from_iterator() {
    let r: Row = (0..8).map(|i| i % 2 == 0).collect();
    assert_eq!(r.width(), 8);
    assert_eq!(r.popcount(), 4);
}

#[test]
#[should_panic(expected = "equal-width")]
fn mismatched_widths_panic() {
    let _ = &Row::zeros(8) & &Row::zeros(16);
}

#[test]
fn display_nonempty() {
    assert!(!Row::zeros(4).to_string().is_empty());
}

/// A plain per-bit model of the lane operations, for every lane width
/// from a nibble to the whole row — on a row of half the inline words and
/// on the widest row, which fills them.
#[test]
fn lane_operations_match_a_per_bit_model() {
    let pattern = [
        0xDEAD_BEEF_CAFE_F00D,
        0x0123_4567_89AB_CDEF,
        0xFFFF_FFFF_0000_0001,
        0x8000_0000_0000_0000,
        u64::MAX,
        1,
        0xFFFF_FFFF_FFFF_FFFF,
        0x8000_0000_0000_0000,
    ];
    for width in [256usize, 512] {
        let words = |from: usize| -> Vec<u64> {
            (0..width / 64).map(|w| pattern[(from + w) % 8]).collect()
        };
        let a = Row::from_u64_words(width, &words(0));
        let b = Row::from_u64_words(width, &words(4));
        for bs in [4usize, 8, 32, 64, 128, 256, width] {
            for j in [0, 1, bs / 2, bs - 1] {
                let bit: Row = (0..width).map(|i| i % bs == j).collect();
                assert_eq!(Row::lane_bit(width, bs, j), bit, "lane_bit bs {bs} j {j}");
                let spread: Row = (0..width)
                    .map(|i| a.get(i / bs * bs + j).unwrap())
                    .collect();
                assert_eq!(a.spread_lanes(j, bs), spread, "spread bs {bs} j {j}");
                let shifted: Row = (0..width)
                    .map(|i| i % bs >= j && a.get(i - j).unwrap())
                    .collect();
                assert_eq!(a.shl_lanes(j, bs), shifted, "shl bs {bs} by {j}");
                let product: Row = (0..width)
                    .map(|i| shifted.get(i).unwrap() && b.get(i / bs * bs + j).unwrap())
                    .collect();
                let got = a.partial_product(&b, j, bs);
                assert_eq!(got, product, "partial product bs {bs} i {j}");
            }
            assert_eq!(a.shl_lanes(bs, bs), Row::zeros(width));
            // Ripple-carry reference, one lane at a time.
            let mut sum = Row::zeros(width);
            for lane in 0..width / bs {
                let mut carry = false;
                for i in lane * bs..(lane + 1) * bs {
                    let (x, y) = (a.get(i).unwrap(), b.get(i).unwrap());
                    sum.set(i, x ^ y ^ carry);
                    carry = (x && y) || (carry && (x ^ y));
                }
            }
            assert_eq!(a.lane_add(&b, bs), sum, "lane_add w {width} bs {bs}");
        }
    }
}

/// The widest row fills every inline word; nothing else may change.
#[test]
fn the_widest_row_behaves_the_same() {
    let words: Vec<u64> = (1..=8u64)
        .map(|w| w.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let a = Row::from_u64_words(512, &words);
    assert_eq!(a.to_u64_words(), words);
    assert_eq!(a.words(), &words[..]);
    let bits: Vec<bool> = a.iter().collect();
    assert_eq!(Row::from_bits(bits.clone()), a);
    assert_eq!(a.popcount(), bits.iter().filter(|&&b| b).count());
    assert_eq!((&a ^ &Row::ones(512)), !&a);
    assert_eq!((&a & &!&a), Row::zeros(512));
    assert_eq!((&a | &!&a).popcount(), 512);
    let mut b = a.clone();
    b.set(511, !a.get(511).unwrap());
    assert_ne!(a, b);
    assert_eq!(b.get(512), None);
    let values: Vec<u64> = (0..32).map(|v| v * 0x0101 + 7).collect();
    assert_eq!(Row::pack(512, 16, &values).unpack(16), values);
    // A ragged width in the last inline word keeps its tail clear.
    assert_eq!(Row::ones(488).popcount(), 488);
    assert_eq!((!&Row::zeros(488)).to_u64_words()[7], u64::MAX >> 24);
    let back: Row = serde::json::from_str(&serde::json::to_string(&a)).unwrap();
    assert_eq!(back, a);
}

#[test]
#[should_panic(expected = "513 bits: over 512")]
fn rows_past_512_bits_are_refused() {
    let _ = Row::zeros(513);
}

#[test]
fn bits_past_the_width_never_leak() {
    let r = Row::from_u64_words(70, &[u64::MAX, u64::MAX]);
    assert_eq!(r.popcount(), 70);
    assert_eq!(r, Row::ones(70));
    assert_eq!((!&Row::zeros(70)).to_u64_words(), vec![u64::MAX, 0x3F]);
    assert_eq!(Row::pack(12, 8, &[0xFF, 0xFF]).popcount(), 12);
    let straddling = Row::pack(
        128,
        24,
        &[0xAB_CDEF, 0x12_3456, 0xFE_DCBA, 0x65_4321, 0x0F_F0F0],
    );
    assert_eq!(
        straddling.unpack(24),
        vec![0xAB_CDEF, 0x12_3456, 0xFE_DCBA, 0x65_4321, 0x0F_F0F0]
    );
}

#[test]
fn wire_format_is_one_boolean_per_nanowire() {
    let row = Row::from_u64_words(5, &[0b10110]);
    let json = serde::json::to_string(&row);
    assert_eq!(json, r#"{"bits":[false,true,true,false,true]}"#);
    assert_eq!(serde::json::from_str::<Row>(&json).unwrap(), row);
    let wide = Row::from_u64_words(130, &[7, 0, 3]);
    let back: Row = serde::json::from_str(&serde::json::to_string(&wide)).unwrap();
    assert_eq!(back, wide);
}
