//! The row-at-a-time PIM paths against their per-bitline definitions:
//! output selection and sense thresholds from the count planes of one
//! parallel transverse read, and the addition oracle at the block sizes
//! past one machine word.

use coruscant_core::add::MultiOperandAdder;
use coruscant_core::bulk::BulkOp;
use coruscant_core::pimblock::PimBlock;
use coruscant_core::sense::{at_least, full, SenseLevels};
use coruscant_mem::{Dbc, MemoryConfig, Row};
use coruscant_racetrack::CostMeter;

/// The row-at-a-time selection is the per-bitline PIM block, 64
/// bitlines to a word: every op, every count, every span.
#[test]
fn select_row_is_the_pim_block_on_every_bitline() {
    let ops = [
        BulkOp::And,
        BulkOp::Nand,
        BulkOp::Or,
        BulkOp::Nor,
        BulkOp::Xor,
        BulkOp::Xnor,
        BulkOp::Not,
    ];
    for trd in [3usize, 5, 7] {
        let config = MemoryConfig::tiny().with_trd(trd);
        let mut dbc = Dbc::pim_enabled(&config);
        // Wire i holds i % (trd + 1) ones.
        for s in 0..trd {
            let row: Row = (0..64).map(|i| i % (trd + 1) > s).collect();
            dbc.poke_segment_row(s, &row).unwrap();
        }
        let counts = dbc.transverse_read_all(&mut CostMeter::new()).unwrap();
        for op in ops {
            let want: Row = (0..64)
                .map(|i| {
                    let levels = SenseLevels::new(counts.value(i), counts.span);
                    op.select(PimBlock::new().evaluate(levels))
                })
                .collect();
            assert_eq!(op.select_row(&counts), want, "{op} at TRD {trd}");
        }
    }
}

/// The row-wide thresholds are `SenseLevels` on every bitline.
#[test]
fn row_thresholds_match_the_per_wire_amplifier() {
    for trd in [3usize, 5, 7] {
        let mut dbc = Dbc::pim_enabled(&MemoryConfig::tiny().with_trd(trd));
        // Wire i holds i % (trd + 1) ones in its segment.
        for s in 0..trd {
            let row: Row = (0..64).map(|i| i % (trd + 1) > s).collect();
            dbc.poke_segment_row(s, &row).unwrap();
        }
        let mut meter = CostMeter::new();
        let counts = dbc.transverse_read_all(&mut meter).unwrap();
        let levels = |i| SenseLevels::new(counts.value(i), counts.span);
        for level in 1..=7u8 {
            let want: Row = (0..64).map(|i| levels(i).at_least(level)).collect();
            assert_eq!(at_least(&counts, level), want, "SA[{level}] at TRD {trd}");
        }
        let want: Row = (0..64)
            .map(|i| levels(i).count() == levels(i).span())
            .collect();
        assert_eq!(full(&counts), want, "TRD {trd}");
    }
}

/// The block sizes §III-E lists past one machine word: the oracle used
/// to panic at 128 (`1u64 << blocksize`), the device path never did.
#[test]
fn paper_width_blocks_up_to_the_whole_row() {
    let config = MemoryConfig {
        nanowires_per_dbc: 512,
        ..MemoryConfig::tiny()
    };
    let adder = MultiOperandAdder::new(&config);
    let mut seed = 0x5EED_u64;
    let mut word = || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // Dense high bits so carries ripple across word boundaries.
        seed | 0xFFFF_0000_0000_0000
    };
    for blocksize in [64usize, 128, 256, 512] {
        let ops: Vec<Row> = (0..5)
            .map(|_| Row::from_u64_words(512, &[(); 8].map(|()| word())))
            .collect();
        let mut dbc = Dbc::pim_enabled(&config);
        let mut m = CostMeter::new();
        let got = adder.add_rows(&mut dbc, &ops, blocksize, &mut m).unwrap();
        assert_eq!(
            got,
            MultiOperandAdder::reference(&ops, blocksize),
            "block {blocksize}"
        );
        assert_eq!(m.total().cycles, 10 + 2 * blocksize as u64);
    }
    // 5 × (2^128 − 1) mod 2^128 = 2^128 − 5, in every 128-bit lane.
    let all_ones = vec![Row::ones(512); 5];
    let sum = MultiOperandAdder::reference(&all_ones, 128);
    let lane = [u64::MAX - 4, u64::MAX];
    assert_eq!(sum.to_u64_words(), [lane; 4].concat());
}
