//! Interface-level timing for DRAM and DWM (paper Table II).
//!
//! DWM keeps the DDR3-1600 command protocol but replaces the precharge time
//! `tRP` with the data-placement-dependent shift time `S`: a spintronic
//! array has no bitline precharge, it must instead shift the target row
//! under an access port.

use serde::{Deserialize, Serialize};

/// Which protocol a timing profile models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Protocol {
    /// Conventional DRAM (fixed `tRP`).
    Dram,
    /// Domain-wall memory (`tRP` replaced by shift cycles).
    Dwm,
}

/// DDR-style timing parameters in memory cycles (paper Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceTiming {
    /// Protocol family.
    pub protocol: Protocol,
    /// Row-access strobe: minimum time a row stays open.
    pub t_ras: u64,
    /// RAS-to-CAS delay: activation to column access.
    pub t_rcd: u64,
    /// Row precharge (DRAM only; DWM uses shift time instead).
    pub t_rp: u64,
    /// Column access strobe latency.
    pub t_cas: u64,
    /// Write recovery.
    pub t_wr: u64,
}

impl DeviceTiming {
    /// DRAM timing from Table II: `tRAS-tRCD-tRP-tCAS-tWR = 20-8-8-8-8`.
    pub const DRAM_PAPER: DeviceTiming = DeviceTiming {
        protocol: Protocol::Dram,
        t_ras: 20,
        t_rcd: 8,
        t_rp: 8,
        t_cas: 8,
        t_wr: 8,
    };

    /// DWM timing from Table II: `9-4-S-4-4`; the shift term `S` is
    /// supplied per access via [`DeviceTiming::row_hit`] /
    /// [`DeviceTiming::row_miss`].
    pub const DWM_PAPER: DeviceTiming = DeviceTiming {
        protocol: Protocol::Dwm,
        t_ras: 9,
        t_rcd: 4,
        t_rp: 0, // replaced by shift cycles
        t_cas: 4,
        t_wr: 4,
    };

    /// Latency (memory cycles) of an access that hits the open row:
    /// column access only.
    pub fn row_hit(&self) -> u64 {
        self.t_cas
    }

    /// Latency (memory cycles) of an access that misses the open row:
    /// close the current row (precharge or shift), activate, column access.
    ///
    /// `shift_cycles` is the DWM shift distance in cycles; ignored for
    /// DRAM.
    pub fn row_miss(&self, shift_cycles: u64) -> u64 {
        let close = match self.protocol {
            Protocol::Dram => self.t_rp,
            Protocol::Dwm => shift_cycles,
        };
        close + self.t_rcd + self.t_cas
    }

    /// Latency (memory cycles) of a write completing (miss path), including
    /// write recovery.
    pub(crate) fn write_miss(&self, shift_cycles: u64) -> u64 {
        self.row_miss(shift_cycles) + self.t_wr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dram_paper_values() {
        let t = DeviceTiming::DRAM_PAPER;
        assert_eq!(
            (t.t_ras, t.t_rcd, t.t_rp, t.t_cas, t.t_wr),
            (20, 8, 8, 8, 8)
        );
        assert_eq!(t.row_hit(), 8);
        assert_eq!(t.row_miss(0), 8 + 8 + 8);
    }

    #[test]
    fn dwm_replaces_precharge_with_shift() {
        let t = DeviceTiming::DWM_PAPER;
        assert_eq!(t.row_miss(0), 4 + 4, "zero-shift miss is rcd + cas");
        assert_eq!(t.row_miss(5), 5 + 4 + 4);
        assert_eq!(t.row_hit(), 4);
    }

    #[test]
    fn dwm_beats_dram_for_short_shifts() {
        // Paper §V-C: DRAM is slower than DWM because, while DWM needs S
        // shift cycles, its peripheral circuitry is faster.
        let dram = DeviceTiming::DRAM_PAPER;
        let dwm = DeviceTiming::DWM_PAPER;
        for s in 0..=15 {
            assert!(dwm.row_miss(s) <= dram.row_miss(0) + s.saturating_sub(8));
        }
        assert!(dwm.row_miss(4) < dram.row_miss(0));
    }

    #[test]
    fn write_adds_recovery() {
        let t = DeviceTiming::DWM_PAPER;
        assert_eq!(t.write_miss(3), t.row_miss(3) + 4);
    }
}
