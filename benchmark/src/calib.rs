//! Host-speed calibration. The shared 2-vCPU host this benchmark runs on
//! drifts between phases, seconds to minutes long, in which everything
//! that computes — this kernel, the simulator, a served job — runs
//! 20–40 % slower (a neighbour contending for cache and memory
//! bandwidth). As measured, throughput there spreads wider from run to
//! run than the widest bound a metric may have, so each set-up and each
//! round is bracketed by a fixed kernel and the compute-bound end-to-end
//! metrics are reported at **reference host speed**: divided (times) or
//! multiplied (rates) by how much slower than the reference the kernel
//! ran around them. The raw values are kept beside the normalised ones;
//! per-layer metrics and wake-up-bound latency are not normalised.
//!
//! The kernel imitates the device model's instruction mix as it is
//! today — short `Vec<bool>` tapes shifted by `pop`/`insert`, a row
//! gathered into a fresh allocation — because that is what tracked the
//! simulator across phases when measured (an ALU-only loop moved a third
//! as much). That makes a normalised value exact between runs in like
//! phases and only as good as the match between kernel and product
//! between unlike ones: after a change to the product's memory behaviour
//! the kernel must be re-fitted or dropped (README, "What the normalised
//! values may be used for"). Otherwise it is frozen: changing it rescales
//! every normalised metric, so it may only change in a benchmark-only
//! commit that re-measures the baseline.

use crate::stats;
use std::hint::black_box;
use std::time::Instant;

/// Milliseconds one [`Calibrator::batch`] takes at reference host speed,
/// where the factor is 1 and normalised values equal raw ones. It only
/// fixes the scale (a 2.1 GHz Xeon vCPU takes 3.5 ms when quiet);
/// comparisons between runs do not depend on it.
pub const REFERENCE_BATCH_MS: f64 = 4.0;

const WIRES: usize = 512;
const DOMAINS: usize = 39;
const STEPS_PER_BATCH: usize = 900;

/// The kernel's working set.
pub struct Calibrator {
    wires: Vec<Vec<bool>>,
}

impl Default for Calibrator {
    fn default() -> Calibrator {
        let wires = (0..WIRES)
            .map(|w| (0..DOMAINS).map(|d| (w + d) % 3 == 0).collect())
            .collect();
        let mut c = Calibrator { wires };
        c.batch();
        c
    }
}

impl Calibrator {
    /// One fixed batch of work; returns its wall time in milliseconds.
    fn batch(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..STEPS_PER_BATCH {
            for w in &mut self.wires {
                w.pop();
                w.insert(0, false);
            }
            let row: Vec<bool> = self.wires.iter().map(|w| w[DOMAINS / 2]).collect();
            let ones = black_box(row).iter().filter(|&&b| b).count();
            for w in &mut self.wires {
                w.remove(0);
                w.push(ones % 2 == 0);
            }
        }
        black_box(&self.wires);
        t.elapsed().as_secs_f64() * 1e3
    }

    /// How many times slower than the reference the host runs right
    /// now: the median of five batches (one preemption does not count)
    /// over [`REFERENCE_BATCH_MS`].
    pub fn factor(&mut self) -> f64 {
        let batches: Vec<f64> = (0..5).map(|_| self.batch()).collect();
        stats::median(&batches) / REFERENCE_BATCH_MS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic_and_leaves_its_tapes_the_same_length() {
        let mut a = Calibrator::default();
        let mut b = Calibrator::default();
        assert!(a.factor() > 0.0);
        b.factor();
        assert_eq!(a.wires, b.wires);
        assert!(a.wires.iter().all(|w| w.len() == DOMAINS));
    }
}
