//! QoS serving subsystem for the CORUSCANT stack.
//!
//! Three pillars, wired through server → runtime → bench:
//!
//! 1. **Open-loop load generation** (`arrival`): seeded arrival
//!    processes (Poisson, deterministic, bursty/MMPP-2) that produce a
//!    wall-clock submission schedule *independent of completions*, so a
//!    sweep over offered rate can expose the saturation knee that a
//!    closed-loop client fleet structurally cannot show.
//! 2. **Weighted fair queueing** (`wfq`): a virtual-time start-time
//!    fair-queueing stage for server admission — per-client weights,
//!    optional absolute rate quotas (token buckets), and a
//!    congestion-gated lag envelope that throttles clients running too
//!    far ahead of virtual time only when the runtime queue is under
//!    pressure (work conservation when it is not).
//! 3. **Per-client accounting** (`stats`): [`QosStats`] /
//!    [`ClientQosStats`] snapshots (accepted / throttled / served /
//!    expired, attained service, deadline hit-rate) that the server
//!    surfaces through its `ServerStats`.
//!
//! The deadline-aware (EDF) *issue* policy itself lives in
//! `coruscant-runtime` (`IssuePolicy`), keeping this crate free of a
//! runtime dependency; this crate owns everything admission-side.

#![warn(unreachable_pub)]

mod arrival;
mod stats;
mod wfq;

pub use arrival::{ArrivalGen, ArrivalSpec};
pub use stats::{ClientQosStats, QosStats};
pub use wfq::{ClientConfig, FairQueue, QosOptions, RateQuota, Throttle};

/// SplitMix64: the seeded generator behind every arrival process.
///
/// Tiny, splittable, and stable across platforms — the same seed always
/// yields the same submission schedule, which is what makes open-loop
/// bench arms replayable.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Exponential draw with rate `rate_per_sec` (mean `1/rate`), in
    /// seconds. A non-positive rate yields `f64::INFINITY` (the event
    /// never fires), which the MMPP state machine relies on for silent
    /// gap phases.
    pub(crate) fn next_exp(&mut self, rate_per_sec: f64) -> f64 {
        if rate_per_sec <= 0.0 {
            return f64::INFINITY;
        }
        let u = self.next_f64();
        -(1.0 - u).ln() / rate_per_sec
    }
}

#[cfg(test)]
mod tests {
    use super::SplitMix64;

    #[test]
    fn splitmix_is_deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = SplitMix64::new(43);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_draws_stay_in_unit_interval() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            let u = r.next_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn exponential_mean_tracks_rate() {
        let mut r = SplitMix64::new(11);
        let rate = 250.0;
        let n = 20_000;
        let total: f64 = (0..n).map(|_| r.next_exp(rate)).sum();
        let mean = total / n as f64;
        let expect = 1.0 / rate;
        assert!(
            (mean - expect).abs() < expect * 0.05,
            "mean {mean} vs {expect}"
        );
    }

    #[test]
    fn zero_rate_never_fires() {
        let mut r = SplitMix64::new(3);
        assert!(r.next_exp(0.0).is_infinite());
        assert!(r.next_exp(-1.0).is_infinite());
    }
}
