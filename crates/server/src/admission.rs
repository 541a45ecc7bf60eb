//! Admission control: per-priority queue-depth load shedding.
//!
//! The runtime's bounded submission queue already applies *backpressure*
//! (blocking `submit`) — correct for cooperating batch producers, wrong
//! for a serving frontend, where a slow consumer must shed excess load
//! with a typed error the client can act on instead of stalling every
//! caller. The controller here decides, per submission, whether to admit:
//! each [`Priority`] has a high-water fraction of the runtime queue's
//! capacity, and submissions above it are rejected with
//! [`Rejected::Overload`]. Lower priorities shed first (their fraction is
//! lower), which keeps headroom for high-priority traffic — the
//! queue-depth signal is [`coruscant_runtime::Runtime::queue_len`], the
//! live counterpart of the depth histograms in
//! [`coruscant_runtime::RuntimeStats`].
//!
//! Admission control is **off by default**: a disabled controller admits
//! everything and the server falls back to blocking backpressure, which
//! preserves the runtime's bit-exact determinism (no timing-dependent
//! accept/reject decisions).

use coruscant_runtime::Rejected;

/// A submission's scheduling class, used to pick its shed threshold.
/// Lower priorities are shed earlier under load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Latency-sensitive traffic; shed last.
    High,
    /// The default class.
    #[default]
    Normal,
    /// Best-effort traffic; shed first.
    Low,
}

impl Priority {
    /// Dense index for per-priority tables.
    pub fn index(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    /// All priorities, highest first.
    pub const ALL: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];
}

/// Per-priority queue high-water marks as fractions of the runtime
/// queue's capacity, indexed by [`Priority::index`]. A submission is shed
/// when the live queue depth is at or above `ceil(fraction * capacity)`.
/// High sheds only when the queue is truly full (1.0 disables depth
/// shedding; the bounded queue itself still rejects with
/// [`Rejected::QueueFull`]); Normal keeps a little headroom; Low keeps half
/// the queue free.
const SHED_AT: [f64; 3] = [1.0, 0.75, 0.5];

/// Admission-controller configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AdmissionOptions {
    /// Master switch. Disabled (the default) admits every submission and
    /// makes the server use blocking backpressure — the deterministic
    /// mode. Enabled switches to non-blocking submission with depth
    /// shedding.
    pub enabled: bool,
}

impl AdmissionOptions {
    /// Options with the controller on.
    pub fn enabled() -> AdmissionOptions {
        AdmissionOptions { enabled: true }
    }

    /// Decides one submission given the live queue depth. Disabled
    /// options admit everything (the server then uses blocking
    /// backpressure instead).
    pub(crate) fn admit(
        &self,
        priority: Priority,
        queue_len: usize,
        queue_capacity: usize,
    ) -> Result<(), Rejected> {
        if !self.enabled {
            return Ok(());
        }
        let fraction = SHED_AT[priority.index()];
        if fraction < 1.0 {
            let high_water = (fraction * queue_capacity as f64).ceil() as usize;
            if queue_len >= high_water.max(1) {
                return Err(Rejected::Overload);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_controller_admits_everything() {
        let c = AdmissionOptions::default();
        for _ in 0..1000 {
            assert!(c.admit(Priority::Low, 999, 16).is_ok());
        }
    }

    #[test]
    fn depth_shedding_is_priority_ordered() {
        let c = AdmissionOptions::enabled();
        // Depth 8 of 16: Low (high-water 8) sheds, Normal (12) and High
        // (disabled at 1.0) admit.
        assert_eq!(c.admit(Priority::Low, 8, 16), Err(Rejected::Overload));
        assert!(c.admit(Priority::Normal, 8, 16).is_ok());
        assert!(c.admit(Priority::High, 8, 16).is_ok());
        // Depth 12: Normal sheds too; High still admits.
        assert_eq!(c.admit(Priority::Normal, 12, 16), Err(Rejected::Overload));
        assert!(c.admit(Priority::High, 12, 16).is_ok());
    }
}
