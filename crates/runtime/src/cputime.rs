//! Per-thread CPU-time measurement for the scheduler-occupancy profile.
//!
//! Busy-time accounting must survive oversubscribed hosts: when more
//! domain threads run than cores exist, wall-clock spans include time
//! the thread spent *descheduled*, which would inflate every thread's
//! "busy" figure toward the session wall and flatten any scaling
//! metric built on it. Thread CPU time measures work actually done,
//! independent of preemption, so `jobs / busiest-thread-busy` reflects
//! the serial bottleneck on any core count.
//!
//! On Linux this reads `CLOCK_THREAD_CPUTIME_ID` via `clock_gettime`,
//! which the C runtime std already links provides — no new dependency.
//! Elsewhere it falls back to a process-wide monotonic clock (the
//! profile stays populated, merely preemption-sensitive).

#[cfg(target_os = "linux")]
// The crate denies `unsafe_code`; this module is the one sanctioned
// exception — a single FFI call into the already-linked C runtime.
#[allow(unsafe_code)]
mod imp {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    extern "C" {
        fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
    }

    /// CPU time consumed by the calling thread, in microseconds.
    pub(crate) fn thread_micros() -> u64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable timespec and the clock id is
        // a compile-time constant the kernel supports; on failure the
        // struct is left zeroed and we report 0.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        if rc != 0 {
            return 0;
        }
        (ts.tv_sec as u64) * 1_000_000 + (ts.tv_nsec as u64) / 1_000
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use std::sync::OnceLock;
    use std::time::Instant;

    /// Fallback: monotonic wall time since first use. Preemption-
    /// sensitive, but keeps the profile populated off-Linux.
    pub(crate) fn thread_micros() -> u64 {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
    }
}

pub(crate) use imp::thread_micros;

/// A running busy-time meter: stamps thread CPU time and accumulates
/// deltas into named stage counters.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StageClock {
    last: u64,
}

impl StageClock {
    /// Starts a clock at the calling thread's current CPU time.
    pub(crate) fn start() -> StageClock {
        StageClock {
            last: thread_micros(),
        }
    }

    /// Microseconds of thread CPU time since the previous lap (or
    /// start), and re-stamps.
    pub(crate) fn lap(&mut self) -> u64 {
        let now = thread_micros();
        let delta = now.saturating_sub(self.last);
        self.last = now;
        delta
    }

    /// Re-stamps without charging the elapsed time anywhere (used to
    /// skip waits that should not count as busy).
    pub(crate) fn reset(&mut self) {
        self.last = thread_micros();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_time_advances_under_work() {
        let start = thread_micros();
        // Spin enough to consume measurable CPU (not a sleep: sleeps
        // must NOT advance thread CPU time).
        let mut acc = 0u64;
        for i in 0..2_000_000u64 {
            acc = acc.wrapping_add(i).rotate_left(7);
        }
        assert!(acc != 1, "keep the loop alive");
        let end = thread_micros();
        assert!(end >= start);
        assert!(end > 0, "clock readable");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn sleeping_consumes_no_thread_cpu_time() {
        let mut clock = StageClock::start();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let busy = clock.lap();
        // A 30 ms sleep must charge far less than 30 ms of CPU.
        assert!(busy < 20_000, "sleep charged {busy} us of CPU time");
    }
}
