//! Memory request traces: a serializable request stream and a replayer.
//!
//! The paper drives its system-level evaluation from pintool traces
//! replayed through an RTSIM-based model (§V-C). This module provides the
//! equivalent machinery: a compact trace record format (serializable with
//! serde for storage), synthetic trace generators with controllable
//! locality, and a replayer that runs a trace through the
//! [`MemoryController`] and reports latency and
//! row-buffer statistics.

use crate::config::MemoryConfig;
use crate::controller::{ControllerStats, MemoryController, Request};
use crate::Result;
use serde::{Deserialize, Serialize};

/// One trace record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TraceOp {
    /// Read at a byte address.
    Read(u64),
    /// Write at a byte address.
    Write(u64),
    /// CPU compute gap: the next request arrives this many memory cycles
    /// later.
    Gap(u64),
}

/// A request trace.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    ops: Vec<TraceOp>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Appends an operation.
    pub fn push(&mut self, op: TraceOp) {
        self.ops.push(op);
    }

    /// Number of records (including gaps).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The records.
    pub fn ops(&self) -> &[TraceOp] {
        &self.ops
    }

    /// A sequential streaming trace: `n` word-granularity reads walking
    /// consecutive rows (four accesses land in each row before moving
    /// on, so an open-row policy sees hits).
    pub fn streaming(config: &MemoryConfig, n: usize) -> Trace {
        let row_bytes = (config.nanowires_per_dbc / 8) as u64;
        let cap = config.capacity_bytes();
        Trace {
            ops: (0..n as u64)
                .map(|i| TraceOp::Read((i / 4 * row_bytes + (i % 4) * 2) % cap))
                .collect(),
        }
    }

    /// A strided trace with a read/write mix: every fourth access is a
    /// write, rows advance by `stride_rows`.
    pub fn strided(config: &MemoryConfig, n: usize, stride_rows: u64) -> Trace {
        let row_bytes = (config.nanowires_per_dbc / 8) as u64;
        let cap = config.capacity_bytes();
        Trace {
            ops: (0..n as u64)
                .map(|i| {
                    let addr = (i * stride_rows * row_bytes) % cap;
                    if i % 4 == 3 {
                        TraceOp::Write(addr)
                    } else {
                        TraceOp::Read(addr)
                    }
                })
                .collect(),
        }
    }

    /// A pointer-chasing trace: pseudo-random rows (poor locality), with
    /// a compute gap between every access.
    pub fn pointer_chase(config: &MemoryConfig, n: usize, gap: u64, seed: u64) -> Trace {
        let row_bytes = (config.nanowires_per_dbc / 8) as u64;
        let rows = config.capacity_bytes() / row_bytes;
        let mut state = seed | 1;
        let mut ops = Vec::with_capacity(2 * n);
        for _ in 0..n {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ops.push(TraceOp::Read((state % rows) * row_bytes));
            if gap > 0 {
                ops.push(TraceOp::Gap(gap));
            }
        }
        Trace { ops }
    }
}

/// The outcome of a trace replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// Completion time of the last request (memory cycles).
    pub finish_cycles: u64,
    /// Controller statistics after the run.
    pub stats: ControllerStats,
    /// Requests replayed.
    pub requests: u64,
}

impl ReplayReport {
    /// Average cycles per request.
    pub fn cycles_per_request(&self) -> f64 {
        self.finish_cycles as f64 / self.requests.max(1) as f64
    }

    /// Row-buffer hit rate observed by the controller.
    pub fn hit_rate(&self) -> f64 {
        let total = self.stats.row_hits + self.stats.row_misses;
        if total == 0 {
            0.0
        } else {
            self.stats.row_hits as f64 / total as f64
        }
    }
}

/// Replays a trace through a fresh controller. Requests arrive at one
/// per memory cycle (the command-bus issue rate); `Gap` records insert
/// additional idle cycles, so the queuing statistics measure genuine
/// waiting rather than artifacts of instantaneous arrival.
///
/// # Errors
///
/// Propagates address-validation errors.
pub fn replay(trace: &Trace, ctrl: &mut MemoryController) -> Result<ReplayReport> {
    let mut finish = 0;
    let mut requests = 0;
    for op in trace.ops() {
        match *op {
            TraceOp::Read(a) => {
                finish = finish.max(ctrl.submit(Request::Read(a))?);
                ctrl.advance(1);
                requests += 1;
            }
            TraceOp::Write(a) => {
                finish = finish.max(ctrl.submit(Request::Write(a))?);
                ctrl.advance(1);
                requests += 1;
            }
            TraceOp::Gap(g) => ctrl.advance(g),
        }
    }
    let finish = finish.max(ctrl.drain());
    Ok(ReplayReport {
        finish_cycles: finish,
        stats: *ctrl.stats(),
        requests,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::DeviceTiming;

    fn cfg() -> MemoryConfig {
        MemoryConfig::tiny()
    }

    #[test]
    fn streaming_trace_has_high_locality() {
        let config = cfg();
        let trace = Trace::streaming(&config, 1000);
        let mut ctrl = MemoryController::new(config);
        let report = replay(&trace, &mut ctrl).unwrap();
        assert_eq!(report.requests, 1000);
        assert!(
            report.hit_rate() > 0.5,
            "streaming hit rate {}",
            report.hit_rate()
        );
    }

    #[test]
    fn pointer_chase_has_poor_locality() {
        let config = cfg();
        let stream = replay(
            &Trace::streaming(&config, 500),
            &mut MemoryController::new(config.clone()),
        )
        .unwrap();
        let chase = replay(
            &Trace::pointer_chase(&config, 500, 0, 42),
            &mut MemoryController::new(config.clone()),
        )
        .unwrap();
        assert!(chase.hit_rate() < stream.hit_rate());
        assert!(chase.cycles_per_request() > stream.cycles_per_request());
    }

    #[test]
    fn gaps_stretch_the_timeline_without_requests() {
        let config = cfg();
        let mut with_gaps = Trace::new();
        let mut without = Trace::new();
        for i in 0..50u64 {
            with_gaps.push(TraceOp::Read(i * 64));
            with_gaps.push(TraceOp::Gap(100));
            without.push(TraceOp::Read(i * 64));
        }
        let a = replay(&with_gaps, &mut MemoryController::new(config.clone())).unwrap();
        let b = replay(&without, &mut MemoryController::new(config)).unwrap();
        assert_eq!(a.requests, b.requests);
        assert!(a.finish_cycles > b.finish_cycles + 4000);
    }

    #[test]
    fn dwm_vs_dram_on_the_same_trace() {
        // The DWM timing (9-4-S-4-4) services the same trace faster than
        // DRAM (20-8-8-8-8) when shifts are short.
        let config = cfg();
        let trace = Trace::strided(&config, 2000, 1);
        let dwm = replay(
            &trace,
            &mut MemoryController::with_timing(config.clone(), DeviceTiming::DWM_PAPER),
        )
        .unwrap();
        let dram = replay(
            &trace,
            &mut MemoryController::with_timing(config, DeviceTiming::DRAM_PAPER),
        )
        .unwrap();
        assert!(
            dwm.finish_cycles <= dram.finish_cycles,
            "dwm {} vs dram {}",
            dwm.finish_cycles,
            dram.finish_cycles
        );
    }

    #[test]
    fn trace_file_roundtrip_replays_identically() {
        let config = cfg();
        let trace = Trace::strided(&config, 300, 2);

        // Serialize to a file and load it back.
        let json = serde::json::to_string(&trace);
        let path = std::env::temp_dir().join("coruscant_trace_roundtrip.json");
        std::fs::write(&path, &json).unwrap();
        let loaded: Trace =
            serde::json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded, trace);

        // The reloaded trace drives the replayer to identical results.
        let a = replay(&trace, &mut MemoryController::new(config.clone())).unwrap();
        let b = replay(&loaded, &mut MemoryController::new(config)).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.requests, 300);
    }

    #[test]
    fn trace_accessors() {
        let config = cfg();
        let trace = Trace::strided(&config, 64, 3);
        assert_eq!(trace.len(), 64);
        assert!(!trace.is_empty());
        assert!(Trace::new().is_empty());
        // Writes appear every fourth record.
        let writes = trace
            .ops()
            .iter()
            .filter(|op| matches!(op, TraceOp::Write(_)))
            .count();
        assert_eq!(writes, 16);
    }
}
